// The benchmark's workloads. Each one generates its inputs from a seed,
// sets the program up, measures it, checks every answer, and returns its
// metrics; colbench.cc turns them into output.
//
//   engine_fig6   in-process ColGraphEngine, one caller, fig6 graph
//                 queries (match + measure fetch) over 200K NY records.
//   serve_read    colgraphd over AF_UNIX, closed-loop clients sending a
//                 match / path-aggregate mix; nothing is ingested.
//   serve_ingest  serve_read plus one writer ingesting trace batches into
//                 a durable dataset store with background compaction.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end run; true: the traced, layer-by-layer run.
  bool trace = false;
  /// Directory for scratch files (sockets, dataset stores, span dumps).
  std::string out_dir;
};

/// One reported number. `samples` is how many observations it summarises;
/// `applies` is false for a layer the workload does not exercise (value
/// 0). For a per-layer metric `note` names the end-to-end metric and
/// workload it should move; otherwise it qualifies the value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  bool applies = true;
  std::string note;
};

struct RunResult {
  std::vector<Metric> metrics;
  ErrorCount errors;
  /// Every workload parameter, recorded in the output.
  std::vector<std::pair<std::string, std::string>> params;
  /// Traced run only: whether the deterministic counts repeated exactly
  /// across the two traced passes, and whether every unattributed time
  /// was non-negative.
  bool counts_repeat = true;
  bool unattributed_nonnegative = true;
  /// Traced run only: the "where the time goes" table (markdown).
  std::string where_table;
  std::vector<std::string> notes;
};

/// The workload names, in the order the benchmark defines them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; aborts with a message on a setup failure.
RunResult RunWorkload(const RunConfig& config);

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
double PeakRssMb();

}  // namespace perfbench
