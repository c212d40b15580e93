// Internals shared by the benchmark's measured run (workloads.cc) and its
// traced run (traced.cc): parameters, generated inputs, set-up and the
// small helpers both use.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnstore/master_relation.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/daemon.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using colgraph::AggFn;
using colgraph::Bitmap;
using colgraph::BitmapSource;
using colgraph::ColGraphEngine;
using colgraph::DirectedGraph;
using colgraph::FetchStats;
using colgraph::GraphQuery;
using colgraph::GraphRecord;
using colgraph::MasterRelation;
using colgraph::MatchPlan;
using colgraph::MeasureTable;
using colgraph::NodeRef;
using colgraph::PathAggResult;
using colgraph::QueryEngine;
using colgraph::QueryOptions;
using colgraph::Rng;
using colgraph::server::Client;
using colgraph::server::ClientOptions;
using colgraph::server::Daemon;
using colgraph::server::DaemonOptions;
using colgraph::server::Request;
using colgraph::server::RequestOp;
using colgraph::server::Response;

struct WorkloadParams {
  size_t records = 0;
  size_t setup_reps = 0;
  // engine_fig6: a uniform fig6 workload of path queries.
  size_t fig6_queries = 0;
  size_t path_min_edges = 15;
  size_t path_max_edges = 40;
  size_t graph_view_budget = 100;
  // serve_*: closed-loop clients and their request mix.
  size_t clients = 0;
  size_t requests_per_client = 0;
  /// Shares of the mix in percent: single path, AND, AND NOT, OR, '+',
  /// SUM and MAX path aggregates (they add up to 100).
  size_t pct_path = 40, pct_and = 10, pct_and_not = 10, pct_or = 10,
         pct_plus = 10, pct_sum = 10, pct_max = 10;
  size_t agg_min_edges = 8;
  size_t agg_max_edges = 25;
  size_t agg_view_budget = 20;
  /// Leaves (and SUM aggregates) of the first requests of the mix that
  /// view selection runs over; candidate generation grows faster than
  /// linearly in this count.
  size_t view_workload_queries = 600;
  double warmup_seconds = 1.0;
  // serve_ingest: the writer.
  size_t batch_walks = 0;
  size_t distinct_batches = 0;
  size_t reads_per_batch = 0;
  size_t compact_after = 0;
  // Traced run.
  size_t traced_requests = 0;
  size_t traced_reps = 3;
  size_t traced_batches = 0;
  size_t traced_reads_per_batch = 0;
  size_t decode_probe_connections = 0;
};

WorkloadParams ParamsFor(const std::string& workload);
std::vector<std::pair<std::string, std::string>> DescribeParams(
    const RunConfig& config, const WorkloadParams& p);

[[noreturn]] void Die(const std::string& what);

template <typename T>
T OrDie(colgraph::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

void OrDie(const colgraph::Status& status, const char* what);

double NowSeconds();
double MicrosSince(double start_s);
/// splitmix64: independent sub-seeds from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);
/// Hash of a measure table's records, edges and values.
uint64_t TableHash(const MeasureTable& table);

/// Work counted by the traced run; every field must repeat exactly.
struct Counts {
  uint64_t bitmaps = 0;
  uint64_t measure_columns = 0;
  uint64_t values = 0;
  uint64_t view_operands = 0;
  uint64_t operands = 0;
  uint64_t matches = 0;
  uint64_t queries = 0;
  uint64_t tails = 0;  ///< tail datasets of the snapshots read, summed

  bool operator==(const Counts& o) const = default;
};

/// FetchStats summed over a snapshot's primary relation and its tails.
Counts StatsOf(const ColGraphEngine& engine);
void AddStatsDelta(const Counts& before, const Counts& after, Counts* into);
void AddPlan(const MatchPlan& plan, Counts* into);

struct NyData {
  DirectedGraph universe;
  std::vector<GraphRecord> records;
  std::vector<std::vector<NodeRef>> trunks;
};

enum class Combine : uint8_t { kNone, kAnd, kAndNot, kOr };

/// One serve request: its wire text plus the pieces the traced run
/// evaluates layer by layer (parsed from the same text pieces, so they are
/// exactly what the daemon's parser builds).
struct ServeRequest {
  bool is_agg = false;
  std::string text;
  std::vector<GraphQuery> leaves;  // match: 1 or 2 leaves
  Combine combine = Combine::kNone;
  GraphQuery agg_query;
  AggFn fn = AggFn::kSum;
};

/// The records the daemon builds from a trace batch (same conversion).
std::vector<GraphRecord> BatchRecords(const std::string& text);

struct SetupTimes {
  double build_s = 0;
  double materialize_s = 0;
  double start_s = 0;
  double Total() const { return build_s + materialize_s + start_s; }
};

std::shared_ptr<ColGraphEngine> BuildEngine(
    const NyData& data, const std::vector<GraphQuery>& graph_workload,
    size_t graph_budget, const std::vector<GraphQuery>& agg_workload,
    size_t agg_budget, SetupTimes* times);
std::unique_ptr<Daemon> StartDaemon(std::shared_ptr<const ColGraphEngine> e,
                                    const std::string& socket_path,
                                    const std::string& data_dir,
                                    size_t compact_after, size_t workers,
                                    double* start_s);

Metric Make(const std::string& name, double value, const std::string& unit,
            uint64_t samples, const std::string& note = "");

struct Fig6 {
  NyData data;
  std::vector<GraphQuery> queries;
};

Fig6 MakeFig6(const RunConfig& config, const WorkloadParams& p);
/// Evaluates every fig6 query with and without views; returns the hash of
/// each answer, counting a disagreement as a failure.
std::vector<uint64_t> Fig6Answers(const ColGraphEngine& engine,
                                  const std::vector<GraphQuery>& queries,
                                  ErrorCount* errors);

struct Serve {
  NyData data;
  /// requests[c] is client c's fixed sequence.
  std::vector<std::vector<ServeRequest>> requests;
  std::vector<GraphQuery> graph_workload;
  std::vector<GraphQuery> agg_workload;
  std::vector<std::string> batches;
};

Serve MakeServe(const RunConfig& config, const WorkloadParams& p);
/// The body the daemon must return for `r` against `engine`, evaluated
/// serially in-process with the daemon's own renderers.
std::string SerialBody(const ColGraphEngine& engine, const ServeRequest& r);

std::string SocketPath(const RunConfig& config, int n);
std::string DataDir(const RunConfig& config, int n);
ClientOptions ClientFor(const std::string& socket_path, uint64_t seed);
/// Waits until no compaction is pending: the served snapshot has fewer
/// than `compact_after` tails. False on timeout.
bool WaitForCompaction(Daemon& daemon, size_t compact_after);

/// The traced runs (traced.cc).
void TraceFig6(const RunConfig& config, const WorkloadParams& p,
               const Fig6& f, RunResult* result);
void TraceServe(const RunConfig& config, const WorkloadParams& p,
                const Serve& s, bool ingest, RunResult* result);

}  // namespace perfbench
