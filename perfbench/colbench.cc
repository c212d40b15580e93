// colbench: runs one benchmark workload and writes its metrics.
//
//   colbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --out <dir>
//
// Prints a human-readable summary on stdout and writes the full result
// (every metric with unit, sample count and notes, plus every workload
// parameter) to <dir>/result-<workload>-<seed>-<trace>.json, which
// perfbench/run.py turns into the benchmark's one-line JSON verdict.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "colbench: %s\nusage: colbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    Usage("unknown workload");
  }
  if (config.seconds <= 0) Usage("--seconds must be positive");
  if (config.out_dir.empty()) Usage("--out is required");
  return config;
}

std::string ResultJson(const RunConfig& config, const RunResult& result) {
  colgraph::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(config.workload);
  w.Key("trace");
  w.Bool(config.trace);
  w.Key("attempted");
  w.Uint(result.errors.attempted);
  w.Key("failed");
  w.Uint(result.errors.failed);
  w.Key("counts_repeat");
  w.Bool(result.counts_repeat);
  w.Key("unattributed_nonnegative");
  w.Bool(result.unattributed_nonnegative);
  w.Key("params");
  w.BeginObject();
  for (const auto& [key, value] : result.params) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : result.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    char value[64];  // every digit: %.17g round-trips the double
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    w.Raw(value);
    w.Key("unit");
    w.String(m.unit);
    w.Key("samples");
    w.Uint(m.samples);
    w.Key("applies");
    w.Bool(m.applies);
    w.Key("note");
    w.String(m.note);
    w.EndObject();
  }
  w.EndObject();
  w.Key("notes");
  w.BeginArray();
  for (const std::string& note : result.notes) w.String(note);
  w.EndArray();
  w.Key("where_table");
  w.String(result.where_table);
  w.EndObject();
  return w.str();
}

void PrintSummary(const RunConfig& config, const RunResult& result) {
  std::printf("colbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const Metric& m : result.metrics) {
    if (!m.applies) continue;
    std::printf("  %-36s %14.6g %-6s n=%-8llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
  }
  std::printf("  %llu failed of %llu attempted\n",
              static_cast<unsigned long long>(result.errors.failed),
              static_cast<unsigned long long>(result.errors.attempted));
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  if (!result.where_table.empty()) {
    std::printf("\n%s\n", result.where_table.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig config = ParseArgs(argc, argv);
  const RunResult result = RunWorkload(config);
  for (const Metric& m : result.metrics) {
    if (!ValidMetricName(m.name)) {
      std::fprintf(stderr, "colbench: invalid metric name %s\n", m.name.c_str());
      return 2;
    }
  }
  PrintSummary(config, result);
  std::filesystem::create_directories(config.out_dir);
  const std::string path = config.out_dir + "/result-" + config.workload +
                           "-" + std::to_string(config.seed) + "-" +
                           (config.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << ResultJson(config, result) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "colbench: cannot write %s\n", path.c_str());
    return 2;
  }
  return 0;
}
