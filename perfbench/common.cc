#include "common.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "graph/flatten.h"
#include "query/parser.h"
#include "workload/base_graphs.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"
#include "workload/trace_loader.h"

namespace perfbench {

/// The NY stand-in of the fig6 harness: a 120x120 road grid, a 1000-edge
/// universe, records of 35..100 edges skewed to the paper's average of 85.
constexpr size_t kGridSide = 120;
constexpr size_t kUniverseEdges = 1000;
constexpr size_t kRecordMinEdges = 35;
constexpr size_t kRecordMaxEdges = 100;
constexpr size_t kRecordSizeDraws = 3;
/// The universe is one fixed network, as the paper's NY dataset is; the
/// workload seed draws the records, queries and batches over it.
constexpr uint64_t kUniverseSeed = 606;

WorkloadParams ParamsFor(const std::string& workload) {
  WorkloadParams p;
  if (workload == "engine_fig6") {
    p.records = 200000;
    p.setup_reps = 3;
    p.fig6_queries = 1000;
    p.traced_requests = 1000;
    return p;
  }
  p.records = 50000;
  p.setup_reps = 5;
  p.clients = 2;
  p.requests_per_client = 2500;
  p.traced_requests = 300;
  p.decode_probe_connections = 50;
  if (workload == "serve_ingest") {
    p.batch_walks = 100;
    p.distinct_batches = 200;
    p.reads_per_batch = 300;
    p.compact_after = 4;
    p.traced_requests = 0;
    p.traced_batches = 8;
    p.traced_reads_per_batch = 40;
  }
  return p;
}

std::vector<std::pair<std::string, std::string>> DescribeParams(
    const RunConfig& config, const WorkloadParams& p) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&](const std::string& key, auto value) {
    std::ostringstream s;
    s << value;
    out.emplace_back(key, s.str());
  };
  add("workload", config.workload);
  add("seed", config.seed);
  add("seconds", config.seconds);
  add("trace", config.trace ? 1 : 0);
  add("records", p.records);
  add("grid_side", kGridSide);
  add("universe_edges", kUniverseEdges);
  add("universe_seed", kUniverseSeed);
  add("record_edges", std::to_string(kRecordMinEdges) + ".." +
                          std::to_string(kRecordMaxEdges));
  add("record_size_draws", kRecordSizeDraws);
  add("setup_reps", p.setup_reps);
  add("path_edges", std::to_string(p.path_min_edges) + ".." +
                        std::to_string(p.path_max_edges));
  add("graph_view_budget", p.graph_view_budget);
  if (p.fig6_queries > 0) {
    add("fig6_queries", p.fig6_queries);
    add("callers", 1);
  }
  if (p.clients > 0) {
    add("clients", p.clients);
    add("requests_per_client", p.requests_per_client);
    add("mix_pct_path", p.pct_path);
    add("mix_pct_and", p.pct_and);
    add("mix_pct_and_not", p.pct_and_not);
    add("mix_pct_or", p.pct_or);
    add("mix_pct_plus", p.pct_plus);
    add("mix_pct_sum", p.pct_sum);
    add("mix_pct_max", p.pct_max);
    add("agg_path_edges", std::to_string(p.agg_min_edges) + ".." +
                              std::to_string(p.agg_max_edges));
    add("agg_view_budget", p.agg_view_budget);
    add("view_workload_queries", p.view_workload_queries);
    add("warmup_seconds", p.warmup_seconds);
  }
  if (p.batch_walks > 0) {
    add("batch_walks", p.batch_walks);
    add("distinct_batches", p.distinct_batches);
    add("reads_per_batch", p.reads_per_batch);
    add("compact_after_datasets", p.compact_after);
  }
  if (config.trace) {
    add("traced_requests", p.traced_requests);
    add("traced_reps", p.traced_reps);
    if (p.traced_batches > 0) {
      add("traced_batches", p.traced_batches);
      add("traced_reads_per_batch", p.traced_reads_per_batch);
    }
  }
  return out;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "colbench: %s\n", what.c_str());
  std::exit(2);
}

void OrDie(const colgraph::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MicrosSince(double start_s) { return (NowSeconds() - start_s) * 1e6; }

/// splitmix64: independent sub-seeds from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AppendBytes(std::string* buffer, const void* data, size_t bytes) {
  buffer->append(static_cast<const char*>(data), bytes);
}

uint64_t TableHash(const MeasureTable& table) {
  std::string buffer;
  AppendBytes(&buffer, table.records.data(),
              table.records.size() * sizeof(table.records[0]));
  AppendBytes(&buffer, table.edges.data(),
              table.edges.size() * sizeof(table.edges[0]));
  for (const auto& column : table.columns) {
    AppendBytes(&buffer, column.data(), column.size() * sizeof(double));
  }
  return BodyHash(buffer);
}

/// FetchStats summed over a snapshot's primary relation and its tails.
Counts StatsOf(const ColGraphEngine& engine) {
  Counts c;
  const auto add = [&](const FetchStats& s) {
    c.bitmaps += s.bitmap_columns_fetched.load();
    c.measure_columns += s.measure_columns_fetched.load();
    c.values += s.values_fetched.load();
  };
  add(engine.stats());
  for (const auto& tail : engine.tails()) add(tail->stats());
  return c;
}

void AddStatsDelta(const Counts& before, const Counts& after, Counts* into) {
  into->bitmaps += after.bitmaps - before.bitmaps;
  into->measure_columns += after.measure_columns - before.measure_columns;
  into->values += after.values - before.values;
}

void AddPlan(const MatchPlan& plan, Counts* into) {
  for (const BitmapSource& s : plan.sources) {
    ++into->operands;
    if (s.kind != BitmapSource::Kind::kEdge) ++into->view_operands;
  }
}

NyData MakeNyData(size_t num_records, uint64_t seed) {
  NyData data;
  const DirectedGraph base = colgraph::MakeRoadNetwork(kGridSide, kGridSide);
  data.universe =
      OrDie(colgraph::SelectEdgeUniverse(base, kUniverseEdges, kUniverseSeed),
            "universe selection");
  colgraph::RecordGenOptions options;
  options.min_edges = kRecordMinEdges;
  options.max_edges = kRecordMaxEdges;
  options.size_draws = kRecordSizeDraws;
  colgraph::WalkRecordGenerator generator(&data.universe, options,
                                          SubSeed(seed, 2));
  data.records.reserve(num_records);
  data.trunks.reserve(num_records);
  for (size_t i = 0; i < num_records; ++i) {
    std::vector<NodeRef> trunk;
    data.records.push_back(generator.Next(&trunk));
    data.trunks.push_back(std::move(trunk));
  }
  return data;
}

std::string PathText(const std::vector<NodeRef>& nodes) {
  std::string out = "[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ",";
    out += nodes[i].ToString();
  }
  return out + "]";
}

/// A uniformly placed subpath of `min..max` edges of a record trunk.
std::vector<NodeRef> SubPath(const std::vector<NodeRef>& trunk, size_t min,
                             size_t max, Rng* rng) {
  const size_t edges = trunk.size() - 1;
  const size_t len = std::min<size_t>(rng->Uniform(min, max), edges);
  const size_t start = rng->Uniform(0, edges - len);
  return {trunk.begin() + static_cast<std::ptrdiff_t>(start),
          trunk.begin() + static_cast<std::ptrdiff_t>(start + len + 1)};
}

GraphQuery ParseLeaf(const std::string& text) {
  const colgraph::ParsedQuery parsed =
      OrDie(colgraph::ParseQuery(text), "parse generated query");
  if (parsed.kind != colgraph::ParsedQuery::Kind::kMatch ||
      parsed.expr->op() != colgraph::QueryExpr::Op::kLeaf) {
    Die("generated leaf is not a single graph: " + text);
  }
  return parsed.expr->query();
}

ServeRequest MakeServeRequest(const NyData& data, const WorkloadParams& p,
                              Rng* rng) {
  const auto trunk = [&]() -> const std::vector<NodeRef>& {
    return data.trunks[rng->Uniform(0, data.trunks.size() - 1)];
  };
  ServeRequest r;
  const size_t u = rng->Uniform(0, 99);
  size_t edge = p.pct_path;
  if (u < edge) {
    r.text = PathText(SubPath(trunk(), p.path_min_edges, p.path_max_edges,
                              rng));
    r.leaves.push_back(ParseLeaf(r.text));
    return r;
  }
  const size_t agg_start =
      p.pct_path + p.pct_and + p.pct_and_not + p.pct_or + p.pct_plus;
  if (u < agg_start) {
    const std::vector<NodeRef>& t = trunk();
    const std::string a =
        PathText(SubPath(t, p.path_min_edges, p.path_max_edges, rng));
    std::string b;
    std::string op;
    if (u < (edge += p.pct_and)) {
      r.combine = Combine::kAnd;
      op = " AND ";
      b = PathText(SubPath(t, p.path_min_edges, p.path_max_edges, rng));
    } else if (u < (edge += p.pct_and_not)) {
      r.combine = Combine::kAndNot;
      op = " AND NOT ";
      b = PathText(
          SubPath(trunk(), p.path_min_edges, p.path_max_edges, rng));
    } else if (u < (edge += p.pct_or)) {
      r.combine = Combine::kOr;
      op = " OR ";
      b = PathText(
          SubPath(trunk(), p.path_min_edges, p.path_max_edges, rng));
    } else {
      // '+' unions two paths of one trunk into one query graph.
      b = PathText(SubPath(t, p.path_min_edges, p.path_max_edges, rng));
      r.text = a + "+" + b;
      r.leaves.push_back(ParseLeaf(r.text));
      return r;
    }
    r.text = a + op + b;
    r.leaves.push_back(ParseLeaf(a));
    r.leaves.push_back(ParseLeaf(b));
    return r;
  }
  r.is_agg = true;
  r.fn = u < agg_start + p.pct_sum ? AggFn::kSum : AggFn::kMax;
  const std::string path =
      PathText(SubPath(trunk(), p.agg_min_edges, p.agg_max_edges, rng));
  r.text = std::string(colgraph::AggFnName(r.fn)) + " " + path;
  r.agg_query = ParseLeaf(path);
  return r;
}

/// A batch of `walks` trace lines: record trunks with integer measures.
std::string MakeTraceBatch(const NyData& data, size_t walks, Rng* rng) {
  std::string out;
  for (size_t w = 0; w < walks; ++w) {
    const std::vector<NodeRef>& trunk =
        data.trunks[rng->Uniform(0, data.trunks.size() - 1)];
    for (size_t i = 0; i < trunk.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(trunk[i].base);
    }
    out += " |";
    for (size_t i = 1; i < trunk.size(); ++i) {
      out += ' ';
      out += std::to_string(rng->Uniform(1, 100));
    }
    out += '\n';
  }
  return out;
}

/// The records the daemon builds from a trace batch (same conversion).
std::vector<GraphRecord> BatchRecords(const std::string& text) {
  std::istringstream in(text);
  const auto traces = OrDie(colgraph::ParseTraces(in), "parse trace batch");
  std::vector<GraphRecord> records;
  for (const colgraph::WalkTrace& trace : traces) {
    GraphRecord record;
    record.elements = colgraph::WalkToEdges(trace.walk);
    record.measures = trace.measures;
    records.push_back(std::move(record));
  }
  return records;
}

std::shared_ptr<ColGraphEngine> BuildEngine(
    const NyData& data, const std::vector<GraphQuery>& graph_workload,
    size_t graph_budget, const std::vector<GraphQuery>& agg_workload,
    size_t agg_budget, SetupTimes* times) {
  auto engine = std::make_shared<ColGraphEngine>();
  double start = NowSeconds();
  for (const GraphRecord& record : data.records) {
    OrDie(engine->AddRecord(record), "AddRecord");
  }
  OrDie(engine->Seal(), "Seal");
  times->build_s = NowSeconds() - start;
  start = NowSeconds();
  OrDie(engine->SelectAndMaterializeGraphViews(graph_workload, graph_budget),
        "graph view selection");
  if (!agg_workload.empty()) {
    OrDie(engine->SelectAndMaterializeAggViews(agg_workload, AggFn::kSum,
                                               agg_budget),
          "aggregate view selection");
  }
  times->materialize_s = NowSeconds() - start;
  return engine;
}

std::unique_ptr<Daemon> StartDaemon(std::shared_ptr<const ColGraphEngine> e,
                                    const std::string& socket_path,
                                    const std::string& data_dir,
                                    size_t compact_after, size_t workers,
                                    double* start_s) {
  DaemonOptions options;
  options.socket_path = socket_path;
  options.num_workers = workers;
  options.data_dir = data_dir;
  options.compact_after_datasets = compact_after;
  const double start = NowSeconds();
  auto daemon = OrDie(Daemon::Start(std::move(e), options), "Daemon::Start");
  *start_s = NowSeconds() - start;
  return daemon;
}

Metric Make(const std::string& name, double value, const std::string& unit,
            uint64_t samples, const std::string& note) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.samples = samples;
  m.note = note;
  return m;
}

Fig6 MakeFig6(const RunConfig& config, const WorkloadParams& p) {
  Fig6 f;
  f.data = MakeNyData(p.records, config.seed);
  colgraph::QueryGenerator qgen(&f.data.trunks, &f.data.universe,
                                SubSeed(config.seed, 3));
  colgraph::QueryGenOptions options;
  options.min_edges = p.path_min_edges;
  options.max_edges = p.path_max_edges;
  f.queries = qgen.UniformWorkload(p.fig6_queries, options);
  return f;
}

/// Evaluates every fig6 query with and without views; returns the hash of
/// each answer, counting a disagreement as a failure.
std::vector<uint64_t> Fig6Answers(const ColGraphEngine& engine,
                                  const std::vector<GraphQuery>& queries,
                                  ErrorCount* errors) {
  std::vector<uint64_t> hashes;
  QueryOptions no_views;
  no_views.use_views = false;
  for (const GraphQuery& q : queries) {
    const auto with = engine.RunGraphQuery(q);
    const auto without = engine.RunGraphQuery(q, no_views);
    const bool ok = with.ok() && without.ok() &&
                    TableHash(*with) == TableHash(*without) &&
                    with->records == without->records;
    errors->Record(ok);
    hashes.push_back(ok ? TableHash(*with) : 0);
  }
  return hashes;
}

Serve MakeServe(const RunConfig& config, const WorkloadParams& p) {
  Serve s;
  s.data = MakeNyData(p.records, config.seed);
  Rng rng(SubSeed(config.seed, 4));
  s.requests.resize(p.clients);
  for (auto& sequence : s.requests) {
    for (size_t i = 0; i < p.requests_per_client; ++i) {
      sequence.push_back(MakeServeRequest(s.data, p, &rng));
      const ServeRequest& r = sequence.back();
      if (r.is_agg) {
        if (r.fn == AggFn::kSum &&
            s.agg_workload.size() < p.view_workload_queries) {
          s.agg_workload.push_back(r.agg_query);
        }
      } else {
        for (const GraphQuery& leaf : r.leaves) {
          if (s.graph_workload.size() < p.view_workload_queries) {
            s.graph_workload.push_back(leaf);
          }
        }
      }
    }
  }
  Rng batch_rng(SubSeed(config.seed, 5));
  for (size_t b = 0; b < p.distinct_batches; ++b) {
    s.batches.push_back(MakeTraceBatch(s.data, p.batch_walks, &batch_rng));
  }
  return s;
}

/// The body the daemon must return for `r` against `engine`, evaluated
/// serially in-process with the daemon's own renderers.
std::string SerialBody(const ColGraphEngine& engine, const ServeRequest& r) {
  const colgraph::ParsedQuery parsed =
      OrDie(colgraph::ParseQuery(r.text), "parse request");
  if (parsed.kind == colgraph::ParsedQuery::Kind::kMatch) {
    return colgraph::server::RenderMatchResult(
        parsed.expr->Evaluate(engine.query_engine()));
  }
  const auto agg = engine.RunAggregateQuery(parsed.query, parsed.fn);
  if (!agg.ok()) return "error: " + agg.status().ToString();
  return colgraph::server::RenderAggResult(*agg, parsed.fn);
}

std::string SocketPath(const RunConfig& config, int n) {
  return config.out_dir + "/cb-" + std::to_string(::getpid()) + "-" +
         std::to_string(n) + ".sock";
}

std::string DataDir(const RunConfig& config, int n) {
  return config.out_dir + "/data-" + std::to_string(::getpid()) + "-" +
         std::to_string(n);
}

ClientOptions ClientFor(const std::string& socket_path, uint64_t seed) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.jitter_seed = seed;
  return options;
}

/// Waits until no compaction is pending: the served snapshot has fewer
/// than `compact_after` tails. False on timeout.
bool WaitForCompaction(Daemon& daemon, size_t compact_after) {
  if (compact_after == 0) return true;
  const double deadline = NowSeconds() + 60;
  while (NowSeconds() < deadline) {
    if (daemon.snapshots().Acquire()->tails().size() < compact_after) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace perfbench
