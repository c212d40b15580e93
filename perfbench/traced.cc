// The traced run: every request issued layer by layer, several times, with
// the benchmark's own spans around each public call.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "columnstore/dataset.h"
#include "common.h"
#include "query/parser.h"
#include "spans.h"

namespace perfbench {
namespace {

constexpr unsigned kFig6 = 1, kRead = 2, kIngest = 4;
constexpr unsigned kServe = kRead | kIngest, kAll = kFig6 | kServe;

struct LayerMetricDef {
  const char* name;
  const char* unit;
  unsigned workloads;  ///< bit set of the workloads it applies to
  const char* note;  ///< the end-to-end metric and workload it should move
};

/// Every per-layer metric, with the end-to-end metric and workload it
/// should move.
constexpr LayerMetricDef kLayerMetrics[] = {
    {"core.build_s", "s", kAll, "setup_s on every workload"},
    {"views.materialize_s", "s", kAll, "setup_s on every workload"},
    {"server.start_s", "s", kServe, "setup_s on serve_*"},
    {"query.parse_us", "us", kServe, "match_p50_us on serve_read"},
    {"query.resolve_us", "us", kAll, "graph_p50_us on engine_fig6"},
    {"query.match_us", "us", kAll,
     "match_p50_us on serve_*, growing with tails on serve_ingest; "
     "graph_p50_us on engine_fig6 only a little"},
    {"query.fetch_us", "us", kFig6,
     "graph_p50_us and qps on engine_fig6; not match_* on serve_read"},
    {"query.agg_us", "us", kServe, "agg_p50_us on serve_*"},
    {"query.unattributed_us", "us", kAll,
     "RunGraphQuery (engine_fig6) or expression evaluation (serve_*) "
     "minus its traced children"},
    {"query.matches_per_query", "count", kAll, "count"},
    {"views.view_operand_share", "ratio", kAll, "explains query.match_us"},
    {"columnstore.bitmaps_per_query", "count", kAll,
     "cost-model counter; ROADMAP 3 must not move it"},
    {"columnstore.measure_columns_per_query", "count", kAll,
     "cost-model counter; ROADMAP 3 must not move it"},
    {"columnstore.values_per_query", "count", kAll,
     "cost-model counter; ROADMAP 3 must not move it"},
    {"columnstore.values_per_match", "ratio", kAll,
     "useful values per matched record"},
    {"server.execute_us", "us", kServe, "match_p50_us and agg_p50_us on serve_*"},
    {"server.execute_self_us", "us", kServe, "match_p50_us on serve_read"},
    {"server.render_match_us", "us", kServe, "match_p50_us on serve_*"},
    {"server.render_agg_us", "us", kServe, "agg_p50_us on serve_*"},
    {"server.response_bytes_match", "bytes", kServe, "count"},
    {"server.response_bytes_agg", "bytes", kServe, "count"},
    {"server.transport_us", "us", kServe,
     "match_p50_us on serve_read; nothing on engine_fig6"},
    {"server.attempts_per_request", "count", kServe, "count"},
    {"server.tails_per_read", "count", kServe,
     "match_* and agg_* on serve_ingest"},
    {"server.tails_per_read_max", "count", kServe,
     "match_* and agg_* on serve_ingest"},
    {"server.build_tail_us", "us", kIngest, "ingest_p50_us on serve_ingest"},
    {"columnstore.dataset_seal_us", "us", kIngest,
     "ingest_p50_us on serve_ingest"},
    {"columnstore.compact_us", "us", kIngest,
     "ingest_p90_us and agg_p99_us on serve_ingest"},
    {"server.compactions", "count", kIngest, "count"},
    {"obs.trace_overhead_pct", "%", kServe, "match_p50_us on serve_read"},
    {"obs.decode_samples_per_request", "ratio", kServe,
     "1 is correct; a ROADMAP 1(c) fix moves it"},
};

unsigned WorkloadBit(const std::string& workload) {
  if (workload == "engine_fig6") return kFig6;
  return workload == "serve_read" ? kRead : kIngest;
}

/// Per-layer values of a traced run: name -> (value, samples).
using LayerValues = std::map<std::string, std::pair<double, uint64_t>>;

void EmitLayerMetrics(const std::string& workload, const LayerValues& values,
                      RunResult* result) {
  for (const LayerMetricDef& def : kLayerMetrics) {
    Metric m = Make(def.name, 0, def.unit, 0, def.note);
    m.applies = (def.workloads & WorkloadBit(workload)) != 0;
    const auto it = values.find(def.name);
    if (m.applies && it != values.end()) {
      m.value = it->second.first;
      m.samples = it->second.second;
    } else if (m.applies) {
      Die(std::string("traced run produced no value for ") + def.name);
    }
    result->metrics.push_back(m);
  }
}

/// Mean of f(request) over the requests `select` accepts.
template <typename Select, typename F>
std::pair<double, uint64_t> MeanOver(
    const std::map<uint32_t, RequestTimes>& times, Select select, F f) {
  double sum = 0;
  uint64_t n = 0;
  for (const auto& [id, t] : times) {
    if (!select(id)) continue;
    sum += f(t);
    ++n;
  }
  return {n == 0 ? 0.0 : sum / static_cast<double>(n), n};
}

/// Checks that every parent span covers the time of its children: the
/// mean unattributed time of each parent span over the requests that have
/// it must not be negative beyond three standard errors. A parent and the
/// children it is compared with are timed in separate calls, so where the
/// parent adds almost nothing (Daemon::Execute around parse, evaluate and
/// render) single requests read a few microseconds negative from noise;
/// those are counted and reported. Writes each traced request's
/// unattributed time per parent span to `path`.
bool CheckUnattributed(const std::map<uint32_t, RequestTimes>& times,
                       const std::string& path, RunResult* result) {
  struct Moments {
    double sum = 0, sum_sq = 0;
    uint64_t n = 0, negative = 0;
  };
  std::map<std::string, Moments> per_parent;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (const auto& [id, t] : times) {
    for (const auto& [parent, children] : t.children) {
      const double self = t.Self(parent);
      Moments& m = per_parent[parent];
      m.sum += self;
      m.sum_sq += self * self;
      ++m.n;
      if (self < 0) ++m.negative;
      std::fprintf(f,
                   "{\"request\":%u,\"span\":\"%s\","
                   "\"unattributed_us\":%.3f}\n",
                   id, parent.c_str(), self);
    }
  }
  if (std::fclose(f) != 0) Die("cannot write " + path);
  bool ok = true;
  for (const auto& [parent, m] : per_parent) {
    const double n = static_cast<double>(m.n);
    const double mean = m.sum / n;
    const double variance = std::max(0.0, m.sum_sq / n - mean * mean);
    const double standard_error = std::sqrt(variance / n);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s unattributed: mean %.2f us (standard error %.2f), "
                  "%llu of %llu requests negative",
                  parent.c_str(), mean, standard_error,
                  static_cast<unsigned long long>(m.negative),
                  static_cast<unsigned long long>(m.n));
    result->notes.push_back(line);
    if (mean < -3 * standard_error) {
      ok = false;
      result->notes.push_back("FAILED: " + parent +
                              " is shorter than its children");
    }
  }
  return ok;
}

/// A "where the time goes" table: self time per request of every span
/// under `root` (transitively), and its share of the root's time.
std::string WhereTable(const std::string& title,
                       const std::map<uint32_t, RequestTimes>& times,
                       const std::function<bool(uint32_t)>& select,
                       const std::string& root) {
  // Depth-first over the parent -> children relation, parents first.
  std::vector<std::pair<std::string, int>> order;
  const std::function<void(const std::string&, int)> visit =
      [&](const std::string& name, int depth) {
        for (const auto& seen : order) {
          if (seen.first == name) return;
        }
        order.emplace_back(name, depth);
        std::set<std::string> children;
        for (const auto& [id, t] : times) {
          const auto it = t.children.find(name);
          if (select(id) && it != t.children.end()) {
            children.insert(it->second.begin(), it->second.end());
          }
        }
        for (const std::string& child : children) visit(child, depth + 1);
      };
  visit(root, 0);
  const auto root_mean =
      MeanOver(times, select, [&](const RequestTimes& t) {
        return t.Total(root);
      });
  char head[256];
  std::snprintf(head, sizeof(head),
                "#### %s (%llu requests, %.1f us per request)\n\n"
                "| span | self us | share |\n|---|---:|---:|\n",
                title.c_str(),
                static_cast<unsigned long long>(root_mean.second),
                root_mean.first);
  std::string out = head;
  for (const auto& [name, depth] : order) {
    const auto self = MeanOver(times, select, [&](const RequestTimes& t) {
      return t.Self(name);
    });
    const std::string label = std::string(2 * depth, '.') + name;
    char row[160];
    std::snprintf(row, sizeof(row), "| %s | %.1f | %.1f%% |\n", label.c_str(),
                  self.first,
                  root_mean.first > 0 ? 100.0 * self.first / root_mean.first
                                      : 0.0);
    out += row;
  }
  return out + "\n";
}

void AddCountMetrics(const Counts& c, LayerValues* values) {
  const auto per = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  (*values)["query.matches_per_query"] = {per(c.matches, c.queries), c.queries};
  (*values)["views.view_operand_share"] = {per(c.view_operands, c.operands),
                                           c.operands};
  (*values)["columnstore.bitmaps_per_query"] = {per(c.bitmaps, c.queries),
                                                c.queries};
  (*values)["columnstore.measure_columns_per_query"] = {
      per(c.measure_columns, c.queries), c.queries};
  (*values)["columnstore.values_per_query"] = {per(c.values, c.queries),
                                               c.queries};
  (*values)["columnstore.values_per_match"] = {per(c.values, c.matches),
                                               c.matches};
}

void FinishTrace(const RunConfig& config, const SpanLog& log,
                 const std::vector<Counts>& passes, RunResult* result) {
  result->counts_repeat = passes.size() == 2 && passes[0] == passes[1];
  if (!result->counts_repeat) {
    result->notes.push_back("deterministic counts differ between passes");
  }
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl";
  if (!log.WriteJsonLines(path)) Die("cannot write " + path);
  result->notes.push_back("spans written to " + path);
}

void SetupMetrics(const SetupTimes& t, LayerValues* values) {
  (*values)["core.build_s"] = {t.build_s, 1};
  (*values)["views.materialize_s"] = {t.materialize_s, 1};
  (*values)["server.start_s"] = {t.start_s, 1};
}

}  // namespace

void TraceFig6(const RunConfig& config, const WorkloadParams& p,
               const Fig6& f, RunResult* result) {
  SetupTimes setup;
  const std::shared_ptr<ColGraphEngine> engine =
      BuildEngine(f.data, f.queries, p.graph_view_budget, {}, 0, &setup);
  const std::vector<uint64_t> expected =
      Fig6Answers(*engine, f.queries, &result->errors);
  const QueryEngine qe = engine->query_engine();

  SpanLog log;
  std::vector<Counts> passes;
  for (uint32_t pass = 0; pass < 2; ++pass) {
    Counts counts;
    for (size_t qi = 0; qi < p.traced_requests; ++qi) {
      const GraphQuery& q = f.queries[qi % f.queries.size()];
      const uint32_t id = static_cast<uint32_t>(pass * p.traced_requests + qi);
      for (uint32_t rep = 0; rep < p.traced_reps; ++rep) {
        const int32_t root = log.Open("query.graph", id, rep, -1);
        const auto table = engine->RunGraphQuery(q);
        log.Close(root);

        const Counts before = StatsOf(*engine);
        QueryEngine::ResolvedQuery resolved;
        {
          const ScopedSpan span(&log, "query.resolve", id, rep, root);
          resolved = qe.Resolve(q);
        }
        MatchPlan plan;
        Bitmap matches(engine->total_records());
        if (resolved.satisfiable) {
          const ScopedSpan span(&log, "query.match", id, rep, root);
          matches = qe.MatchIds(resolved.ids, QueryOptions(), false, &plan);
        }
        MeasureTable fetched;
        if (resolved.satisfiable) {
          const ScopedSpan span(&log, "query.fetch", id, rep, root);
          fetched = qe.FetchMeasures(matches, resolved.ids);
        }
        if (rep == 0) {
          AddStatsDelta(before, StatsOf(*engine), &counts);
          AddPlan(plan, &counts);
          counts.matches += resolved.satisfiable ? matches.Count() : 0;
          ++counts.queries;
        }
        const uint64_t want = expected[qi % f.queries.size()];
        result->errors.Record(table.ok() && TableHash(*table) == want &&
                              (!resolved.satisfiable ||
                               TableHash(fetched) == want));
      }
    }
    passes.push_back(counts);
  }

  const auto times = log.PerRequest();
  const auto all = [](uint32_t) { return true; };
  LayerValues values;
  SetupMetrics(setup, &values);
  for (const char* name : {"query.resolve", "query.match", "query.fetch"}) {
    values[std::string(name) + "_us"] = MeanOver(
        times, all, [&](const RequestTimes& t) { return t.Total(name); });
  }
  values["query.unattributed_us"] = MeanOver(
      times, all, [](const RequestTimes& t) { return t.Self("query.graph"); });
  AddCountMetrics(passes[0], &values);
  EmitLayerMetrics(config.workload, values, result);

  result->unattributed_nonnegative = CheckUnattributed(
      times,
      config.out_dir + "/unattributed-" + config.workload + "-" +
          std::to_string(config.seed) + ".jsonl",
      result);
  result->where_table =
      "### engine_fig6\n\n" +
      WhereTable("graph query (ColGraphEngine::RunGraphQuery)", times, all,
                 "query.graph");
  FinishTrace(config, log, passes, result);
}

namespace {

uint64_t DecodeSampleCount(Client* client) {
  const auto response = client->Stats("registry");
  if (!response.ok() || !response->ok()) return 0;
  const std::string key = "\"server.phase.decode_us\":{\"count\":";
  const size_t at = response->body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(response->body.c_str() + at + key.size(), nullptr, 10);
}

/// Decode-phase samples the daemon records per request when every request
/// comes on its own connection, as the command-line client sends them.
double DecodeSamplesPerRequest(const std::string& socket_path,
                               const std::vector<ServeRequest>& requests,
                               size_t connections, uint64_t seed) {
  // Let the daemon see every earlier close first, and again before the
  // second count, so exactly the probe's connections fall in between.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Client stats(ClientFor(socket_path, seed));
  const uint64_t before = DecodeSampleCount(&stats);
  for (size_t i = 0; i < connections; ++i) {
    Client one(ClientFor(socket_path, seed + 1 + i));
    (void)one.Query(requests[i % requests.size()].text);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t after = DecodeSampleCount(&stats);
  return static_cast<double>(after - before) /
         static_cast<double>(connections + 1);
}

struct ServeTraceTotals {
  Counts counts;
  uint64_t attempts = 0;
  uint64_t calls = 0;
  uint64_t match_bytes = 0, match_n = 0;
  uint64_t agg_bytes = 0, agg_n = 0;
  uint64_t tails_max = 0, reads = 0;
};

/// Issues one request layer by layer `reps` times: over the wire, traced
/// over the wire, through Daemon::Execute, then parse, evaluation and
/// rendering in-process on the served snapshot. Every body must agree.
void TraceServeRequest(Daemon& daemon, Client& client, const ServeRequest& r,
                       uint32_t id, uint32_t reps, SpanLog* log,
                       ServeTraceTotals* totals, ErrorCount* errors) {
  for (uint32_t rep = 0; rep < reps; ++rep) {
    const int32_t root = log->Open("client.query", id, rep, -1);
    const auto wire = client.Query(r.text);
    log->Close(root);
    const size_t attempts = client.attempts_made();
    {
      const ScopedSpan span(log, "client.query_traced", id, rep, -1);
      (void)client.QueryTraced(r.text);
    }
    Request request;
    request.op = RequestOp::kQuery;
    request.body = r.text;
    const int32_t exec = log->Open("server.execute", id, rep, root);
    const Response executed = daemon.Execute(request);
    log->Close(exec);
    bool parsed_ok = false;
    {
      const ScopedSpan span(log, "query.parse", id, rep, exec);
      parsed_ok = colgraph::ParseQuery(r.text).ok();
    }

    uint64_t epoch = 0;
    const std::shared_ptr<const ColGraphEngine> snapshot =
        daemon.snapshots().Acquire(&epoch);
    const QueryEngine qe = snapshot->query_engine();
    const Counts before = StatsOf(*snapshot);
    MatchPlan plan;
    uint64_t matches = 0;
    std::string body;
    if (!r.is_agg) {
      const int32_t evaluate = log->Open("query.evaluate", id, rep, exec);
      Bitmap result;
      for (size_t leaf = 0; leaf < r.leaves.size(); ++leaf) {
        // AND and AND NOT skip their right side when the left is empty,
        // as QueryExpr::Evaluate does.
        if (leaf > 0 && r.combine != Combine::kOr && result.None()) break;
        QueryEngine::ResolvedQuery resolved;
        {
          const ScopedSpan span(log, "query.resolve", id, rep, evaluate);
          resolved = qe.Resolve(r.leaves[leaf]);
        }
        Bitmap m(snapshot->total_records());
        if (resolved.satisfiable) {
          const ScopedSpan span(log, "query.match", id, rep, evaluate);
          m = qe.MatchIds(resolved.ids, QueryOptions(), false,
                          rep == 0 ? &plan : nullptr);
        }
        if (leaf == 0) {
          result = std::move(m);
        } else if (r.combine == Combine::kAnd) {
          result.And(m);
        } else if (r.combine == Combine::kAndNot) {
          result.AndNot(m);
        } else {
          result.Or(m);
        }
        if (rep == 0) AddPlan(plan, &totals->counts);
        plan.sources.clear();
      }
      log->Close(evaluate);
      matches = result.Count();
      const ScopedSpan span(log, "server.render_match", id, rep, exec);
      body = colgraph::server::RenderMatchResult(result);
    } else {
      colgraph::StatusOr<PathAggResult> agg = PathAggResult();
      {
        const ScopedSpan span(log, "query.agg", id, rep, exec);
        agg = snapshot->RunAggregateQuery(r.agg_query, r.fn);
      }
      if (agg.ok()) {
        matches = agg->records.size();
        const ScopedSpan span(log, "server.render_agg", id, rep, exec);
        body = colgraph::server::RenderAggResult(*agg, r.fn);
      }
    }
    const Counts after = StatsOf(*snapshot);
    errors->Record(parsed_ok && wire.ok() && wire->ok() &&
                   wire->snapshot_epoch == epoch && wire->body == body &&
                   executed.ok() && executed.body == body);
    if (rep > 0) continue;
    AddStatsDelta(before, after, &totals->counts);
    totals->counts.matches += matches;
    ++totals->counts.queries;
    totals->attempts += attempts;
    ++totals->calls;
    (r.is_agg ? totals->agg_bytes : totals->match_bytes) += body.size();
    ++(r.is_agg ? totals->agg_n : totals->match_n);
    const uint64_t tails = snapshot->tails().size();
    totals->counts.tails += tails;
    totals->tails_max = std::max(totals->tails_max, tails);
    ++totals->reads;
  }
}

/// The traced requests: the clients' sequences interleaved.
std::vector<const ServeRequest*> TracedRequests(const Serve& s, size_t n) {
  std::vector<const ServeRequest*> out;
  for (size_t i = 0; out.size() < n; ++i) {
    const auto& sequence = s.requests[i % s.requests.size()];
    out.push_back(&sequence[(i / s.requests.size()) % sequence.size()]);
  }
  return out;
}

}  // namespace

void TraceServe(const RunConfig& config, const WorkloadParams& p,
                const Serve& s, bool ingest, RunResult* result) {
  std::filesystem::create_directories(config.out_dir);
  SetupTimes setup;
  const std::shared_ptr<const ColGraphEngine> engine =
      BuildEngine(s.data, s.graph_workload, p.graph_view_budget,
                  s.agg_workload, p.agg_view_budget, &setup);

  SpanLog log;
  std::vector<Counts> passes;
  ServeTraceTotals first;
  double decode_ratio = 0;
  uint64_t compactions = 0;
  const size_t reads_per_pass = ingest
                                    ? p.traced_batches * p.traced_reads_per_batch
                                    : p.traced_requests;
  const std::vector<const ServeRequest*> traced =
      TracedRequests(s, reads_per_pass);
  for (uint32_t pass = 0; pass < 2; ++pass) {
    // serve_ingest starts each pass from a fresh daemon and store, so both
    // passes see the same sequence of states.
    const int n = static_cast<int>(pass) + 1;
    const std::string data_dir = ingest ? DataDir(config, n) : "";
    const std::string shadow_dir = ingest ? DataDir(config, n + 10) : "";
    if (ingest) {
      std::filesystem::remove_all(data_dir);
      std::filesystem::remove_all(shadow_dir);
    }
    double start_s = 0;
    const std::string socket_path = SocketPath(config, n);
    std::unique_ptr<Daemon> daemon =
        StartDaemon(engine, socket_path, data_dir, p.compact_after,
                    p.clients + 2, &start_s);
    if (pass == 0) setup.start_s = start_s;
    Client client(ClientFor(socket_path, SubSeed(config.seed, 200 + pass)));
    ServeTraceTotals totals;
    const uint32_t base = pass * 1000000;
    if (!ingest) {
      for (size_t i = 0; i < traced.size(); ++i) {
        TraceServeRequest(*daemon, client, *traced[i],
                          base + static_cast<uint32_t>(i),
                          static_cast<uint32_t>(p.traced_reps), &log, &totals,
                          &result->errors);
      }
    } else {
      Client writer(ClientFor(socket_path, SubSeed(config.seed, 300 + pass)));
      colgraph::DatasetStore shadow = OrDie(
          colgraph::DatasetStore::Open(shadow_dir), "open shadow store");
      size_t next_read = 0;
      uint64_t ingested = 0;
      for (size_t b = 0; b < p.traced_batches; ++b) {
        const uint32_t ingest_id = base + 900000 + static_cast<uint32_t>(b);
        const std::string& batch = s.batches[b % s.batches.size()];
        colgraph::StatusOr<Response> response = Response();
        {
          const ScopedSpan span(&log, "client.ingest", ingest_id, 0, -1);
          response = writer.Ingest(batch);
        }
        const bool ok = response.ok() && response->ok();
        result->errors.Record(ok);
        ingested += ok ? 1 : 0;
        result->errors.Record(WaitForCompaction(*daemon, p.compact_after));

        // The ingest's storage layers, out of band on a copy of the
        // served state and a shadow store.
        const auto served = daemon->snapshots().Acquire();
        const std::vector<GraphRecord> records = BatchRecords(batch);
        int32_t span = log.Open("server.build_tail", ingest_id, 0, -1);
        ColGraphEngine next = served->SharedCopy();
        MasterRelation tail =
            OrDie(next.BuildTailRelation(records), "BuildTailRelation");
        log.Close(span);
        span = log.Open("columnstore.dataset_seal", ingest_id, 0, -1);
        const auto sealed = shadow.Seal(tail);
        log.Close(span);
        result->errors.Record(sealed.ok());
        span = log.Open("server.build_tail", ingest_id, 0, -1);
        const colgraph::Status attached = next.AttachDataset(
            std::make_shared<const MasterRelation>(std::move(tail)));
        log.Close(span);
        result->errors.Record(attached.ok());
        if (shadow.num_datasets() >= p.compact_after) {
          span = log.Open("columnstore.compact", ingest_id, 0, -1);
          const colgraph::Status compacted = shadow.CompactAll();
          log.Close(span);
          result->errors.Record(compacted.ok());
        }

        for (size_t k = 0; k < p.traced_reads_per_batch; ++k, ++next_read) {
          TraceServeRequest(*daemon, client, *traced[next_read],
                            base + static_cast<uint32_t>(next_read),
                            static_cast<uint32_t>(p.traced_reps), &log,
                            &totals, &result->errors);
        }
      }
      if (pass == 0) compactions = daemon->snapshot_epoch() - ingested;
    }
    if (pass == 0) {
      decode_ratio = DecodeSamplesPerRequest(
          socket_path, s.requests[0], p.decode_probe_connections,
          SubSeed(config.seed, 400));
      first = totals;
    }
    passes.push_back(totals.counts);
    OrDie(daemon->Drain(), "drain");
    daemon.reset();
    if (ingest) {
      std::filesystem::remove_all(data_dir);
      std::filesystem::remove_all(shadow_dir);
    }
  }

  const auto times = log.PerRequest();
  const auto reads = [&](uint32_t id) {
    return times.at(id).total_us.count("client.query") > 0;
  };
  const auto matches = [&](uint32_t id) {
    return reads(id) && times.at(id).total_us.count("server.render_match") > 0;
  };
  const auto aggs = [&](uint32_t id) {
    return reads(id) && times.at(id).total_us.count("server.render_agg") > 0;
  };
  const auto ingests = [&](uint32_t id) {
    return times.at(id).total_us.count("client.ingest") > 0;
  };
  const auto compacts = [&](uint32_t id) {
    return times.at(id).total_us.count("columnstore.compact") > 0;
  };
  const auto total = [](const char* name) {
    return [name](const RequestTimes& t) { return t.Total(name); };
  };
  const auto self = [](const char* name) {
    return [name](const RequestTimes& t) { return t.Self(name); };
  };
  LayerValues values;
  SetupMetrics(setup, &values);
  values["query.parse_us"] = MeanOver(times, reads, total("query.parse"));
  values["query.resolve_us"] = MeanOver(times, matches, total("query.resolve"));
  values["query.match_us"] = MeanOver(times, matches, total("query.match"));
  values["query.agg_us"] = MeanOver(times, aggs, total("query.agg"));
  values["query.unattributed_us"] =
      MeanOver(times, matches, self("query.evaluate"));
  values["server.execute_us"] = MeanOver(times, reads, total("server.execute"));
  values["server.execute_self_us"] =
      MeanOver(times, reads, self("server.execute"));
  values["server.render_match_us"] =
      MeanOver(times, matches, total("server.render_match"));
  values["server.render_agg_us"] =
      MeanOver(times, aggs, total("server.render_agg"));
  values["server.transport_us"] = MeanOver(times, reads, self("client.query"));
  const auto wire = MeanOver(times, reads, total("client.query"));
  const auto traced_wire = MeanOver(times, reads, total("client.query_traced"));
  values["obs.trace_overhead_pct"] = {
      wire.first > 0 ? 100.0 * (traced_wire.first - wire.first) / wire.first
                     : 0.0,
      wire.second};
  values["obs.decode_samples_per_request"] = {decode_ratio,
                                              p.decode_probe_connections + 1};
  const auto per = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  values["server.response_bytes_match"] = {per(first.match_bytes, first.match_n),
                                           first.match_n};
  values["server.response_bytes_agg"] = {per(first.agg_bytes, first.agg_n),
                                         first.agg_n};
  values["server.attempts_per_request"] = {per(first.attempts, first.calls),
                                           first.calls};
  values["server.tails_per_read"] = {per(first.counts.tails, first.reads),
                                     first.reads};
  values["server.tails_per_read_max"] = {static_cast<double>(first.tails_max),
                                         first.reads};
  if (ingest) {
    values["server.build_tail_us"] =
        MeanOver(times, ingests, total("server.build_tail"));
    values["columnstore.dataset_seal_us"] =
        MeanOver(times, ingests, total("columnstore.dataset_seal"));
    values["columnstore.compact_us"] =
        MeanOver(times, compacts, total("columnstore.compact"));
    values["server.compactions"] = {static_cast<double>(compactions),
                                    p.traced_batches};
  }
  AddCountMetrics(first.counts, &values);
  EmitLayerMetrics(config.workload, values, result);

  result->unattributed_nonnegative = CheckUnattributed(
      times,
      config.out_dir + "/unattributed-" + config.workload + "-" +
          std::to_string(config.seed) + ".jsonl",
      result);
  result->where_table =
      "### " + config.workload + "\n\n" +
      WhereTable("match request (Client::Query)", times, matches,
                 "client.query") +
      WhereTable("path aggregate (Client::Query)", times, aggs,
                 "client.query");
  if (ingest) {
    char table[512];
    std::snprintf(
        table, sizeof(table),
        "#### ingest, 100-walk batch (%llu batches)\n\n"
        "| span | us |\n|---|---:|\n"
        "| client.ingest (Client::Ingest, incl. waits for compaction) | %.1f |\n"
        "| server.build_tail (SharedCopy + BuildTailRelation + "
        "AttachDataset) | %.1f |\n"
        "| columnstore.dataset_seal (DatasetStore::Seal) | %.1f |\n"
        "| columnstore.compact (DatasetStore::CompactAll, per compaction) "
        "| %.1f |\n\n",
        static_cast<unsigned long long>(
            MeanOver(times, ingests, total("client.ingest")).second),
        MeanOver(times, ingests, total("client.ingest")).first,
        values["server.build_tail_us"].first,
        values["columnstore.dataset_seal_us"].first,
        values["columnstore.compact_us"].first);
    result->where_table += table;
  }
  FinishTrace(config, log, passes, result);
}

}  // namespace perfbench
