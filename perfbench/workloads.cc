#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// Adds the median and the highest supported percentile of a latency
/// series (microseconds) as `<prefix>_p50_us` and `<prefix>_<hi>_us`.
void AddLatency(std::vector<double> us, const std::string& prefix,
                const std::string& high_name, double high_pct,
                RunResult* result) {
  std::sort(us.begin(), us.end());
  result->metrics.push_back(Make(prefix + "_p50_us",
                                 PercentileOfSorted(us, 50.0), "us",
                                 us.size()));
  Metric high = Make(high_name, PercentileOfSorted(us, high_pct), "us",
                     us.size());
  const double supported = HighestSupportedPercentile(us.size());
  if (supported < high_pct) {
    high.note = std::string("p") +
                std::to_string(static_cast<int>(high_pct)) + " has only " +
                std::to_string(SamplesBeyond(us.size(), high_pct)) +
                " samples beyond it";
  }
  result->metrics.push_back(high);
}

/// Completed requests per second of the measured phase.
void AddQps(size_t completed, double seconds, RunResult* result) {
  result->metrics.push_back(Make(
      "qps", static_cast<double>(completed) / seconds, "1/s", completed));
}

double MedianSetup(const std::vector<SetupTimes>& runs) {
  std::vector<double> totals;
  for (const SetupTimes& t : runs) totals.push_back(t.Total());
  return Median(totals);
}

// ---------------------------------------------------------------------------
// engine_fig6.

void RunFig6(const RunConfig& config, const WorkloadParams& p,
             RunResult* result) {
  const Fig6 f = MakeFig6(config, p);
  if (config.trace) {
    TraceFig6(config, p, f, result);
    return;
  }
  std::vector<SetupTimes> setups;
  std::shared_ptr<ColGraphEngine> engine;
  for (size_t rep = 0; rep < p.setup_reps; ++rep) {
    engine.reset();
    SetupTimes t;
    engine = BuildEngine(f.data, f.queries, p.graph_view_budget, {}, 0, &t);
    setups.push_back(t);
  }
  result->metrics.push_back(
      Make("setup_s", MedianSetup(setups), "s", setups.size()));

  const std::vector<uint64_t> expected =
      Fig6Answers(*engine, f.queries, &result->errors);

  std::vector<double> latency;
  latency.reserve(1 << 16);
  const Counts work_before = StatsOf(*engine);
  const double start = NowSeconds();
  const double deadline = start + config.seconds;
  size_t i = 0;
  double now = start;
  while (now < deadline) {
    const size_t q = i++ % f.queries.size();
    const double t0 = NowSeconds();
    const auto table = engine->RunGraphQuery(f.queries[q]);
    now = NowSeconds();
    latency.push_back((now - t0) * 1e6);
    result->errors.Record(table.ok() && TableHash(*table) == expected[q]);
  }
  AddQps(latency.size(), now - start, result);
  AddLatency(latency, "graph", "graph_p99_us", 99.0, result);
  Counts work;
  AddStatsDelta(work_before, StatsOf(*engine), &work);
  result->notes.push_back(
      "values fetched per query: " +
      std::to_string(static_cast<double>(work.values) /
                     static_cast<double>(latency.size())));
}

// ---------------------------------------------------------------------------
// serve_read / serve_ingest.

struct ReadSample {
  uint32_t request = 0;
  uint32_t epoch = 0;
  float latency_us = 0;
  Observed observed;
};

/// Threads that re-evaluate reads after the measured phase.
constexpr size_t kVerifyThreads = 4;

struct Ingested {
  uint64_t epoch = 0;
  size_t batch = 0;
};

/// Verifies every read against a serial evaluation on the state of its
/// epoch. Epochs are rebuilt in order from the initial engine: an ingest
/// epoch attaches its batch as a tail, any other epoch is the daemon's
/// background compaction of the epoch before it.
void VerifyReads(const Serve& s, std::shared_ptr<const ColGraphEngine> initial,
                 const std::vector<std::vector<ReadSample>>& samples,
                 const std::vector<Ingested>& ingests, uint64_t final_epoch,
                 colgraph::ThreadPool* pool, ErrorCount* errors) {
  std::vector<std::vector<std::pair<size_t, const ReadSample*>>> by_epoch(
      final_epoch + 1);
  for (size_t c = 0; c < samples.size(); ++c) {
    for (const ReadSample& r : samples[c]) {
      if (r.epoch > final_epoch) {
        errors->Record(false);
        continue;
      }
      by_epoch[r.epoch].emplace_back(c, &r);
    }
  }
  std::map<uint64_t, size_t> batch_of;
  for (const Ingested& in : ingests) batch_of[in.epoch] = in.batch;

  std::shared_ptr<const ColGraphEngine> state = std::move(initial);
  for (uint64_t epoch = 0; epoch <= final_epoch; ++epoch) {
    if (epoch > 0) {
      ColGraphEngine next = state->SharedCopy();
      const auto it = batch_of.find(epoch);
      if (it != batch_of.end()) {
        MasterRelation tail =
            OrDie(next.BuildTailRelation(BatchRecords(s.batches[it->second])),
                  "rebuild tail");
        OrDie(next.AttachDataset(
                  std::make_shared<const MasterRelation>(std::move(tail))),
              "rebuild attach");
      } else {
        OrDie(next.Compact(), "rebuild compaction");
      }
      state = std::make_shared<const ColGraphEngine>(std::move(next));
    }
    // Expected bodies of the distinct requests read at this epoch,
    // evaluated in parallel on the (immutable) state.
    std::unordered_map<uint64_t, uint64_t> expected;  // request id -> hash
    for (const auto& [client, sample] : by_epoch[epoch]) {
      expected.emplace((uint64_t{client} << 32) | sample->request, 0);
    }
    std::vector<std::pair<const uint64_t, uint64_t>*> slots;
    for (auto& slot : expected) slots.push_back(&slot);
    OrDie(pool->ParallelFor(0, slots.size(), 1,
                            [&](size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                const uint64_t id = slots[i]->first;
                                const ServeRequest& r =
                                    s.requests[id >> 32][id & 0xffffffffu];
                                slots[i]->second =
                                    BodyHash(SerialBody(*state, r));
                              }
                              return colgraph::Status::OK();
                            }),
          "verification");
    for (const auto& [client, sample] : by_epoch[epoch]) {
      const uint64_t id = (uint64_t{client} << 32) | sample->request;
      errors->Record(ObservationCorrect(sample->observed, expected.at(id)));
    }
  }
}

void RunServe(const RunConfig& config, const WorkloadParams& p,
              bool ingest, RunResult* result) {
  const Serve s = MakeServe(config, p);
  if (config.trace) {
    TraceServe(config, p, s, ingest, result);
    return;
  }
  std::filesystem::create_directories(config.out_dir);

  std::vector<SetupTimes> setups;
  std::shared_ptr<const ColGraphEngine> engine;
  std::unique_ptr<Daemon> daemon;
  const std::string socket_path = SocketPath(config, 0);
  const std::string data_dir = ingest ? DataDir(config, 0) : "";
  for (size_t rep = 0; rep < p.setup_reps; ++rep) {
    if (daemon != nullptr) OrDie(daemon->Drain(), "drain");
    daemon.reset();
    engine.reset();
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
    SetupTimes t;
    engine = BuildEngine(s.data, s.graph_workload, p.graph_view_budget,
                         s.agg_workload, p.agg_view_budget, &t);
    daemon = StartDaemon(engine, socket_path, data_dir, p.compact_after,
                         p.clients + 2, &t.start_s);
    setups.push_back(t);
  }
  result->metrics.push_back(
      Make("setup_s", MedianSetup(setups), "s", setups.size()));

  // Closed loop: each client sends its next request when the previous
  // reply arrives, cycling through its fixed sequence.
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::vector<ReadSample>> samples(p.clients);
  std::vector<double> ended(p.clients, 0);  // each client's last completion
  const double warm_until = NowSeconds() + p.warmup_seconds;
  const double start = warm_until;
  const double deadline = start + config.seconds;

  std::vector<std::thread> threads;
  for (size_t c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(ClientFor(socket_path, SubSeed(config.seed, 100 + c)));
      const auto& sequence = s.requests[c];
      samples[c].reserve(1 << 16);
      size_t i = 0;
      double now = NowSeconds();
      while (now < warm_until) {
        (void)client.Query(sequence[i++ % sequence.size()].text);
        now = NowSeconds();
      }
      while (now < deadline) {
        const uint32_t q = static_cast<uint32_t>(i++ % sequence.size());
        const double t0 = NowSeconds();
        const auto response = client.Query(sequence[q].text);
        now = NowSeconds();
        ReadSample sample;
        sample.request = q;
        sample.latency_us = static_cast<float>((now - t0) * 1e6);
        sample.observed = Observe(response);
        if (response.ok()) {
          sample.epoch = static_cast<uint32_t>(response->snapshot_epoch);
        }
        samples[c].push_back(sample);
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
      ended[c] = now;
    });
  }

  std::vector<double> ingest_us;
  std::vector<Ingested> ingests;
  ErrorCount ingest_errors;
  if (ingest) {
    // The writer sends one batch per `reads_per_batch` completed reads, so
    // every run ingests in the same proportion to the reads it serves.
    Client writer(ClientFor(socket_path, SubSeed(config.seed, 99)));
    while (NowSeconds() < start) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const uint64_t base = reads_done.load();
    size_t b = 0;
    while (NowSeconds() < deadline) {
      if (reads_done.load(std::memory_order_relaxed) - base <
          (b + 1) * p.reads_per_batch) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const size_t batch = b++ % s.batches.size();
      const double t0 = NowSeconds();
      const auto response = writer.Ingest(s.batches[batch]);
      ingest_us.push_back(MicrosSince(t0));
      const bool ok = response.ok() && response->ok();
      ingest_errors.Record(ok);
      if (ok) ingests.push_back(Ingested{response->snapshot_epoch, batch});
    }
  }
  for (auto& t : threads) t.join();

  const double measured_s =
      *std::max_element(ended.begin(), ended.end()) - start;
  std::vector<double> match_us, agg_us;
  for (size_t c = 0; c < p.clients; ++c) {
    for (const ReadSample& r : samples[c]) {
      (s.requests[c][r.request].is_agg ? agg_us : match_us)
          .push_back(r.latency_us);
    }
  }
  AddQps(match_us.size() + agg_us.size(), measured_s, result);
  AddLatency(match_us, "match", "match_p99_us", 99.0, result);
  AddLatency(agg_us, "agg", "agg_p99_us", 99.0, result);
  if (ingest) {
    AddLatency(ingest_us, "ingest", "ingest_p90_us", 90.0, result);
    if (!WaitForCompaction(*daemon, p.compact_after)) {
      ingest_errors.Record(false);
      result->notes.push_back("background compaction did not finish");
    }
    result->notes.push_back("ingested " + std::to_string(ingests.size()) +
                            " batches; final epoch " +
                            std::to_string(daemon->snapshot_epoch()));
  }
  const uint64_t final_epoch = daemon->snapshot_epoch();
  OrDie(daemon->Drain(), "drain");
  daemon.reset();
  // Peak memory of set-up and serving, before the check rebuilds states.
  result->metrics.push_back(Make("peak_rss_mb", PeakRssMb(), "MiB", 1));
  const double verify_start = NowSeconds();
  colgraph::ThreadPool pool(kVerifyThreads);
  VerifyReads(s, engine, samples, ingests, final_epoch, &pool,
              &result->errors);
  result->notes.push_back("verified every read in " +
                          std::to_string(NowSeconds() - verify_start) + " s");
  result->errors.Add(ingest_errors);
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"engine_fig6", "serve_read",
                                                 "serve_ingest"};
  return names;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

RunResult RunWorkload(const RunConfig& config) {
  const WorkloadParams p = ParamsFor(config.workload);
  RunResult result;
  result.params = DescribeParams(config, p);
  if (config.workload == "engine_fig6") {
    RunFig6(config, p, &result);
  } else {
    RunServe(config, p, config.workload == "serve_ingest", &result);
  }
  result.metrics.push_back(Make("error_rate", result.errors.error_rate(),
                                "ratio", result.errors.attempted));
  const bool has_peak =
      std::any_of(result.metrics.begin(), result.metrics.end(),
                  [](const Metric& m) { return m.name == "peak_rss_mb"; });
  if (!has_peak) {
    result.metrics.push_back(Make("peak_rss_mb", PeakRssMb(), "MiB", 1));
  }
  return result;
}

}  // namespace perfbench
