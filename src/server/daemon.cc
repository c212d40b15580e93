#include "server/daemon.h"

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/cancellation.h"
#include "workload/trace_loader.h"

namespace colgraph::server {

namespace {

// Serving metrics (DESIGN.md §12 / README "Metrics"): request and overload
// counters, plus the live gauges DumpMetricsJson exposes.
obs::Counter& RequestCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.requests");
  return c;
}
obs::Counter& OverloadCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.overload_rejections");
  return c;
}
obs::Counter& ConnectionCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.connections");
  return c;
}
obs::Counter& ProtocolErrorCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.protocol_errors");
  return c;
}
obs::Gauge& InFlightGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.in_flight");
  return g;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.queue_depth");
  return g;
}
// Storage shape of the *served* snapshot (DESIGN.md §15): set at every
// publish so the exporter and STATS responses show how fragmented the
// tail is and how much the daemon currently serves.
obs::Gauge& TailDatasetsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.tail_datasets");
  return g;
}
obs::Gauge& TotalRecordsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.total_records");
  return g;
}

/// RAII +1/-1 on a gauge.
class GaugeScope {
 public:
  explicit GaugeScope(obs::Gauge* gauge) : gauge_(gauge) { gauge_->Add(1); }
  ~GaugeScope() { gauge_->Add(-1); }
  GaugeScope(const GaugeScope&) = delete;
  GaugeScope& operator=(const GaugeScope&) = delete;

 private:
  obs::Gauge* gauge_;
};

std::string FormatValue(double v) {
  char buffer[64];
  // %.17g round-trips every double bit-exactly, so serial re-evaluation
  // renders byte-identical bodies (the stress test's oracle).
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

std::string RenderMatchResult(const Bitmap& matches) {
  std::string out = "match " + std::to_string(matches.Count()) + ":";
  matches.ForEachSetBit(
      [&](size_t r) { out += " r" + std::to_string(r); });
  out += "\n";
  return out;
}

std::string RenderAggResult(const PathAggResult& result, AggFn fn) {
  std::string out = std::string(AggFnName(fn)) + " over " +
                    std::to_string(result.records.size()) + " record(s), " +
                    std::to_string(result.paths.size()) + " path(s)\n";
  for (size_t p = 0; p < result.paths.size(); ++p) {
    out += "path " + result.paths[p].ToString() + ":";
    for (const double v : result.values[p]) out += " " + FormatValue(v);
    out += "\n";
  }
  return out;
}

StatusOr<std::unique_ptr<Daemon>> Daemon::Start(
    std::shared_ptr<const ColGraphEngine> initial, DaemonOptions options) {
  if (initial == nullptr) {
    return Status::InvalidArgument("colgraphd needs an initial engine");
  }
  if (!initial->relation().sealed()) {
    return Status::InvalidArgument(
        "colgraphd serves sealed engines; Seal() the initial snapshot");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument("colgraphd needs at least one worker");
  }

  // Durable dataset directory: open it (sweeping any crash debris) and
  // re-attach its live datasets behind the initial snapshot, so records
  // sealed by a previous run survive the restart.
  std::unique_ptr<DatasetStore> store;
  if (!options.data_dir.empty()) {
    DatasetStore::Options store_options;
    store_options.relation = initial->options().relation;
    COLGRAPH_ASSIGN_OR_RETURN(
        DatasetStore opened,
        DatasetStore::Open(options.data_dir, store_options));
    store = std::make_unique<DatasetStore>(std::move(opened));
    COLGRAPH_ASSIGN_OR_RETURN(std::vector<MasterRelation> datasets,
                              store->LoadAll());
    if (!datasets.empty()) {
      ColGraphEngine restored = initial->SharedCopy();
      for (MasterRelation& dataset : datasets) {
        COLGRAPH_RETURN_NOT_OK(restored.AttachDataset(
            std::make_shared<const MasterRelation>(std::move(dataset))));
      }
      initial = std::make_shared<const ColGraphEngine>(std::move(restored));
    }
  }

  COLGRAPH_ASSIGN_OR_RETURN(
      UnixListener listener,
      UnixListener::Bind(options.socket_path,
                         static_cast<int>(options.max_queued_connections)));
  std::unique_ptr<Daemon> daemon(new Daemon(
      std::move(options), std::move(initial), std::move(listener)));
  if (store != nullptr) {
    const MutexLock writer_lock(daemon->writer_mu_);
    daemon->store_ = std::move(store);
  }

  // Telemetry sinks (DESIGN.md §15). The slow-query log must open or the
  // daemon refuses to start — silently serving without the capture the
  // operator asked for is worse than failing fast. The Daemon destructor
  // drains cleanly if either Open fails here.
  if (!daemon->options_.slow_query_log.path.empty()) {
    COLGRAPH_ASSIGN_OR_RETURN(
        daemon->slow_log_,
        obs::SlowQueryLog::Open(daemon->options_.slow_query_log));
  }
  if (!daemon->options_.metrics_dir.empty()) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.dir = daemon->options_.metrics_dir;
    exporter_options.period_ms = daemon->options_.metrics_period_ms;
    // Export what a STATS request would answer: the *served* snapshot's
    // DumpMetricsJson (engine + registry), not the bare registry.
    Daemon* raw = daemon.get();
    exporter_options.source = [raw] {
      return raw->snapshots_.Acquire()->DumpMetricsJson();
    };
    COLGRAPH_ASSIGN_OR_RETURN(
        daemon->exporter_,
        obs::MetricsExporter::Start(std::move(exporter_options)));
  }
  return daemon;
}

Daemon::Daemon(DaemonOptions options,
               std::shared_ptr<const ColGraphEngine> initial,
               UnixListener listener)
    : options_(std::move(options)),
      snapshots_(std::move(initial)),
      admission_(options_.max_in_flight),
      listener_(std::move(listener)),
      conn_pool_(std::make_unique<ThreadPool>(options_.num_workers)),
      accept_pool_(std::make_unique<ThreadPool>(1)) {
  // Register the serving gauges now so a kStats response (and any metrics
  // dump) lists them at zero before the first request arrives.
  InFlightGauge();
  QueueDepthGauge();
  {
    const std::shared_ptr<const ColGraphEngine> snapshot =
        snapshots_.Acquire();
    TailDatasetsGauge().Set(static_cast<int64_t>(snapshot->tails().size()));
    TotalRecordsGauge().Set(
        static_cast<int64_t>(snapshot->total_records()));
  }
  accept_pool_->Schedule([this] { AcceptLoop(); });
}

Daemon::~Daemon() {
  const Status s = Drain();
  if (!s.ok()) {
    std::fprintf(stderr, "colgraphd: drain failed: %s\n",
                 s.ToString().c_str());
  }
}

Status Daemon::Drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Another caller is (or was) draining; tick until its result lands.
    for (;;) {
      {
        const MutexLock lock(drain_mu_);
        if (drained_) return drain_status_;
      }
      SleepMs(options_.poll_tick_ms);
    }
  }

  // 1. Join the accept loop (it exits on its next poll tick), then close
  //    the listener so the socket file disappears — new connects now fail
  //    fast with UNAVAILABLE at the OS level.
  accept_pool_.reset();
  listener_.Close();

  // 2. Join the connection workers. In-flight requests run to completion;
  //    idle connections notice draining_ on their next tick and close;
  //    queued handlers start, observe draining_, and refuse politely.
  conn_pool_.reset();

  // 3. Flush and close the query log — after this the capture file is
  //    complete and replayable. The log is shared by every published
  //    snapshot (engine copies share the sink), so closing it once here
  //    covers all epochs.
  Status status = Status::OK();
  const std::shared_ptr<const ColGraphEngine> snapshot = snapshots_.Acquire();
  if (snapshot->query_log() != nullptr) {
    status = snapshot->query_log()->Close();
  }

  // 4. Stop telemetry: the exporter writes one final document (so the
  //    last interval's counters land on disk), then the slow-query log is
  //    completed with its footer. Close errors surface through the drain
  //    status like the query log's.
  if (exporter_ != nullptr) exporter_->Stop();
  if (slow_log_ != nullptr) {
    const Status slow = slow_log_->Close();
    if (status.ok()) status = slow;
  }

  {
    const MutexLock lock(drain_mu_);
    drained_ = true;
    drain_status_ = status;
  }
  return status;
}

void Daemon::AcceptLoop() {
  while (!draining()) {
    StatusOr<UnixSocket> accepted = listener_.Accept(options_.poll_tick_ms);
    if (!accepted.ok()) {
      if (accepted.status().IsDeadlineExceeded()) continue;  // stop-flag tick
      if (draining()) break;
      std::fprintf(stderr, "colgraphd: accept failed: %s\n",
                   accepted.status().ToString().c_str());
      SleepMs(options_.poll_tick_ms);
      continue;
    }
    ConnectionCounter().Increment();

    // Bounded handler queue: beyond the cap, shed load at the front door
    // with the retryable overload status instead of queueing invisibly.
    const size_t queued =
        queued_connections_.fetch_add(1, std::memory_order_acq_rel);
    if (queued >= options_.max_queued_connections) {
      queued_connections_.fetch_sub(1, std::memory_order_acq_rel);
      OverloadCounter().Increment();
      Response overload = ErrorResponse(Status::ResourceExhausted(
          "connection rejected: " +
          std::to_string(options_.max_queued_connections) +
          " connections already queued (retry with backoff)"));
      std::vector<char> frame;
      AppendResponseFrame(overload, &frame);
      UnixSocket socket = std::move(accepted).value();
      (void)socket.WriteAll(frame.data(), frame.size(),
                            options_.io_timeout_ms);
      continue;  // socket closes on scope exit
    }
    QueueDepthGauge().Add(1);

    // shared_ptr: std::function requires a copyable callable, and the
    // socket must survive until the (single) invocation runs.
    auto socket =
        std::make_shared<UnixSocket>(std::move(accepted).value());
    const uint64_t enqueued_us = obs::NowMicros();
    conn_pool_->Schedule([this, socket, enqueued_us]() mutable {
      queued_connections_.fetch_sub(1, std::memory_order_acq_rel);
      QueueDepthGauge().Add(-1);
      // The accept queue is timed across threads, so the wait is measured
      // here and carried into the first request's trace by ReadRequest.
      const uint64_t dequeued_us = obs::NowMicros();
      obs::RecordQueueWait(nullptr, enqueued_us, dequeued_us);
      const uint64_t wait_us =
          dequeued_us >= enqueued_us ? dequeued_us - enqueued_us : 0;
      HandleConnection(std::move(*socket), wait_us);
    });
  }
}

Status Daemon::ReadRequest(UnixSocket* socket, Request* request,
                           Response* error_response, bool* fatal_out,
                           obs::RequestContext* ctx,
                           uint64_t* pending_queue_wait_us) {
  *fatal_out = false;

  // Idle phase: wait for the first header byte in short ticks so a drain
  // interrupts keep-alive connections promptly. No idle cap — a client may
  // hold a connection open as long as the daemon is serving.
  for (;;) {
    if (draining()) return Status::Unavailable("server draining");
    const Status ready = socket->WaitReadable(options_.poll_tick_ms);
    if (ready.ok()) break;
    if (!ready.IsDeadlineExceeded()) return ready;
  }
  // EOF is readable too: a peer that closed at a request boundary ends
  // the connection here, before a decode span opens for a request that
  // never came.
  if (socket->PeerClosed()) {
    return Status::Unavailable("connection closed by peer");
  }

  // The request begins now: re-anchor the context so keep-alive idle time
  // is excluded, then let the first request on the connection absorb the
  // accept-queue wait (already counted in the histogram by AcceptLoop).
  ctx->MarkStart();
  if (*pending_queue_wait_us > 0) {
    ctx->trace().Add(obs::ServerPhaseName(obs::ServerPhase::kQueueWait), 0,
                     *pending_queue_wait_us);
    *pending_queue_wait_us = 0;
  }
  const obs::ServerSpan decode_span(obs::ServerPhase::kDecode, ctx);

  // Framed phase: once bytes start flowing the peer must complete the
  // frame within the IO budget or be dropped (hung-client defense).
  char header_bytes[kFrameHeaderBytes];
  COLGRAPH_RETURN_NOT_OK(socket->ReadFull(header_bytes, kFrameHeaderBytes,
                                          options_.io_timeout_ms));
  FrameHeader header;
  Status s = DecodeFrameHeader(header_bytes, &header);
  if (s.ok() && header.type != kRequestFrame) {
    s = Status::InvalidArgument("protocol: expected a request frame");
  }
  if (!s.ok()) {
    // The stream is desynchronized — answer, then hang up.
    ProtocolErrorCounter().Increment();
    *error_response = ErrorResponse(s);
    *fatal_out = true;
    return Status::OK();
  }

  std::vector<char> payload(header.payload_len);
  COLGRAPH_RETURN_NOT_OK(
      socket->ReadFull(payload.data(), payload.size(),
                       options_.io_timeout_ms));
  s = VerifyFrameCrc(header, payload.data(), payload.size());
  if (s.ok()) {
    StatusOr<Request> decoded =
        DecodeRequestPayload(payload.data(), payload.size());
    if (decoded.ok()) {
      *request = std::move(decoded).value();
      if (request->has_context) {
        ctx->AdoptWireContext(request->context.request_id,
                              request->context.trace());
      }
      return Status::OK();
    }
    s = decoded.status();
  }
  ProtocolErrorCounter().Increment();
  *error_response = ErrorResponse(s);
  *fatal_out = true;
  return Status::OK();
}

void Daemon::HandleConnection(UnixSocket socket, uint64_t queue_wait_us) {
  for (;;) {
    Request request;
    Response response;
    bool fatal = false;
    obs::RequestContext ctx;
    const Status read = ReadRequest(&socket, &request, &response, &fatal,
                                    &ctx, &queue_wait_us);
    if (!read.ok()) {
      // Clean disconnect (Unavailable), hung peer (DeadlineExceeded), or
      // torn frame (IOError): nothing to answer, drop the connection.
      return;
    }
    if (!fatal) response = ExecuteWithContext(request, &ctx);

    std::vector<char> frame;
    {
      const obs::ServerSpan encode_span(obs::ServerPhase::kEncode, &ctx);
      if (!fatal) MaybeEchoTrace(request, ctx, &response);
      AppendResponseFrame(response, &frame);
    }
    Status written;
    {
      const obs::ServerSpan write_span(obs::ServerPhase::kWrite, &ctx);
      written =
          socket.WriteAll(frame.data(), frame.size(), options_.io_timeout_ms);
    }
    // Capture after the write so the record's total covers the full
    // server-side lifetime. The echoed trace (rendered before the encode
    // span closed) necessarily lacks the encode/write events; the
    // slow-query record has them.
    if (!fatal) MaybeCaptureSlowQuery(request, &ctx, response);
    if (!written.ok() || fatal) return;
  }
}

Response Daemon::ErrorResponse(const Status& status) const {
  Response response;
  response.code = WireCodeFromStatus(status);
  response.snapshot_epoch = snapshots_.epoch();
  response.body = status.message();
  return response;
}

Response Daemon::Execute(const Request& request) {
  // Direct (in-process) callers get the same finalize the socket path
  // performs itself: trace echo and slow-query capture, minus the
  // encode/write phases that only exist on a real connection.
  obs::RequestContext ctx;
  if (request.has_context) {
    ctx.AdoptWireContext(request.context.request_id,
                         request.context.trace());
  }
  Response response = ExecuteWithContext(request, &ctx);
  MaybeEchoTrace(request, ctx, &response);
  MaybeCaptureSlowQuery(request, &ctx, response);
  return response;
}

Response Daemon::ExecuteWithContext(const Request& request,
                                    obs::RequestContext* ctx) {
  RequestCounter().Increment();
  if (ctx->request_id() == 0) {
    // Old-protocol client (no wire context): assign a daemon-local id so
    // the trace record and any slow-query capture stay keyed.
    ctx->set_request_id(request_seq_.fetch_add(1, std::memory_order_relaxed) +
                        1);
  }
  if (draining()) {
    return ErrorResponse(
        Status::Unavailable("server draining; no new requests"));
  }

  // The admission span closes as soon as the slot outcome is known; the
  // slot itself stays held for the whole execution.
  auto admission_span = std::make_unique<const obs::ServerSpan>(
      obs::ServerPhase::kAdmission, ctx);
  const AdmissionSlot slot(&admission_, "request");
  admission_span.reset();
  if (!slot.admitted()) {
    OverloadCounter().Increment();
    return ErrorResponse(slot.status());
  }
  const GaugeScope in_flight(&InFlightGauge());

  CancellationToken token;
  const uint64_t timeout_ms = request.timeout_ms > 0
                                  ? request.timeout_ms
                                  : options_.default_timeout_ms;
  if (timeout_ms > 0) token.SetTimeout(timeout_ms);
  if (options_.test_delay_before_execute_ms > 0) {
    SleepMs(options_.test_delay_before_execute_ms);
  }
  if (const Status pre = token.Check(); !pre.ok()) {
    return ErrorResponse(pre);
  }

  const obs::ServerSpan evaluate_span(obs::ServerPhase::kEvaluate, ctx);
  switch (request.op) {
    case RequestOp::kPing: {
      Response response;
      response.snapshot_epoch = snapshots_.epoch();
      response.body = "pong";
      return response;
    }
    case RequestOp::kStats: {
      Response response;
      const std::shared_ptr<const ColGraphEngine> engine =
          snapshots_.Acquire(&response.snapshot_epoch);
      // Body selects the document (old clients send an empty body and get
      // the full dump, unchanged): "registry" returns just the process
      // registry — cheap enough for `stats --watch` to poll every second.
      if (request.body == "registry") {
        response.body = obs::MetricsRegistry::Global().ToJson();
      } else if (request.body.empty() || request.body == "full") {
        response.body = engine->DumpMetricsJson();
      } else {
        return ErrorResponse(Status::InvalidArgument(
            "unknown stats selector: " + request.body +
            " (expected empty, \"full\", or \"registry\")"));
      }
      return response;
    }
    case RequestOp::kQuery:
      return ExecuteQuery(request, token, ctx);
    case RequestOp::kIngest: {
      StatusOr<Response> response = Ingest(request.body);
      if (!response.ok()) return ErrorResponse(response.status());
      return std::move(response).value();
    }
  }
  return ErrorResponse(Status::Internal("unreachable request op"));
}

void Daemon::MaybeEchoTrace(const Request& request,
                            const obs::RequestContext& ctx,
                            Response* response) const {
  if (!request.has_context || !request.context.trace()) return;
  response->has_trace = true;
  response->request_id = ctx.request_id();
  response->trace_json = ctx.ToJson(response->snapshot_epoch);
}

void Daemon::MaybeCaptureSlowQuery(const Request& request,
                                   obs::RequestContext* ctx,
                                   const Response& response) {
  if (slow_log_ == nullptr) return;
  const uint64_t total_us = ctx->ElapsedUs();
  bool sampled = false;
  if (!slow_log_->AdmitForCapture(total_us, &sampled)) return;

  obs::SlowQueryRecord record;
  record.request_id = ctx->request_id();
  record.snapshot_epoch = response.snapshot_epoch;
  record.total_us = total_us;
  record.wire_code = response.code;
  record.op = static_cast<uint8_t>(request.op);
  record.sampled = sampled;
  record.query = request.body;  // Append truncates to the cap
  for (const obs::TraceEvent& event : ctx->trace().events()) {
    record.spans.push_back(obs::SlowQuerySpan{
        std::string(event.name), event.start_us, event.duration_us});
  }
  slow_log_->Append(record);
}

Response Daemon::ExecuteQuery(const Request& request,
                              const CancellationToken& token,
                              obs::RequestContext* ctx) {
  const StatusOr<ParsedQuery> parsed = ParseQuery(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  Response response;
  const std::shared_ptr<const ColGraphEngine> engine =
      snapshots_.Acquire(&response.snapshot_epoch);

  QueryOptions query_options;
  query_options.cancel = &token;
  // The engine's phase spans land in the same trace as the server phases,
  // so one record shows the whole request (the end-to-end join).
  query_options.trace = &ctx->trace();

  if (parsed->kind == ParsedQuery::Kind::kMatch) {
    const Bitmap matches =
        parsed->expr->Evaluate(engine->query_engine(), query_options);
    // Boolean-expression evaluation returns a plain bitmap (no status
    // channel), so the deadline is enforced at the evaluation boundary.
    if (const Status post = token.Check(); !post.ok()) {
      return ErrorResponse(post);
    }
    response.body = RenderMatchResult(matches);
    return response;
  }

  const StatusOr<PathAggResult> result =
      engine->RunAggregateQuery(parsed->query, parsed->fn, query_options);
  if (!result.ok()) return ErrorResponse(result.status());
  response.body = RenderAggResult(*result, parsed->fn);
  return response;
}

StatusOr<Response> Daemon::Ingest(const std::string& trace_text) {
  // Single writer: ingests serialize here. Readers never wait — they keep
  // evaluating against the previous snapshot until the publish below.
  const MutexLock writer_lock(writer_mu_);

  std::istringstream in(trace_text);
  COLGRAPH_ASSIGN_OR_RETURN(const std::vector<WalkTrace> traces,
                            ParseTraces(in));
  if (traces.empty()) {
    return Status::InvalidArgument("ingest body contains no trace records");
  }

  const std::shared_ptr<const ColGraphEngine> base = snapshots_.Acquire();
  // Append-a-dataset ingest (DESIGN.md §14): the batch becomes a small
  // sealed tail relation; the primary relation is *shared* with the served
  // snapshot, not copied. A failure anywhere below leaves the served
  // snapshot untouched.
  ColGraphEngine next = base->SharedCopy();
  std::vector<GraphRecord> records;
  records.reserve(traces.size());
  for (const WalkTrace& trace : traces) {
    if (trace.walk.size() < 2) {
      return Status::InvalidArgument("a walk needs at least two nodes");
    }
    if (trace.measures.size() != trace.walk.size() - 1) {
      return Status::InvalidArgument("a walk of n nodes needs n-1 measures");
    }
    GraphRecord record;
    record.elements = WalkToEdges(trace.walk);
    record.measures = trace.measures;
    records.push_back(std::move(record));
  }
  COLGRAPH_ASSIGN_OR_RETURN(MasterRelation tail,
                            next.BuildTailRelation(records));
  if (store_ != nullptr) {
    // Durability before visibility: the dataset file is sealed (and the
    // manifest rewritten) before any reader can observe the records.
    COLGRAPH_RETURN_NOT_OK(store_->Seal(tail).status());
  }
  COLGRAPH_RETURN_NOT_OK(next.AttachDataset(
      std::make_shared<const MasterRelation>(std::move(tail))));

  const size_t total = next.total_records();
  const size_t num_tails = next.tails().size();
  COLGRAPH_RETURN_NOT_OK(snapshots_.Publish(
      std::make_shared<const ColGraphEngine>(std::move(next))));
  TailDatasetsGauge().Set(static_cast<int64_t>(num_tails));
  TotalRecordsGauge().Set(static_cast<int64_t>(total));

  // Background compaction: once enough small datasets pile up, merge them
  // off the writer path. The flag collapses triggers so at most one task
  // is queued at a time.
  if (options_.compact_after_datasets > 0 &&
      num_tails >= options_.compact_after_datasets &&
      !compaction_queued_.exchange(true, std::memory_order_acq_rel)) {
    conn_pool_->Schedule([this] {
      const Status status = CompactNow();
      // Unavailable is the quiet outcome: drain raced in, or another
      // process holds the compaction lock — both retry naturally.
      if (!status.ok() && !status.IsUnavailable()) {
        std::fprintf(stderr, "colgraphd: background compaction failed: %s\n",
                     status.ToString().c_str());
      }
      compaction_queued_.store(false, std::memory_order_release);
    });
  }

  Response response;
  response.snapshot_epoch = snapshots_.epoch();
  response.body = "ingested " + std::to_string(traces.size()) +
                  " record(s); " + std::to_string(total) +
                  " total; epoch " +
                  std::to_string(response.snapshot_epoch);
  return response;
}

Status Daemon::CompactNow() {
  const MutexLock writer_lock(writer_mu_);
  if (draining()) return Status::Unavailable("server draining");

  // Durable merge first: if it fails (injected crash, lock contention),
  // the manifest still references every sealed dataset and the served
  // snapshot keeps answering from them — zero records lost.
  if (store_ != nullptr) {
    COLGRAPH_RETURN_NOT_OK(store_->CompactAll());
  }

  const std::shared_ptr<const ColGraphEngine> base = snapshots_.Acquire();
  if (base->tails().empty()) return Status::OK();
  ColGraphEngine next = base->SharedCopy();
  COLGRAPH_RETURN_NOT_OK(next.Compact());
  const size_t total = next.total_records();
  const size_t num_tails = next.tails().size();
  COLGRAPH_RETURN_NOT_OK(snapshots_.Publish(
      std::make_shared<const ColGraphEngine>(std::move(next))));
  TailDatasetsGauge().Set(static_cast<int64_t>(num_tails));
  TotalRecordsGauge().Set(static_cast<int64_t>(total));
  return Status::OK();
}

}  // namespace colgraph::server
