// End-to-end request tracing (DESIGN.md §15, labels `server;concurrency`,
// TSan-green): a traced query over the live socket comes back with the
// server's joined trace echoed under the client's own request id, and the
// same id keys a slow-query-log record whose spans cover the full server
// pipeline (decode → admission → evaluate → encode → write) *and* the
// engine phases inside evaluate — one attribution chain from the wire to
// the bitmap kernels. The stress half runs 8 traced clients against
// concurrent publishes and checks every captured record is well-formed
// and epoch-consistent with the response the client actually saw.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/engine.h"
#include "obs/request_context.h"
#include "obs/slow_query_log.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/net_socket.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace colgraph::server {
namespace {

bool HasSpan(const obs::SlowQueryRecord& record, const std::string& name) {
  for (const obs::SlowQuerySpan& span : record.spans) {
    if (span.name == name) return true;
  }
  return false;
}

class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = "/tmp/colgraph_trace_" + std::to_string(::getpid()) +
                   "_" + std::to_string(instance_++) + ".sock";
    slow_log_path_ = testing::TempDir() + "trace_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(instance_) + ".sqlog";

    auto initial = std::make_shared<ColGraphEngine>();
    ASSERT_TRUE(initial->AddWalk({1, 2, 3}, {5, 6}).ok());
    ASSERT_TRUE(initial->AddWalk({2, 3, 4}, {7, 8}).ok());
    ASSERT_TRUE(initial->Seal().ok());

    DaemonOptions options;
    options.socket_path = socket_path_;
    options.num_workers = 8;
    // Threshold 0: every request is "slow", so each one must land in the
    // log — the test can key records by request id exhaustively.
    options.slow_query_log.path = slow_log_path_;
    options.slow_query_log.threshold_us = 0;
    auto daemon = Daemon::Start(std::move(initial), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(daemon).value();
  }

  void TearDown() override {
    daemon_.reset();
    (void)std::remove(slow_log_path_.c_str());
  }

  Client MakeClient(uint64_t seed = 1) {
    ClientOptions options;
    options.socket_path = socket_path_;
    options.jitter_seed = seed;
    return Client(options);
  }

  static int instance_;
  std::string socket_path_;
  std::string slow_log_path_;
  std::unique_ptr<Daemon> daemon_;
};

int RequestTraceTest::instance_ = 0;

TEST_F(RequestTraceTest, SlowRequestIsAttributableEndToEnd) {
  Client client = MakeClient();
  const auto response = client.QueryTraced("[1,2] AND [2,3]");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->body;
  const uint64_t id = client.last_request_id();
  ASSERT_NE(id, 0u);

  // The echoed trace carries the client's own id and the live phase spans
  // (it is rendered inside the encode span, so decode/admission/evaluate
  // and the engine phases are present; encode/write finish later and are
  // only in the durable record below).
  EXPECT_TRUE(response->has_trace);
  EXPECT_EQ(response->request_id, id);
  EXPECT_NE(response->trace_json.find("decode"), std::string::npos)
      << response->trace_json;
  EXPECT_NE(response->trace_json.find("evaluate"), std::string::npos)
      << response->trace_json;
  EXPECT_NE(response->trace_json.find("bitmap_and"), std::string::npos)
      << response->trace_json;

  // Drain closes the slow-query log; the record keyed by the
  // wire-propagated id must hold the complete joined breakdown.
  ASSERT_TRUE(daemon_->Drain().ok());
  const auto records = obs::ReadSlowQueryLog(slow_log_path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();

  const obs::SlowQueryRecord* mine = nullptr;
  for (const obs::SlowQueryRecord& record : *records) {
    if (record.request_id == id) mine = &record;
  }
  ASSERT_NE(mine, nullptr) << "no slow-query record for request " << id;
  EXPECT_EQ(mine->snapshot_epoch, response->snapshot_epoch);
  EXPECT_EQ(mine->wire_code, kWireOk);
  EXPECT_EQ(mine->op, static_cast<uint8_t>(RequestOp::kQuery));
  EXPECT_FALSE(mine->sampled);
  EXPECT_EQ(mine->query, "[1,2] AND [2,3]");
  // Server pipeline phases...
  EXPECT_TRUE(HasSpan(*mine, "decode"));
  EXPECT_TRUE(HasSpan(*mine, "admission"));
  EXPECT_TRUE(HasSpan(*mine, "evaluate"));
  EXPECT_TRUE(HasSpan(*mine, "encode"));
  EXPECT_TRUE(HasSpan(*mine, "write"));
  // ...joined with engine phases in the same record.
  EXPECT_TRUE(HasSpan(*mine, "bitmap_and"));
}

TEST_F(RequestTraceTest, CleanCloseAtRequestBoundaryRecordsNoDecodeSample) {
  // One request per connection, as the command-line client sends them:
  // each connection adds exactly one decode sample. The close after the
  // response ends the connection; it is not the start of a request.
  obs::LatencyHistogram& decode =
      obs::ServerPhaseHistogram(obs::ServerPhase::kDecode);
  const uint64_t before = decode.count();
  constexpr uint64_t kConnections = 5;
  for (uint64_t i = 0; i < kConnections; ++i) {
    Client client = MakeClient(i + 1);
    const auto response = client.Query("[1,2,3]");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->body;
  }  // each client closes its connection here
  // Let the workers read the EOFs before draining: a draining worker
  // leaves its idle loop without reading, which would hide a sample
  // recorded at EOF.
  SleepMs(100);
  ASSERT_TRUE(daemon_->Drain().ok());
  EXPECT_EQ(decode.count() - before, kConnections);
}

TEST_F(RequestTraceTest, UntracedRequestsCarryNoTraceExtension) {
  Client client = MakeClient();
  const auto plain = client.Query("[1,2,3]");
  ASSERT_TRUE(plain.ok() && plain->ok());
  // Demand-driven echo: a request that did not opt in never receives the
  // extension (the compat contract with pre-extension clients).
  EXPECT_FALSE(plain->has_trace);
  EXPECT_TRUE(plain->trace_json.empty());
}

TEST_F(RequestTraceTest, DaemonAssignsIdsToContextFreeRequests) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Query("[1,2,3]").ok());
  ASSERT_TRUE(client.Query("SUM [1,2]").ok());
  ASSERT_TRUE(daemon_->Drain().ok());
  const auto records = obs::ReadSlowQueryLog(slow_log_path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_GE(records->size(), 2u);
  // Fallback ids are daemon-assigned, nonzero, and distinct, so records
  // stay individually addressable even without the wire extension.
  std::map<uint64_t, size_t> ids;
  for (const obs::SlowQueryRecord& record : *records) {
    EXPECT_NE(record.request_id, 0u);
    ++ids[record.request_id];
  }
  for (const auto& [id, count] : ids) {
    EXPECT_EQ(count, 1u) << "duplicate request id " << id;
  }
}

TEST_F(RequestTraceTest, RecordsTrackTheServingEpoch) {
  Client client = MakeClient();
  const auto before = client.QueryTraced("[1,2,3]");
  ASSERT_TRUE(before.ok() && before->ok());
  const uint64_t id_before = client.last_request_id();
  ASSERT_EQ(before->snapshot_epoch, 0u);

  ASSERT_TRUE(daemon_->Ingest("1 2 3 | 50 60\n").ok());

  const auto after = client.QueryTraced("[1,2,3]");
  ASSERT_TRUE(after.ok() && after->ok());
  const uint64_t id_after = client.last_request_id();
  ASSERT_EQ(after->snapshot_epoch, 1u);

  ASSERT_TRUE(daemon_->Drain().ok());
  const auto records = obs::ReadSlowQueryLog(slow_log_path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::map<uint64_t, uint64_t> epoch_by_id;
  for (const obs::SlowQueryRecord& record : *records) {
    epoch_by_id[record.request_id] = record.snapshot_epoch;
  }
  EXPECT_EQ(epoch_by_id.at(id_before), 0u);
  EXPECT_EQ(epoch_by_id.at(id_after), 1u);
}

// 8 traced clients against a publishing writer: every captured record must
// be well-formed (nonzero id, non-empty spans, a terminal `write` phase)
// and agree with the epoch its client observed on the wire. Run under
// TSan, this is also the data-race check on the whole tracing pipeline.
TEST_F(RequestTraceTest, ConcurrentTracedClientsStayWellFormed) {
  constexpr size_t kNumClients = 8;
  constexpr size_t kQueriesPerClient = 20;
  constexpr size_t kNumPublishes = 3;
  const char* kQueries[] = {"[1,2,3]", "[1,2] AND [2,3]", "SUM [1,2,3]",
                            "COUNT [2,3,4]"};

  struct Traced {
    uint64_t id;
    uint64_t epoch;
  };
  std::vector<std::vector<Traced>> observed(kNumClients);
  std::vector<Status> client_status(kNumClients, Status::OK());
  Status writer_status = Status::OK();

  ThreadPool pool(kNumClients);
  const Status run = pool.ParallelFor(
      0, kNumClients + 1, /*grain=*/1, [&](size_t begin, size_t) {
        if (begin == 0) {
          for (size_t round = 1; round <= kNumPublishes; ++round) {
            SleepMs(5);
            const auto response = daemon_->Ingest(
                "1 2 3 4 | " + std::to_string(round) + " 1 2\n");
            if (!response.ok()) {
              writer_status = response.status();
              return writer_status;
            }
          }
          return Status::OK();
        }
        const size_t c = begin - 1;
        Client client = MakeClient(/*seed=*/2000 + c);
        for (size_t q = 0; q < kQueriesPerClient; ++q) {
          const std::string text = kQueries[(c + q) % 4];
          const auto response = client.QueryTraced(text);
          if (!response.ok()) {
            client_status[c] = response.status();
            return client_status[c];
          }
          if (!response->ok()) {
            client_status[c] = response->ToStatus();
            return client_status[c];
          }
          if (!response->has_trace ||
              response->request_id != client.last_request_id()) {
            client_status[c] =
                Status::Internal("trace echo missing or mis-keyed");
            return client_status[c];
          }
          observed[c].push_back(
              Traced{client.last_request_id(), response->snapshot_epoch});
        }
        return Status::OK();
      });
  ASSERT_TRUE(run.ok()) << run.ToString();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  for (size_t c = 0; c < kNumClients; ++c) {
    ASSERT_TRUE(client_status[c].ok())
        << "client " << c << ": " << client_status[c].ToString();
  }
  EXPECT_GE(daemon_->snapshot_epoch(), kNumPublishes);

  ASSERT_TRUE(daemon_->Drain().ok());
  const auto records = obs::ReadSlowQueryLog(slow_log_path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();

  std::map<uint64_t, const obs::SlowQueryRecord*> by_id;
  for (const obs::SlowQueryRecord& record : *records) {
    EXPECT_NE(record.request_id, 0u);
    EXPECT_FALSE(record.spans.empty());
    by_id[record.request_id] = &record;
  }
  // Every traced response maps to exactly one well-formed record whose
  // epoch matches what the client saw on the wire.
  size_t matched = 0;
  for (const auto& per_client : observed) {
    for (const Traced& traced : per_client) {
      const auto it = by_id.find(traced.id);
      ASSERT_NE(it, by_id.end()) << "no record for request " << traced.id;
      EXPECT_EQ(it->second->snapshot_epoch, traced.epoch);
      EXPECT_TRUE(HasSpan(*it->second, "evaluate"));
      EXPECT_TRUE(HasSpan(*it->second, "write"));
      ++matched;
    }
  }
  EXPECT_EQ(matched, kNumClients * kQueriesPerClient);
}

}  // namespace
}  // namespace colgraph::server
