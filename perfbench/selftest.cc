// Unit tests of the benchmark's own rules. Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/daemon.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, HighestPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);    // 9.5 beyond p50
  EXPECT_EQ(HighestSupportedPercentile(20), 50);   // 10 beyond p50
  EXPECT_EQ(HighestSupportedPercentile(99), 50);   // 9.9 beyond p90
  EXPECT_EQ(HighestSupportedPercentile(100), 90);  // 10 beyond p90
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(PercentileOfSorted(v, 50), 50);
  EXPECT_EQ(PercentileOfSorted(v, 90), 90);
  EXPECT_EQ(PercentileOfSorted(v, 99), 99);
  EXPECT_EQ(PercentileOfSorted({7}, 99), 7);
  EXPECT_EQ(PercentileOfSorted({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(MetricNameTest, AcceptsTheBenchmarkAlphabet) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("columnstore.values_per_query"));
  EXPECT_TRUE(ValidMetricName("p99-latency"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, RejectsEverythingElse) {
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("latency/us"));
  EXPECT_FALSE(ValidMetricName("quote\""));
}

TEST(ErrorCountTest, EveryFailureCountsAgainstTheAttempts) {
  ErrorCount count;
  EXPECT_EQ(count.error_rate(), 0);
  count.Record(true);
  count.Record(false);
  count.Record(true);
  count.Record(true);
  EXPECT_EQ(count.attempted, 4u);
  EXPECT_EQ(count.failed, 1u);
  EXPECT_DOUBLE_EQ(count.error_rate(), 0.25);
  ErrorCount more;
  more.Record(false);
  count.Add(more);
  EXPECT_EQ(count.attempted, 5u);
  EXPECT_DOUBLE_EQ(count.error_rate(), 0.4);
}

TEST(ErrorCountTest, TransportFailuresAndErrorCodesFail) {
  const uint64_t expected = BodyHash("match 1: r0\n");
  colgraph::StatusOr<colgraph::server::Response> transport =
      colgraph::Status::IOError("connection reset");
  colgraph::server::Response refused;
  refused.code = colgraph::server::kWireResourceExhausted;
  refused.body = "match 1: r0\n";
  ErrorCount count;
  count.Record(ObservationCorrect(Observe(transport), expected));
  count.Record(ObservationCorrect(Observe(refused), expected));
  EXPECT_EQ(count.failed, 2u);
}

/// A live daemon's answer passes the check; the same answer with one byte
/// flipped is counted as failed.
TEST(ResponseCheckTest, CorruptedBodyIsCountedAsFailed) {
  auto engine = std::make_shared<colgraph::ColGraphEngine>();
  ASSERT_TRUE(engine->AddWalk({1, 2, 3}, {5, 6}).ok());
  ASSERT_TRUE(engine->AddWalk({2, 3, 4}, {7, 8}).ok());
  ASSERT_TRUE(engine->Seal().ok());
  colgraph::server::DaemonOptions options;
  options.socket_path =
      "colbench_selftest_" + std::to_string(::getpid()) + ".sock";
  options.num_workers = 1;
  auto daemon = colgraph::server::Daemon::Start(engine, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  const std::string text = "[2,3]";
  const auto parsed = colgraph::ParseQuery(text);
  ASSERT_TRUE(parsed.ok());
  const uint64_t expected = BodyHash(colgraph::server::RenderMatchResult(
      parsed->expr->Evaluate(engine->query_engine())));

  colgraph::server::ClientOptions client_options;
  client_options.socket_path = options.socket_path;
  colgraph::server::Client client(client_options);
  auto response = client.Query(text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  ErrorCount count;
  count.Record(ObservationCorrect(Observe(response), expected));
  EXPECT_EQ(count.failed, 0u);
  response->body[response->body.size() / 2] ^= 0x01;
  count.Record(ObservationCorrect(Observe(response), expected));
  EXPECT_EQ(count.attempted, 2u);
  EXPECT_EQ(count.failed, 1u);
  EXPECT_TRUE((*daemon)->Drain().ok());
}

TEST(SpanLogTest, SelfTimeIsParentMinusChildrenAtTheFastestRepetition) {
  SpanLog log;
  for (uint32_t rep = 0; rep < 2; ++rep) {
    const int32_t root = log.Open("root", 7, rep, -1);
    { const ScopedSpan child(&log, "child", 7, rep, root); }
    { const ScopedSpan child(&log, "child", 7, rep, root); }
    log.Close(root);
  }
  auto times = log.PerRequest();
  ASSERT_EQ(times.count(7), 1u);
  const RequestTimes& t = times[7];
  EXPECT_EQ(t.children.at("root").count("child"), 1u);
  EXPECT_GE(t.Self("root"), 0);
  EXPECT_GE(t.Total("root"), t.Total("child"));
  EXPECT_EQ(t.Self("child"), t.Total("child"));
  EXPECT_EQ(t.Total("absent"), 0);
}

}  // namespace
}  // namespace perfbench
