// Pins the paper's cost-model counters (FetchStats: bitmaps, measure
// columns, values, partitions and partition joins) for a fixed, seeded
// engine with graph views, aggregate views, several vertical partitions
// and two tail datasets. The counts are deterministic, so any change to a
// fetch or fold loop that alters what it accounts for — rather than how
// fast it runs — fails here. A path fold counts one value per segment
// column per record, NULL cells included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "graph/flatten.h"
#include "util/check.h"
#include "util/random.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

// A walk along the line first, first+1, ..., with one seeded measure per
// hop. Line walks make long path queries match many records.
std::vector<NodeId> LineWalk(Rng& rng, NodeId lo, NodeId hi) {
  const auto first = static_cast<NodeId>(rng.Uniform(lo, hi - 2));
  const auto last = static_cast<NodeId>(
      rng.Uniform(first + 2, std::min<uint64_t>(hi, first + 6)));
  std::vector<NodeId> walk;
  for (NodeId n = first; n <= last; ++n) walk.push_back(n);
  return walk;
}

std::vector<double> Measures(Rng& rng, size_t hops) {
  std::vector<double> m;
  for (size_t h = 0; h < hops; ++h) {
    m.push_back(static_cast<double>(rng.Uniform(1, 1000)) / 8.0);
  }
  return m;
}

EdgeId Id(const ColGraphEngine& engine, NodeId a, NodeId b) {
  const auto id = engine.catalog().Lookup(Edge{N(a), N(b)});
  COLGRAPH_CHECK(id.has_value()) << "edge " << a << "->" << b;
  return *id;
}

struct Counts {
  uint64_t bitmaps;
  uint64_t columns;
  uint64_t values;
  uint64_t partitions;
  uint64_t joins;
};

Counts Snapshot(const ColGraphEngine& engine) {
  const FetchStats& s = engine.stats();
  return {s.bitmap_columns_fetched, s.measure_columns_fetched,
          s.values_fetched, s.partitions_touched, s.partition_joins};
}

// Primary: 400 line walks over nodes 1..10, partition width 4 (three
// partitions over the line's nine edges), one graph view and two SUM
// aggregate views.
ColGraphEngine BuildPrimary() {
  EngineOptions options;
  options.relation.partition_width = 4;
  ColGraphEngine engine(options);
  Rng rng(20141);
  for (int i = 0; i < 400; ++i) {
    const std::vector<NodeId> walk = LineWalk(rng, 1, 10);
    COLGRAPH_CHECK_OK(
        engine.AddWalk(walk, Measures(rng, walk.size() - 1)).status());
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  COLGRAPH_CHECK_OK(engine
                        .MaterializeView(GraphViewDef::Make(
                            {Id(engine, 2, 3), Id(engine, 3, 4),
                             Id(engine, 4, 5)}))
                        .status());
  COLGRAPH_CHECK_OK(
      engine
          .MaterializeView(AggViewDef{
              {Id(engine, 3, 4), Id(engine, 4, 5), Id(engine, 5, 6)},
              AggFn::kSum})
          .status());
  COLGRAPH_CHECK_OK(
      engine
          .MaterializeView(
              AggViewDef{{Id(engine, 7, 8), Id(engine, 8, 9)}, AggFn::kSum})
          .status());
  return engine;
}

// Two tails: 80 walks over nodes 1..6 (no columns for the line's upper
// edges), then 80 walks over nodes 5..12 (two edges only a tail knows).
void AttachTails(ColGraphEngine* engine) {
  Rng rng(7919);
  const NodeId ranges[2][2] = {{1, 6}, {5, 12}};
  for (const auto& range : ranges) {
    std::vector<GraphRecord> records;
    for (int i = 0; i < 80; ++i) {
      const std::vector<NodeId> walk = LineWalk(rng, range[0], range[1]);
      GraphRecord record;
      record.elements = WalkToEdges(walk);
      record.measures = Measures(rng, walk.size() - 1);
      records.push_back(std::move(record));
    }
    auto tail = engine->BuildTailRelation(records);
    COLGRAPH_CHECK_OK(tail.status());
    COLGRAPH_CHECK_OK(engine->AttachDataset(
        std::make_shared<const MasterRelation>(std::move(tail).value())));
  }
}

// The fixed query set: graph queries within one partition and across
// two and three, SUM/MAX path aggregates that use the aggregate views,
// and open-ended path folds.
void RunQueries(const ColGraphEngine& engine) {
  const std::vector<std::vector<NodeId>> graph_paths = {
      {1, 2, 3}, {2, 3, 4, 5}, {3, 4, 5, 6, 7}, {5, 6, 7, 8, 9, 10},
      {1, 2, 3, 4, 5, 6, 7, 8}, {8, 9, 10}};
  for (const auto& p : graph_paths) {
    std::vector<NodeRef> nodes;
    for (const NodeId n : p) nodes.push_back(N(n));
    ASSERT_TRUE(engine.RunGraphQuery(GraphQuery::FromPath(nodes)).ok());
  }
  const std::vector<std::vector<NodeId>> agg_paths = {
      {2, 3, 4, 5, 6}, {3, 4, 5, 6}, {6, 7, 8, 9}, {1, 2, 3, 4, 5, 6, 7}};
  for (const AggFn fn : {AggFn::kSum, AggFn::kMax}) {
    for (const auto& p : agg_paths) {
      std::vector<NodeRef> nodes;
      for (const NodeId n : p) nodes.push_back(N(n));
      ASSERT_TRUE(
          engine.RunAggregateQuery(GraphQuery::FromPath(nodes), fn).ok());
    }
  }
  ASSERT_TRUE(engine
                  .AggregateAlongPath(
                      Path({N(2), N(3), N(4), N(5), N(6)}, /*start_open=*/true,
                           /*end_open=*/true),
                      AggFn::kSum)
                  .ok());
  ASSERT_TRUE(
      engine.AggregateAlongPath(Path({N(4), N(5), N(6), N(7)}), AggFn::kMin)
          .ok());
}

void ExpectCounts(const Counts& got, const Counts& want) {
  EXPECT_EQ(got.bitmaps, want.bitmaps);
  EXPECT_EQ(got.columns, want.columns);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.partitions, want.partitions);
  EXPECT_EQ(got.joins, want.joins);
}

TEST(FetchStatsTest, PrimaryWithViewsAndPartitions) {
  ColGraphEngine engine = BuildPrimary();
  engine.stats().Reset();
  RunQueries(engine);
  ExpectCounts(Snapshot(engine), {42, 46, 2444, 16, 3});
}

TEST(FetchStatsTest, PrimaryPlusTwoTails) {
  ColGraphEngine engine = BuildPrimary();
  AttachTails(&engine);
  engine.stats().Reset();
  RunQueries(engine);
  // A graph query over edges only the second tail knows.
  ASSERT_TRUE(
      engine.RunGraphQuery(GraphQuery::FromPath({N(10), N(11), N(12)})).ok());
  ASSERT_TRUE(engine
                  .RunAggregateQuery(
                      GraphQuery::FromPath({N(9), N(10), N(11), N(12)}),
                      AggFn::kSum)
                  .ok());
  // Tail bitmaps and columns count against the tails' own stats; the
  // values every fetch and fold reads count here. Tails are unpartitioned,
  // so no partition join runs.
  ExpectCounts(Snapshot(engine), {42, 46, 3087, 18, 0});
}

}  // namespace
}  // namespace colgraph
