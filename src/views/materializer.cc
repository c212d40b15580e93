#include "views/materializer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/agg_fn.h"
#include "util/thread_pool.h"

namespace colgraph {

namespace {

// Materialization accounting: view counts and per-view build latency (the
// Section 5.2 "views are cheap to build" claim, observable).
obs::LatencyHistogram& MaterializeHistogram() {
  static obs::LatencyHistogram& hist =
      obs::MetricsRegistry::Global().GetHistogram("views.materialize_us");
  return hist;
}

void CountMaterialized(const char* counter_name) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global().GetCounter(counter_name).Increment();
}

Status ValidateIds(const std::vector<EdgeId>& ids,
                   const MasterRelation& relation) {
  for (EdgeId id : ids) {
    if (id >= relation.num_edge_columns()) {
      return Status::InvalidArgument("view references unknown edge id " +
                                     std::to_string(id));
    }
  }
  return Status::OK();
}

// AND of the presence bitmaps of `ids` (offline: bypasses fetch stats).
Bitmap ConjunctionBitmap(const std::vector<EdgeId>& ids,
                         const MasterRelation& relation) {
  Bitmap result(relation.num_records());
  if (ids.empty()) return result;
  result = relation.PeekMeasureColumn(ids[0]).presence().bits();
  for (size_t i = 1; i < ids.size(); ++i) {
    result.And(relation.PeekMeasureColumn(ids[i]).presence().bits());
  }
  return result;
}

}  // namespace

StatusOr<size_t> MaterializeGraphView(const GraphViewDef& def,
                                      MasterRelation* relation,
                                      ViewCatalog* catalog) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  if (def.edges.empty()) {
    return Status::InvalidArgument("cannot materialize an empty graph view");
  }
  COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
  const obs::Span span(&MaterializeHistogram(), nullptr, "materialize");
  const size_t index =
      relation->AddGraphView(ConjunctionBitmap(def.edges, *relation));
  catalog->AddGraphView(def, index);
  CountMaterialized("views.graph.materialized");
  return index;
}

namespace {

// Appends the stored per-record value of the aggregate view `def` — for
// AVG the SUM sub-aggregate (the count is def.elements.size(), known
// statically), otherwise F itself — for every record of `bp` at or after
// `first_record`. bp is the AND of the elements' presences, so no cell is
// NULL. The fold runs column-at-a-time over bounded chunks of records,
// elements in order, so each record folds exactly as one Add per element.
void AppendAggValues(const AggViewDef& def, const MasterRelation& relation,
                     const Bitmap& bp, size_t first_record,
                     std::vector<double>* values) {
  constexpr size_t kChunk = 4096;
  const AggFn stored_fn = def.fn == AggFn::kAvg ? AggFn::kSum : def.fn;
  std::vector<uint64_t> records;
  bp.AppendSetBits(&records);
  size_t row = static_cast<size_t>(
      std::lower_bound(records.begin(), records.end(), first_record) -
      records.begin());
  std::vector<AggAccumulator> accs;
  while (row < records.size()) {
    const size_t n = std::min(kChunk, records.size() - row);
    accs.assign(n, AggAccumulator(stored_fn));
    for (EdgeId id : def.elements) {
      relation.PeekMeasureColumn(id).FoldInto(records.data() + row, n, 0,
                                              /*view_elements=*/0,
                                              accs.data());
    }
    for (const AggAccumulator& acc : accs) values->push_back(acc.Result());
    row += n;
  }
}

// Computes the (mp) column of an aggregate view from the base columns.
StatusOr<MeasureColumn> ComputeAggColumn(const AggViewDef& def,
                                         const MasterRelation& relation) {
  Bitmap bp = ConjunctionBitmap(def.elements, relation);
  std::vector<double> values;
  values.reserve(bp.Count());
  AppendAggValues(def, relation, bp, 0, &values);
  return MeasureColumn::FromParts(std::move(bp), std::move(values));
}

}  // namespace

StatusOr<size_t> MaterializeAggView(const AggViewDef& def,
                                    MasterRelation* relation,
                                    ViewCatalog* catalog) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  if (def.elements.size() < 2) {
    return Status::InvalidArgument(
        "aggregate views must cover at least two elements; single-element "
        "measures are already stored in the base schema");
  }
  COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
  const obs::Span span(&MaterializeHistogram(), nullptr, "materialize");
  COLGRAPH_ASSIGN_OR_RETURN(MeasureColumn mp, ComputeAggColumn(def, *relation));
  const size_t index = relation->AddAggregateView(std::move(mp));
  catalog->AddAggView(def, index);
  CountMaterialized("views.agg.materialized");
  return index;
}

StatusOr<std::vector<size_t>> MaterializeGraphViews(
    const std::vector<GraphViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  // Validate everything up front (serially, so the first bad definition in
  // order is reported) — the parallel phase then cannot fail, and on error
  // the relation and catalog are untouched.
  for (const GraphViewDef& def : defs) {
    if (def.edges.empty()) {
      return Status::InvalidArgument("cannot materialize an empty graph view");
    }
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
  }

  // Phase 1 (parallel): each view's conjunction bitmap is an independent
  // read-only pass over the sealed base columns, computed into its own
  // pre-sized slot.
  std::vector<Bitmap> bitmaps(defs.size());
  COLGRAPH_RETURN_NOT_OK(
      ParallelFor(pool, 0, defs.size(), /*grain=*/1,
                  [&](size_t begin, size_t end) -> Status {
                    for (size_t i = begin; i < end; ++i) {
                      bitmaps[i] = ConjunctionBitmap(defs[i].edges, *relation);
                    }
                    return Status::OK();
                  }));

  // Phase 2 (serial): register in definition order so view indices are
  // identical to one-by-one materialization regardless of thread count.
  std::vector<size_t> indices;
  indices.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    const size_t index = relation->AddGraphView(std::move(bitmaps[i]));
    catalog->AddGraphView(defs[i], index);
    indices.push_back(index);
  }
  return indices;
}

StatusOr<std::vector<size_t>> MaterializeAggViews(
    const std::vector<AggViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  for (const AggViewDef& def : defs) {
    if (def.elements.size() < 2) {
      return Status::InvalidArgument(
          "aggregate views must cover at least two elements; single-element "
          "measures are already stored in the base schema");
    }
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
  }

  std::vector<MeasureColumn> columns(defs.size());
  COLGRAPH_RETURN_NOT_OK(ParallelFor(
      pool, 0, defs.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          COLGRAPH_ASSIGN_OR_RETURN(columns[i],
                                    ComputeAggColumn(defs[i], *relation));
        }
        return Status::OK();
      }));

  std::vector<size_t> indices;
  indices.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    const size_t index = relation->AddAggregateView(std::move(columns[i]));
    catalog->AddAggView(defs[i], index);
    indices.push_back(index);
  }
  return indices;
}

Status RefreshAllViewsParallel(MasterRelation* relation,
                               const ViewCatalog& catalog, ThreadPool* pool) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("refresh requires a sealed relation");
  }
  const auto& graph_views = catalog.graph_views();
  const auto& agg_views = catalog.agg_views();
  for (const auto& [def, index] : graph_views) {
    (void)index;
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
  }
  for (const auto& [def, index] : agg_views) {
    (void)index;
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
  }

  // Recompute all replacement columns in parallel (read-only over the base
  // columns), then swap them in serially in catalog order.
  std::vector<Bitmap> bitmaps(graph_views.size());
  COLGRAPH_RETURN_NOT_OK(ParallelFor(
      pool, 0, graph_views.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          bitmaps[i] = ConjunctionBitmap(graph_views[i].first.edges, *relation);
        }
        return Status::OK();
      }));
  std::vector<MeasureColumn> columns(agg_views.size());
  COLGRAPH_RETURN_NOT_OK(ParallelFor(
      pool, 0, agg_views.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          COLGRAPH_ASSIGN_OR_RETURN(
              columns[i], ComputeAggColumn(agg_views[i].first, *relation));
        }
        return Status::OK();
      }));

  for (size_t i = 0; i < graph_views.size(); ++i) {
    relation->ReplaceGraphView(graph_views[i].second, std::move(bitmaps[i]));
  }
  for (size_t i = 0; i < agg_views.size(); ++i) {
    relation->ReplaceAggregateView(agg_views[i].second, std::move(columns[i]));
  }
  return Status::OK();
}

Status RefreshViewsIncremental(MasterRelation* relation,
                               const ViewCatalog& catalog,
                               size_t first_new_record) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("refresh requires a sealed relation");
  }
  for (const auto& [def, index] : catalog.graph_views()) {
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
    relation->ReplaceGraphView(index, ConjunctionBitmap(def.edges, *relation));
  }
  for (const auto& [def, index] : catalog.agg_views()) {
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
    const MeasureColumn& old_mp = relation->PeekAggregateView(index);
    Bitmap bp = ConjunctionBitmap(def.elements, *relation);

    // Old packed values carry over verbatim (records < first_new_record
    // are immutable); only the appended range is aggregated.
    std::vector<double> values;
    values.reserve(bp.Count());
    for (size_t r = 0; r < old_mp.num_values(); ++r) {
      values.push_back(old_mp.ValueAtRank(r));
    }
    AppendAggValues(def, *relation, bp, first_new_record, &values);
    COLGRAPH_ASSIGN_OR_RETURN(
        MeasureColumn mp, MeasureColumn::FromParts(std::move(bp),
                                                   std::move(values)));
    relation->ReplaceAggregateView(index, std::move(mp));
  }
  return Status::OK();
}

Status RefreshAllViews(MasterRelation* relation, const ViewCatalog& catalog) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("refresh requires a sealed relation");
  }
  for (const auto& [def, index] : catalog.graph_views()) {
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
    relation->ReplaceGraphView(index, ConjunctionBitmap(def.edges, *relation));
  }
  for (const auto& [def, index] : catalog.agg_views()) {
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
    COLGRAPH_ASSIGN_OR_RETURN(MeasureColumn mp,
                              ComputeAggColumn(def, *relation));
    relation->ReplaceAggregateView(index, std::move(mp));
  }
  return Status::OK();
}

}  // namespace colgraph
