// Path-aggregation execution (Section 3.4): F_Gq retrieves the records
// matching Gq and folds F along every maximal path of the query, per
// record. With views (Section 5.1.2) each path is first segmented into
// materialized aggregate-view segments plus atomic elements; the fold then
// touches one column per segment instead of one per element.
#include "query/engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace colgraph {

namespace {

// The aggregate fold runs column-at-a-time over chunks of at most
// kCancelCheckStride records, and polls the token before each chunk: a
// fired deadline abandons the fold within a bounded number of accumulator
// steps while keeping the poll off the per-record hot path.
constexpr size_t kCancelCheckStride = 4096;

}  // namespace

std::vector<QueryEngine::FoldSegment> QueryEngine::FoldSegments(
    const std::vector<EdgeId>& elements, const PathPlan& plan) const {
  std::vector<FoldSegment> out;
  out.reserve(1 + (HasTails() ? tails_->size() : 0));
  FoldSegment primary;
  primary.num = relation_->num_records();
  // An element only tail datasets know means no primary record matches the
  // path (the primary has no column for it), so the primary's segment
  // columns are never consulted — and must not be fetched out of range.
  const bool primary_covers_path =
      !HasTails() ||
      std::all_of(elements.begin(), elements.end(), [&](EdgeId e) {
        return e < relation_->num_edge_columns();
      });
  if (primary_covers_path) {
    primary.columns.reserve(plan.segments.size());
    for (const PathSegment& seg : plan.segments) {
      const MeasureColumn& col =
          seg.is_view ? relation_->FetchAggregateView(seg.agg_view_column)
                      : relation_->FetchMeasureColumn(seg.atom);
      primary.columns.push_back({&col, seg.is_view ? seg.num_elements : 0});
    }
  }
  primary.values_per_record = primary.columns.size();
  out.push_back(std::move(primary));
  if (!HasTails()) return out;
  for (const RelationSegment& seg : *tails_) {
    // Tail records fold atomically, element by element in path order —
    // views cover the primary store only (DESIGN.md §14). An element the
    // tail never saw is NULL for all its records, but still counts as a
    // fetched value, like a NULL cell does.
    FoldSegment fold;
    fold.base = seg.base;
    fold.num = seg.relation->num_records();
    fold.values_per_record = elements.size();
    for (const EdgeId e : elements) {
      if (e < seg.relation->num_edge_columns()) {
        fold.columns.push_back({&seg.relation->FetchMeasureColumn(e), 0});
      }
    }
    out.push_back(std::move(fold));
  }
  return out;
}

Status QueryEngine::FoldPath(const std::vector<RecordId>& records, AggFn fn,
                             const std::vector<FoldSegment>& segments,
                             const CancellationToken* cancel,
                             std::vector<double>* out) const {
  out->clear();
  out->reserve(records.size());
  FetchStats& stats = relation_->stats();
  std::vector<AggAccumulator> accs;
  size_t row = 0;
  // Records ascend and segments are contiguous ascending id ranges, so
  // each segment owns one run of rows.
  for (const FoldSegment& seg : segments) {
    const size_t seg_end = seg.base + seg.num;
    while (row < records.size() && records[row] < seg_end) {
      COLGRAPH_RETURN_NOT_OK(CheckCancellation(cancel));
      size_t n = 0;
      while (n < kCancelCheckStride && row + n < records.size() &&
             records[row + n] < seg_end) {
        ++n;
      }
      accs.assign(n, AggAccumulator(fn));
      // Column-at-a-time, columns in path order: each record still folds
      // its segments in path order, so results are bit-identical to a
      // record-at-a-time fold.
      for (const FoldColumn& col : seg.columns) {
        col.column->FoldInto(records.data() + row, n, seg.base,
                             col.view_elements, accs.data());
      }
      for (const AggAccumulator& acc : accs) out->push_back(acc.Result());
      stats.values_fetched += n * seg.values_per_record;
      row += n;
    }
  }
  COLGRAPH_DCHECK_EQ(row, records.size());
  return Status::OK();
}

StatusOr<PathAggResult> QueryEngine::AggregateAlongPath(
    const Path& path, AggFn fn, const QueryOptions& options) const {
  PathAggResult result;
  result.paths.push_back(path);

  // Resolve the path's measurable elements. A structural edge the catalog
  // has never seen makes the path unsatisfiable; node measures that were
  // never recorded have no column and simply do not constrain or
  // contribute (their columns were dropped from the schema, Section 4.1).
  std::vector<EdgeId> elements;
  for (const Edge& e : path.Elements()) {
    const auto id = catalog_->Lookup(e);
    if (!id.has_value()) {
      if (!e.IsNode()) {
        result.values.emplace_back();
        return result;  // unsatisfiable: no record ever had this edge
      }
      continue;
    }
    elements.push_back(*id);
  }

  const Bitmap matches =
      MatchIds(elements, options, /*consider_agg_bitmaps=*/true);
  matches.AppendSetBits(&result.records);

  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  const PathPlan plan = PlanPathAggregation(elements, fn, views);

  const std::vector<FoldSegment> segments = FoldSegments(elements, plan);

  const obs::Span agg_span(obs::QueryPhase::kAggregate, options.trace);
  std::vector<double> values;
  COLGRAPH_RETURN_NOT_OK(
      FoldPath(result.records, fn, segments, options.cancel, &values));
  result.values.push_back(std::move(values));
  return result;
}

StatusOr<PathAggResult> QueryEngine::RunAggregateQuery(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  if (log_ == nullptr || !obs::QueryLogEnabled()) {
    return RunAggregateQueryImpl(query, fn, options, nullptr, nullptr);
  }
  // Capture path — see RunGraphQuery for the private-trace rationale.
  const uint64_t start_us = obs::NowMicros();
  obs::Trace log_trace;
  QueryOptions opts = options;
  opts.trace = &log_trace;
  MatchPlan plan;
  std::vector<uint32_t> path_views;
  StatusOr<PathAggResult> result =
      RunAggregateQueryImpl(query, fn, opts, &plan, &path_views);
  if (options.trace != nullptr) {
    for (const obs::TraceEvent& ev : log_trace.events()) {
      options.trace->Add(ev.name, start_us + ev.start_us, ev.duration_us);
    }
  }
  if (result.ok()) {
    AppendLogRecord(/*is_path_agg=*/true, fn, query, plan, path_views,
                    log_trace, start_us, result.value().records.size());
  }
  return result;
}

StatusOr<PathAggResult> QueryEngine::RunAggregateQueryImpl(
    const GraphQuery& query, AggFn fn, const QueryOptions& options,
    MatchPlan* plan_out, std::vector<uint32_t>* path_views_out) const {
  if (!query.graph().IsAcyclic()) {
    return Status::InvalidArgument(
        "path aggregation requires a DAG query; flatten cycles first "
        "(Section 6.2)");
  }

  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.agg.count");
  static obs::LatencyHistogram& total =
      obs::MetricsRegistry::Global().GetHistogram("query.agg.total_us");
  if (obs::MetricsEnabled()) queries.Increment();
  const obs::Span total_span(&total, nullptr, "query");

  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));

  PathAggResult result;
  ResolvedQuery resolved;
  {
    const obs::Span span(obs::QueryPhase::kResolve, options.trace);
    resolved = Resolve(query);
  }
  if (!resolved.satisfiable) return result;

  // Structural match. Aggregate-view bitmaps are offered as covering
  // bitmaps too: for an aggregate query whose paths are materialized, bp
  // both filters and pays for itself.
  const Bitmap matches =
      MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/true, plan_out);
  matches.AppendSetBits(&result.records);

  COLGRAPH_ASSIGN_OR_RETURN(result.paths, MaximalPaths(query.graph()));

  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  const AggFn stored_fn = fn;  // plans match on the query's function

  const obs::Span agg_span(obs::QueryPhase::kAggregate, options.trace);
  for (const Path& path : result.paths) {
    COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
    // Catalog-resolvable elements of the path, in path order. Elements
    // without a column (e.g. nodes with no recorded measure) contribute
    // nothing to the aggregate.
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      const auto id = catalog_->Lookup(e);
      if (id.has_value()) elements.push_back(*id);
    }

    const PathPlan plan = PlanPathAggregation(elements, stored_fn, views);

    // Accounting counts one measure-column fetch per segment — the cost
    // reduction the views exist to provide.
    const std::vector<FoldSegment> segments = FoldSegments(elements, plan);
    if (!segments.front().columns.empty()) {
      ++relation_->stats().partitions_touched;
      if (path_views_out != nullptr) {
        for (const PathSegment& seg : plan.segments) {
          if (seg.is_view) {
            path_views_out->push_back(
                static_cast<uint32_t>(seg.agg_view_column));
          }
        }
      }
    }

    std::vector<double> values;
    COLGRAPH_RETURN_NOT_OK(
        FoldPath(result.records, fn, segments, options.cancel, &values));
    result.values.push_back(std::move(values));
  }
  return result;
}

}  // namespace colgraph
