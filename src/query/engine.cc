#include "query/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace colgraph {

QueryEngine::ResolvedQuery QueryEngine::Resolve(const GraphQuery& query) const {
  ResolvedQuery resolved;
  const DirectedGraph& g = query.graph();
  for (const Edge& e : g.edges()) {
    const auto id = catalog_->Lookup(e);
    if (!id.has_value()) {
      if (e.IsNode()) continue;  // node without a measure column: unconstrained
      resolved.satisfiable = false;  // edge never seen: no record matches
      continue;
    }
    resolved.ids.push_back(*id);
  }
  // Isolated nodes constrain the result when they carry a measure column.
  for (const NodeRef& n : g.nodes()) {
    if (g.OutDegree(n) == 0 && g.InDegree(n) == 0) {
      const auto id = catalog_->Lookup(Edge{n, n});
      if (id.has_value()) resolved.ids.push_back(*id);
    }
  }
  std::sort(resolved.ids.begin(), resolved.ids.end());
  resolved.ids.erase(std::unique(resolved.ids.begin(), resolved.ids.end()),
                     resolved.ids.end());
  return resolved;
}

size_t QueryEngine::SourceCardinality(const BitmapSource& source) const {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge:
      return relation_->EdgeBitmapCardinality(
          static_cast<EdgeId>(source.index));
    case BitmapSource::Kind::kGraphView:
      return relation_->GraphViewCardinality(source.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return relation_->AggViewCardinality(source.index);
  }
  return 0;
}

const Bitmap& QueryEngine::FetchSource(const BitmapSource& source) const {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge:
      return relation_->FetchEdgeBitmap(static_cast<EdgeId>(source.index));
    case BitmapSource::Kind::kGraphView:
      return relation_->FetchGraphView(source.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return relation_->FetchAggregateViewBitmap(source.index);
  }
  // Unreachable; keeps -Wreturn-type happy.
  return relation_->FetchEdgeBitmap(0);
}

const HybridBitmap* QueryEngine::PeekSourceHybrid(
    const BitmapSource& source) const {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge:
      return relation_->PeekEdgeBitmapHybrid(
          static_cast<EdgeId>(source.index));
    case BitmapSource::Kind::kGraphView:
      return relation_->PeekGraphViewHybrid(source.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return relation_->PeekAggViewBitmapHybrid(source.index);
  }
  return nullptr;
}

QueryEngine::SourceRef QueryEngine::FetchSourceRef(
    const BitmapSource& source) const {
  SourceRef ref;
  ref.plain = &FetchSource(source);
  ref.hybrid = PeekSourceHybrid(source);
  return ref;
}

size_t QueryEngine::TotalRecords() const {
  size_t total = relation_->num_records();
  if (tails_ != nullptr) {
    for (const RelationSegment& seg : *tails_) {
      total += seg.relation->num_records();
    }
  }
  return total;
}

Bitmap QueryEngine::MatchIdsInTail(const MasterRelation& tail,
                                   const std::vector<EdgeId>& ids) const {
  // An edge the tail has no column for was never recorded in it, so the
  // conjunction is empty. (The unconstrained ids.empty() case is handled
  // by MatchIds before segments come into play.)
  for (const EdgeId id : ids) {
    if (id >= tail.num_edge_columns()) return Bitmap(tail.num_records());
  }
  Bitmap result = tail.FetchEdgeBitmap(ids.front());
  for (size_t i = 1; i < ids.size() && !result.None(); ++i) {
    result.And(tail.FetchEdgeBitmap(ids[i]));
  }
  return result;
}

Bitmap QueryEngine::MatchIds(const std::vector<EdgeId>& ids,
                             const QueryOptions& options,
                             bool consider_agg_bitmaps,
                             MatchPlan* plan_out) const {
  if (plan_out != nullptr) plan_out->sources.clear();
  if (ids.empty()) {
    // An unconstrained query matches everything — tail records included.
    Bitmap all(TotalRecords());
    all.Fill();
    return all;
  }
  // Incremental ingest can grow the catalog past the primary's columns
  // (a tail introduced the edge); the primary then cannot contain the
  // query and contributes an empty conjunct. Only reachable with tails:
  // in single-relation mode the catalog and relation grow in lockstep.
  if (HasTails() &&
      std::any_of(ids.begin(), ids.end(), [&](EdgeId id) {
        return id >= relation_->num_edge_columns();
      })) {
    Bitmap full(TotalRecords());
    for (const RelationSegment& seg : *tails_) {
      full.OrAt(MatchIdsInTail(*seg.relation, ids), seg.base);
    }
    return full;
  }
  MatchPlan plan;
  {
    const obs::Span span(obs::QueryPhase::kRewrite, options.trace);
    plan = PlanMatch(ids, options.use_views ? views_ : nullptr,
                     consider_agg_bitmaps);
    if (options.order_by_selectivity) {
      // AND the most selective bitmaps first so the running conjunction
      // empties (and short-circuits) as early as possible. Cardinalities
      // come from the sealed columns' rank directories — free statistics.
      std::sort(plan.sources.begin(), plan.sources.end(),
                [&](const BitmapSource& a, const BitmapSource& b) {
                  return SourceCardinality(a) < SourceCardinality(b);
                });
    }
    if (plan_out != nullptr) *plan_out = plan;
  }
  const obs::Span span(obs::QueryPhase::kBitmapAnd, options.trace);
  // The running conjunction stays in the hybrid (compressed) domain as long
  // as every operand so far has a hybrid sidecar — container-level ANDs
  // touch only the compressed payloads. The first plain operand (or the
  // final result) materializes it into words once; from there hybrid
  // operands apply in place via AndInto's word kernels.
  const SourceRef front = FetchSourceRef(plan.sources.front());
  std::optional<HybridBitmap> running;
  Bitmap result;
  if (front.hybrid != nullptr) {
    running = *front.hybrid;
  } else {
    result = *front.plain;
  }
  for (size_t i = 1; i < plan.sources.size(); ++i) {
    // Short-circuit: once the conjunction is empty no further bitmap can
    // add records, so stop fetching. This is why column-store query time
    // *drops* as query graphs grow (Figure 3b): bigger queries are more
    // selective and the AND pipeline exits early.
    if (running.has_value() ? running->None() : result.None()) break;
    const SourceRef ref = FetchSourceRef(plan.sources[i]);
    if (running.has_value()) {
      if (ref.hybrid != nullptr) {
        running = HybridBitmap::And(*running, *ref.hybrid);
      } else {
        result = running->ToBitmap();
        running.reset();
        result.And(*ref.plain);
      }
    } else if (ref.hybrid != nullptr) {
      ref.hybrid->AndInto(&result);
    } else {
      result.And(*ref.plain);
    }
  }
  if (running.has_value()) result = running->ToBitmap();
  if (!HasTails()) return result;

  // Multi-dataset OR (DESIGN.md §14): the global answer is the union of
  // the per-dataset answers, each blitted at its segment's base offset.
  Bitmap full(TotalRecords());
  full.OrAt(result, 0);
  for (const RelationSegment& seg : *tails_) {
    full.OrAt(MatchIdsInTail(*seg.relation, ids), seg.base);
  }
  return full;
}

Bitmap QueryEngine::Match(const GraphQuery& query,
                          const QueryOptions& options) const {
  const ResolvedQuery resolved = Resolve(query);
  if (!resolved.satisfiable) return Bitmap(TotalRecords());
  return MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/false);
}

Bitmap QueryEngine::AndSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.And(b);
  return r;
}

Bitmap QueryEngine::OrSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.Or(b);
  return r;
}

Bitmap QueryEngine::AndNotSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.AndNot(b);
  return r;
}

MeasureTable QueryEngine::FetchMeasures(const Bitmap& matches,
                                        const std::vector<EdgeId>& edges) const {
  const obs::Span span(obs::QueryPhase::kFetch, nullptr);
  MeasureTable table;
  table.edges = edges;
  matches.AppendSetBits(&table.records);
  table.columns.resize(edges.size());
  // Zero matching rows: no measure column needs to be read at all — the
  // other face of "larger queries are cheaper" (Figure 3b).
  if (table.records.empty()) return table;

  if (HasTails()) {
    // Multi-dataset fetch (DESIGN.md §14): each row is filled from the
    // segment that owns its global record id. The match list is sorted and
    // segments are contiguous id ranges, so the routing is one monotone
    // sweep. The partition merge-join modeling below applies to a single
    // store; tails are small unpartitioned appendices, so each touched
    // segment counts as one partition visit.
    constexpr double kTailNull = std::numeric_limits<double>::quiet_NaN();
    struct Segment {
      const MasterRelation* rel;
      size_t base;
      size_t num;
    };
    std::vector<Segment> segments;
    segments.push_back({relation_, 0, relation_->num_records()});
    for (const RelationSegment& t : *tails_) {
      segments.push_back({t.relation, t.base, t.relation->num_records()});
    }
    for (auto& column : table.columns) {
      column.assign(table.records.size(), kTailNull);
    }
    FetchStats& stats = relation_->stats();
    size_t row = 0;
    for (const Segment& seg : segments) {
      const size_t first = row;
      while (row < table.records.size() &&
             table.records[row] < seg.base + seg.num) {
        ++row;
      }
      if (row == first) continue;
      ++stats.partitions_touched;
      for (size_t i = 0; i < edges.size(); ++i) {
        // A column the segment never grew stays NULL for its records.
        if (edges[i] >= seg.rel->num_edge_columns()) continue;
        seg.rel->FetchMeasureColumn(edges[i]).Gather(
            table.records.data() + first, row - first, seg.base,
            table.columns[i].data() + first);
        stats.values_fetched += row - first;
      }
    }
    return table;
  }

  // Group requested columns by vertical partition (Section 6.1).
  std::map<size_t, std::vector<size_t>> by_partition;  // partition -> idx
  for (size_t i = 0; i < edges.size(); ++i) {
    by_partition[relation_->PartitionOf(edges[i])].push_back(i);
  }
  FetchStats& stats = relation_->stats();
  stats.partitions_touched += by_partition.size();

  // Gathers one column for every record of `records` (NaN when NULL).
  auto gather = [&](EdgeId edge, const std::vector<RecordId>& records,
                    std::vector<double>* out) {
    out->resize(records.size());
    relation_->FetchMeasureColumn(edge).Gather(records.data(), records.size(),
                                               0, out->data());
    stats.values_fetched += records.size();
  };

  if (by_partition.size() <= 1) {
    // Single sub-relation: gather straight into the result columns.
    for (size_t i = 0; i < edges.size(); ++i) {
      gather(edges[i], table.records, &table.columns[i]);
    }
    return table;
  }

  // Multiple sub-relations: each partition assembles its own
  // (recid, values...) rows; the partials are then merge-joined on recid.
  // Both sides are sorted by recid, so each join is a linear merge — but
  // the extra materialization and merging is real work that grows with the
  // partition count, reproducing the degradation of Figure 5.
  struct Partial {
    std::vector<RecordId> records;
    std::vector<size_t> column_slots;            // indexes into table.columns
    std::vector<std::vector<double>> columns;    // aligned with column_slots
  };
  std::vector<Partial> partials;
  partials.reserve(by_partition.size());
  for (const auto& [partition, slots] : by_partition) {
    (void)partition;
    Partial part;
    part.records = table.records;
    part.column_slots = slots;
    part.columns.resize(slots.size());
    for (size_t s = 0; s < slots.size(); ++s) {
      gather(edges[slots[s]], part.records, &part.columns[s]);
    }
    partials.push_back(std::move(part));
  }
  // Merge join: all partials share the match list, so the join key
  // sequences are identical; copy each partial's columns into place.
  stats.partition_joins += partials.size() - 1;
  for (Partial& part : partials) {
    for (size_t s = 0; s < part.column_slots.size(); ++s) {
      table.columns[part.column_slots[s]] = std::move(part.columns[s]);
    }
  }
  return table;
}

StatusOr<MeasureTable> QueryEngine::RunGraphQueryImpl(
    const GraphQuery& query, const QueryOptions& options,
    MatchPlan* plan_out) const {
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.graph.count");
  static obs::LatencyHistogram& total =
      obs::MetricsRegistry::Global().GetHistogram("query.graph.total_us");
  if (obs::MetricsEnabled()) queries.Increment();
  const obs::Span total_span(&total, nullptr, "query");

  // Cooperative cancellation: poll at the phase boundaries (the match can
  // fetch many bitmaps, the fetch many columns) so a fired deadline
  // abandons the query between phases instead of after the fact.
  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));

  ResolvedQuery resolved;
  {
    const obs::Span span(obs::QueryPhase::kResolve, options.trace);
    resolved = Resolve(query);
  }
  if (!resolved.satisfiable) {
    MeasureTable empty;
    empty.edges = resolved.ids;
    empty.columns.resize(resolved.ids.size());
    return empty;
  }
  const Bitmap matches =
      MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/false, plan_out);
  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
  // FetchMeasures records the fetch-phase histogram itself (it is a public
  // entry point too); the trace-only span here attributes the same
  // interval to this query's trace without double-counting the histogram.
  const obs::Span fetch_span(nullptr, options.trace,
                             obs::PhaseName(obs::QueryPhase::kFetch));
  return FetchMeasures(matches, resolved.ids);
}

void QueryEngine::AppendLogRecord(bool is_path_agg, AggFn fn,
                                  const GraphQuery& query,
                                  const MatchPlan& plan,
                                  const std::vector<uint32_t>& path_views,
                                  const obs::Trace& trace, uint64_t start_us,
                                  uint64_t result_cardinality) const {
  obs::QueryLogRecord rec;
  rec.kind =
      is_path_agg ? obs::QueryLogKind::kPathAgg : obs::QueryLogKind::kMatch;
  rec.fn = is_path_agg ? fn : AggFn::kSum;

  const DirectedGraph& g = query.graph();
  rec.edges = g.edges();
  for (const NodeRef& n : g.nodes()) {
    if (g.OutDegree(n) == 0 && g.InDegree(n) == 0) {
      rec.isolated_nodes.push_back(n);
    }
  }

  for (const BitmapSource& s : plan.sources) {
    if (s.kind == BitmapSource::Kind::kGraphView) {
      rec.graph_view_indexes.push_back(static_cast<uint32_t>(s.index));
    } else if (s.kind == BitmapSource::Kind::kAggViewBitmap) {
      rec.agg_view_indexes.push_back(static_cast<uint32_t>(s.index));
    }
  }
  // Aggregate views chosen by the path segmentation, on top of any bp
  // bitmaps the match plan ANDed (deduplicated, order-normalized).
  rec.agg_view_indexes.insert(rec.agg_view_indexes.end(), path_views.begin(),
                              path_views.end());
  std::sort(rec.agg_view_indexes.begin(), rec.agg_view_indexes.end());
  rec.agg_view_indexes.erase(std::unique(rec.agg_view_indexes.begin(),
                                         rec.agg_view_indexes.end()),
                             rec.agg_view_indexes.end());

  for (const obs::TraceEvent& ev : trace.events()) {
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      if (std::strcmp(ev.name,
                      obs::PhaseName(static_cast<obs::QueryPhase>(p))) == 0) {
        rec.phase_us[p] += ev.duration_us;
        break;
      }
    }
  }
  rec.total_us = obs::NowMicros() - start_us;
  rec.result_cardinality = result_cardinality;
  log_->Append(rec);
}

StatusOr<MeasureTable> QueryEngine::RunGraphQuery(
    const GraphQuery& query, const QueryOptions& options) const {
  if (log_ == nullptr || !obs::QueryLogEnabled()) {
    return RunGraphQueryImpl(query, options, nullptr);
  }
  // Capture path: run with a private trace so this query's phase timings
  // are attributable even inside a batch sharing one caller trace; the
  // events are forwarded to the caller's trace afterwards.
  const uint64_t start_us = obs::NowMicros();
  obs::Trace log_trace;
  QueryOptions opts = options;
  opts.trace = &log_trace;
  MatchPlan plan;
  StatusOr<MeasureTable> result = RunGraphQueryImpl(query, opts, &plan);
  if (options.trace != nullptr) {
    for (const obs::TraceEvent& ev : log_trace.events()) {
      options.trace->Add(ev.name, start_us + ev.start_us, ev.duration_us);
    }
  }
  if (result.ok()) {
    AppendLogRecord(/*is_path_agg=*/false, AggFn::kSum, query, plan, {},
                    log_trace, start_us, result.value().num_rows());
  }
  return result;
}

obs::ExplainResult QueryEngine::Explain(const GraphQuery& query,
                                        const QueryOptions& options) const {
  obs::ExplainResult result;
  const ResolvedQuery resolved = Resolve(query);
  result.query_edges = resolved.ids;
  result.satisfiable = resolved.satisfiable;
  if (!resolved.satisfiable) return result;
  ExplainMatchInto(resolved.ids, options, /*consider_agg_bitmaps=*/false,
                   &result);
  return result;
}

obs::ExplainResult QueryEngine::ExplainAggregate(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  obs::ExplainResult result;
  result.is_aggregate = true;
  const ResolvedQuery resolved = Resolve(query);
  result.query_edges = resolved.ids;
  result.satisfiable = resolved.satisfiable;
  if (!resolved.satisfiable) return result;
  // Same match plan RunAggregateQuery builds: aggregate-view bp bitmaps
  // are offered as covering bitmaps too.
  ExplainMatchInto(resolved.ids, options, /*consider_agg_bitmaps=*/true,
                   &result);

  // Path segmentation, mirroring RunAggregateQueryImpl. A cyclic query is
  // rejected by evaluation; EXPLAIN just reports zero paths for it.
  if (!query.graph().IsAcyclic()) return result;
  StatusOr<std::vector<Path>> paths = MaximalPaths(query.graph());
  if (!paths.ok()) return result;
  result.num_paths = paths.value().size();
  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  for (const Path& path : paths.value()) {
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      const auto id = catalog_->Lookup(e);
      if (id.has_value()) elements.push_back(*id);
    }
    const PathPlan plan = PlanPathAggregation(elements, fn, views);
    for (const PathSegment& seg : plan.segments) {
      if (seg.is_view) {
        result.agg_view_indexes.push_back(seg.agg_view_column);
        result.path_elements_from_views += seg.num_elements;
      } else {
        ++result.path_elements_atomic;
      }
    }
  }
  // One list for both roles an aggregate view plays (bp bitmap in the
  // match, column in the fold) — same semantics as a query-log record.
  std::sort(result.agg_view_indexes.begin(), result.agg_view_indexes.end());
  result.agg_view_indexes.erase(
      std::unique(result.agg_view_indexes.begin(),
                  result.agg_view_indexes.end()),
      result.agg_view_indexes.end());
  return result;
}

void QueryEngine::ExplainMatchInto(const std::vector<EdgeId>& ids,
                                   const QueryOptions& options,
                                   bool consider_agg_bitmaps,
                                   obs::ExplainResult* result) const {
  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  result->used_views =
      views != nullptr &&
      (views->num_graph_views() > 0 || views->num_agg_views() > 0);
  if (ids.empty()) {
    // Unconstrained query: matches everything, no bitmaps to AND.
    result->matched_records = TotalRecords();
    return;
  }
  // EXPLAIN annotates the primary store's plan. An edge only tail
  // datasets know makes that plan an empty conjunct — report it as such
  // instead of indexing columns the primary does not have.
  if (HasTails() &&
      std::any_of(ids.begin(), ids.end(), [&](EdgeId id) {
        return id >= relation_->num_edge_columns();
      })) {
    result->matched_records = 0;
    return;
  }

  AnnotatedMatchPlan plan = PlanMatchAnnotated(ids, views,
                                               consider_agg_bitmaps);
  if (options.order_by_selectivity) {
    // Mirror MatchIds' execution order exactly (stable sort is not needed
    // there either: SourceCardinality is a strict weak order over the same
    // values, and equal-cardinality ties keep plan order via std::sort's
    // determinism on identical input).
    std::sort(plan.sources.begin(), plan.sources.end(),
              [&](const AnnotatedSource& a, const AnnotatedSource& b) {
                return SourceCardinality(a.source) <
                       SourceCardinality(b.source);
              });
  }

  Bitmap running;
  bool first = true;
  for (const AnnotatedSource& annotated : plan.sources) {
    obs::ExplainSource out;
    out.source = annotated.source;
    out.covers = annotated.covers;
    out.estimated_cardinality = SourceCardinality(annotated.source);
    out.hybrid = PeekSourceHybrid(annotated.source) != nullptr;
    if (first) {
      running = FetchSource(annotated.source);
      first = false;
    } else if (!running.None()) {
      running.And(FetchSource(annotated.source));
    }
    out.cumulative_cardinality = running.Count();
    if (annotated.source.kind == BitmapSource::Kind::kEdge) {
      result->residual_edges.push_back(static_cast<EdgeId>(
          annotated.source.index));
    } else if (annotated.source.kind == BitmapSource::Kind::kGraphView) {
      result->graph_view_indexes.push_back(annotated.source.index);
    } else if (annotated.source.kind == BitmapSource::Kind::kAggViewBitmap) {
      result->agg_view_indexes.push_back(annotated.source.index);
    }
    result->sources.push_back(std::move(out));
  }
  std::sort(result->residual_edges.begin(), result->residual_edges.end());
  result->matched_records = running.Count();
}

}  // namespace colgraph
