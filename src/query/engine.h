// Query evaluation over the master relation (Sections 4.2, 5.3): graph
// queries reduce to bitmap conjunctions plus measure fetches; path
// aggregation folds an aggregate function along each maximal path of the
// query, reusing materialized aggregate views where possible.
#pragma once

#include <vector>

#include "bitmap/bitmap.h"
#include "columnstore/master_relation.h"
#include "graph/catalog.h"
#include "graph/graph.h"
#include "graph/path.h"
#include "obs/explain.h"
#include "query/agg_fn.h"
#include "query/rewriter.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "views/view_defs.h"

namespace colgraph {

namespace obs {
class Trace;
class QueryLog;
}  // namespace obs

/// \brief Column-major result of a measure fetch: `columns[i][r]` is the
/// measure of `edges[i]` for the r-th matching record (NaN when NULL).
struct MeasureTable {
  std::vector<RecordId> records;
  std::vector<EdgeId> edges;
  std::vector<std::vector<double>> columns;

  size_t num_rows() const { return records.size(); }
  size_t num_values() const { return num_rows() * columns.size(); }
};

/// \brief Result of a path-aggregation query F_Gq: one aggregate per
/// (maximal path, matching record) pair; `values[p][r]` aligns with
/// `paths[p]` and `records[r]`.
struct PathAggResult {
  std::vector<Path> paths;
  std::vector<RecordId> records;
  std::vector<std::vector<double>> values;
};

struct QueryOptions {
  /// Rewrite queries against materialized views (Section 5.3). When false
  /// the evaluation is oblivious to views: one bitmap per query edge, one
  /// measure column per element — the paper's baseline plan.
  bool use_views = true;
  /// AND the most selective bitmaps first (cardinalities are free from the
  /// sealed columns), maximizing early short-circuit on empty results.
  bool order_by_selectivity = true;
  /// Optional span collector: when set, every evaluation phase (resolve,
  /// rewrite, bitmap-AND, fetch, aggregate) appends a timed event. The
  /// Trace is thread-safe, so one may be shared by a whole EvaluateBatch.
  /// Phase histograms in obs::MetricsRegistry::Global() are fed whether or
  /// not a trace is attached (gated by obs::MetricsEnabled()).
  obs::Trace* trace = nullptr;
  /// Cooperative cancellation (DESIGN.md §12): when set, the evaluation
  /// loops poll the token at phase boundaries, per batch query, and every
  /// few thousand records of an aggregate fold, abandoning the query with
  /// Status::DeadlineExceeded / Status::Cancelled once it fires. The token
  /// must outlive the call; null means "never cancelled" (zero overhead).
  const CancellationToken* cancel = nullptr;
};

class ThreadPool;

/// \brief One extra store of records behind a query: an immutable tail
/// dataset (DESIGN.md §14) whose record 0 sits at global record id `base`.
/// The primary relation always occupies [0, primary.num_records()); tails
/// stack behind it in ingest order.
struct RelationSegment {
  const MasterRelation* relation = nullptr;
  size_t base = 0;
};

/// \brief Evaluator bound to one relation + catalogs, plus optional tail
/// datasets (incremental ingest, DESIGN.md §14).
///
/// Thread-safe: all query entry points are const reads over the sealed
/// relation(s) and catalogs, and the shared FetchStats counters are relaxed
/// atomics, so any number of threads may evaluate queries concurrently
/// (TSan-verified by tests/concurrency_test.cc). Materializing or
/// replacing *views* concurrently with queries that use those views is the
/// one excluded combination — see DESIGN.md §8 for the contract.
class QueryEngine {
 public:
  /// `query_log` (optional) captures every executed query — structure,
  /// chosen views, per-phase timings, result cardinality — for replay and
  /// workload-driven view advice (DESIGN.md §10). The log outlives the
  /// evaluator; hooks are skipped when obs::QueryLogEnabled() is off.
  ///
  /// `tails` (optional) appends immutable tail datasets behind the primary
  /// relation: matches become the OR of the per-dataset matches (each
  /// blitted at its segment base), fetches and aggregate folds route every
  /// global record id to the segment that owns it. Views cover the primary
  /// only — tail records are always evaluated from their atomic columns.
  /// nullptr or empty reproduces single-relation behavior bit for bit.
  QueryEngine(const MasterRelation* relation, const EdgeCatalog* catalog,
              const ViewCatalog* views, obs::QueryLog* query_log = nullptr,
              const std::vector<RelationSegment>* tails = nullptr)
      : relation_(relation),
        catalog_(catalog),
        views_(views),
        log_(query_log),
        tails_(tails) {}

  /// Resolves the query's structural elements to edge-column ids.
  ///
  /// A structural *edge* absent from the catalog makes the query
  /// unsatisfiable (no record ever contained it) — flagged via `satisfiable`.
  /// An isolated *node* without a measure column is unconstrained and
  /// skipped (its column was dropped from the schema, Section 4.1).
  struct ResolvedQuery {
    std::vector<EdgeId> ids;
    bool satisfiable = true;
  };
  ResolvedQuery Resolve(const GraphQuery& query) const;

  /// Records containing the query subgraph (bitmap over record ids).
  Bitmap Match(const GraphQuery& query, const QueryOptions& options = {}) const;

  /// Match via an explicit element-id set. `plan_out` (optional) receives
  /// the executed plan — sources in AND order, after the selectivity sort —
  /// so callers (the query-log hooks) can record the rewriter's choices
  /// without re-planning.
  Bitmap MatchIds(const std::vector<EdgeId>& ids, const QueryOptions& options,
                  bool consider_agg_bitmaps,
                  MatchPlan* plan_out = nullptr) const;

  // Logical combinators over answer sets (Section 3.2):
  // [Gq1 AND Gq2] = intersection, [Gq1 OR Gq2] = union,
  // [Gq1 AND NOT Gq2] = difference.
  static Bitmap AndSets(const Bitmap& a, const Bitmap& b);
  static Bitmap OrSets(const Bitmap& a, const Bitmap& b);
  static Bitmap AndNotSets(const Bitmap& a, const Bitmap& b);

  /// Fetches the measures of `edges` for every record in `matches`,
  /// honoring vertical partitioning: when the columns span p partitions,
  /// the per-partition column groups are assembled separately and
  /// merge-joined on recid (p-1 joins), reproducing the Figure 5 effect.
  MeasureTable FetchMeasures(const Bitmap& matches,
                             const std::vector<EdgeId>& edges) const;

  /// Full graph query: match then fetch all of the query's measures.
  [[nodiscard]] StatusOr<MeasureTable> RunGraphQuery(const GraphQuery& query,
                                       const QueryOptions& options = {}) const;

  /// Path-aggregation query F_Gq (Section 3.4). The query graph must be a
  /// DAG (flatten cyclic queries first).
  [[nodiscard]] StatusOr<PathAggResult> RunAggregateQuery(
      const GraphQuery& query, AggFn fn,
      const QueryOptions& options = {}) const;

  // --- Batch evaluation (inter-query parallelism). ---
  //
  // A workload of independent queries fans out across `pool` (nullptr or a
  // serial pool = inline, deterministic order). Results land in pre-sized,
  // index-addressed slots — never appended — so the output is bit-identical
  // to serial evaluation for every thread count. The first failing query
  // (lowest index) aborts the batch with its Status.

  /// Evaluates `queries[i]` into slot i of the result, one RunGraphQuery
  /// per query, in parallel across `pool`.
  [[nodiscard]] StatusOr<std::vector<MeasureTable>> EvaluateBatch(
      const std::vector<GraphQuery>& queries, const QueryOptions& options = {},
      ThreadPool* pool = nullptr) const;

  /// Evaluates `queries[i]` into slot i, one RunAggregateQuery(fn) per
  /// query, in parallel across `pool`.
  [[nodiscard]] StatusOr<std::vector<PathAggResult>> EvaluatePathAggBatch(
      const std::vector<GraphQuery>& queries, AggFn fn,
      const QueryOptions& options = {}, ThreadPool* pool = nullptr) const;

  /// EXPLAIN for a graph query: the rewriter's decisions (views chosen,
  /// residual atomic edges) plus estimated vs. actual bitmap
  /// cardinalities, without fetching any measures. The sources are exactly
  /// the plan MatchIds would AND, in the same order (including the
  /// selectivity sort). Reads the plan's bitmaps to compute the running
  /// conjunction, so it counts against FetchStats like a Match would.
  obs::ExplainResult Explain(const GraphQuery& query,
                             const QueryOptions& options = {}) const;

  /// EXPLAIN for a path-aggregation query: the match plan RunAggregateQuery
  /// would AND (aggregate-view bp bitmaps included, so the sources and
  /// their estimated/actual cardinalities match the kAggViewBitmap
  /// behavior) plus the path segmentation — which maximal paths fold over
  /// materialized aggregate-view columns vs. atomic measure columns. A
  /// cyclic query (which evaluation rejects) reports zero paths.
  obs::ExplainResult ExplainAggregate(const GraphQuery& query, AggFn fn,
                                      const QueryOptions& options = {}) const;

  /// Aggregates F along one explicit path, honoring open ends
  /// (Section 3.3): e.g. (D,E,G) folds the edges and E's own measure but
  /// excludes the endpoint measures of D and G. Matches are the records
  /// containing every element of the path.
  [[nodiscard]] StatusOr<PathAggResult> AggregateAlongPath(
      const Path& path, AggFn fn, const QueryOptions& options = {}) const;

  const MasterRelation& relation() const { return *relation_; }

 private:
  bool HasTails() const { return tails_ != nullptr && !tails_->empty(); }
  /// Global record-id domain: primary records plus every tail's records.
  size_t TotalRecords() const;
  /// Tail-local match: plain per-edge bitmap AND over one tail dataset
  /// (no views, no hybrid pipeline — tails are small appendices). An edge
  /// id the tail has no column for matches nothing in it.
  Bitmap MatchIdsInTail(const MasterRelation& tail,
                        const std::vector<EdgeId>& ids) const;

  /// One column of a path fold: an atomic measure (view_elements == 0) or
  /// an aggregate-view segment covering view_elements measures.
  struct FoldColumn {
    const MeasureColumn* column = nullptr;
    size_t view_elements = 0;
  };
  /// One store's fold inputs for a path: the records [base, base + num)
  /// fold `columns` in path order and count values_per_record fetched
  /// values each (NULL cells and columns a tail never grew included).
  struct FoldSegment {
    size_t base = 0;
    size_t num = 0;
    std::vector<FoldColumn> columns;
    size_t values_per_record = 0;
  };
  /// The primary store's segment (the plan's view and atomic columns; none
  /// when a path element exists only in tails), then one atomic segment
  /// per tail dataset.
  std::vector<FoldSegment> FoldSegments(const std::vector<EdgeId>& elements,
                                        const PathPlan& plan) const;
  /// Folds `fn` for every record of `records` (ascending global ids) into
  /// *out, one value per record, column-at-a-time through
  /// MeasureColumn::FoldInto. Polls `cancel` every few thousand records.
  [[nodiscard]] Status FoldPath(const std::vector<RecordId>& records, AggFn fn,
                                const std::vector<FoldSegment>& segments,
                                const CancellationToken* cancel,
                                std::vector<double>* out) const;

  const Bitmap& FetchSource(const BitmapSource& source) const;
  /// A fetched source under both encodings: `plain` is always valid;
  /// `hybrid` is the column's seal-time hybrid sidecar or nullptr. One
  /// FetchSourceRef counts exactly one bitmap fetch (the hybrid peek is
  /// accounting-free), so FetchStats are identical whichever encoding the
  /// AND loop consumes.
  struct SourceRef {
    const Bitmap* plain = nullptr;
    const HybridBitmap* hybrid = nullptr;
  };
  SourceRef FetchSourceRef(const BitmapSource& source) const;
  /// The source's hybrid sidecar (nullptr when plain-encoded); no
  /// accounting.
  const HybridBitmap* PeekSourceHybrid(const BitmapSource& source) const;
  /// Set-bit count of a plan source, without counting as a fetch.
  size_t SourceCardinality(const BitmapSource& source) const;

  /// Shared EXPLAIN core: fills `result` with the annotated match plan for
  /// resolved edge ids (sources in AND order, per-step estimated vs.
  /// actual cardinalities, residual edges, chosen view indexes).
  void ExplainMatchInto(const std::vector<EdgeId>& ids,
                        const QueryOptions& options,
                        bool consider_agg_bitmaps,
                        obs::ExplainResult* result) const;

  // Un-logged evaluation bodies; the public entry points wrap them with
  // the query-log capture when a log is attached.
  [[nodiscard]] StatusOr<MeasureTable> RunGraphQueryImpl(
      const GraphQuery& query, const QueryOptions& options,
      MatchPlan* plan_out) const;
  [[nodiscard]] StatusOr<PathAggResult> RunAggregateQueryImpl(
      const GraphQuery& query, AggFn fn, const QueryOptions& options,
      MatchPlan* plan_out, std::vector<uint32_t>* path_views_out) const;
  // Builds and appends one log record from an executed query's facts.
  void AppendLogRecord(bool is_path_agg, AggFn fn, const GraphQuery& query,
                       const MatchPlan& plan,
                       const std::vector<uint32_t>& path_views,
                       const obs::Trace& trace, uint64_t start_us,
                       uint64_t result_cardinality) const;

  const MasterRelation* relation_;
  const EdgeCatalog* catalog_;
  const ViewCatalog* views_;  // may be null (no views materialized)
  obs::QueryLog* log_;        // may be null (no capture configured)
  /// Tail datasets behind the primary; null/empty = single-relation mode.
  const std::vector<RelationSegment>* tails_;
};

}  // namespace colgraph
