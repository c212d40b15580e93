// Column primitives of the master relation (Section 4): a bitmap column
// b_i marks the records containing edge e_i; a measure column m_i stores
// the edge's measure for exactly those records. Measures are stored
// NULL-suppressed (packed values + presence bitmap + rank directory), which
// is what gives the column store its density-independent footprint
// (Figure 4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/hybrid_bitmap.h"
#include "util/status.h"

namespace colgraph {

class AggAccumulator;

/// \brief A bitmap column with O(1) rank support.
///
/// Rank(r) = number of set bits strictly before position r; it is the index
/// of record r's value in the packed value array of the owning measure
/// column. The rank directory is built by Seal() after bulk ingest.
class BitmapColumn {
 public:
  BitmapColumn() = default;
  explicit BitmapColumn(size_t num_records) : bits_(num_records) {}
  explicit BitmapColumn(Bitmap bits) : bits_(std::move(bits)) { Seal(); }

  const Bitmap& bits() const { return bits_; }
  Bitmap& mutable_bits() { return bits_; }

  void Resize(size_t num_records) { bits_.Resize(num_records); }
  void Set(size_t record) { bits_.Set(record); }
  bool Test(size_t record) const { return bits_.Test(record); }

  /// Builds the rank directory; must be called after the last mutation.
  void Seal();
  /// Re-enables mutation (incremental ingest); Seal() again afterwards.
  /// Drops any hybrid encoding — ChooseEncoding() again after resealing.
  void Unseal() {
    sealed_ = false;
    hybrid_.reset();
  }
  bool sealed() const { return sealed_; }

  /// Density threshold for the hybrid encoding: a sealed column whose
  /// cardinality is at most size/256 (<= 1/256 of records set) gets a
  /// hybrid-container sidecar; denser columns stay word-parallel. The
  /// sidecar exists purely to accelerate the engine's conjunction loop
  /// (the plain words are kept either way), so the cutoff sits where
  /// container-at-a-time AND beats word-at-a-time AND: measured break-even
  /// is ~1/250 density on equal-density 4-way ANDs (bench_fig3c_density
  /// supplement — 0.9x at 1/250, 1.6x at 1/500, 2.7x at 1/1000), and
  /// cost-ordered mixed-density chains only shift it sparser-favorable.
  static constexpr size_t kHybridDensityDivisor = 256;

  /// Picks the column's compressed encoding from its density statistics.
  /// Requires sealed(). When `hybrid_enabled` and the column is at or
  /// below the density threshold, builds a HybridBitmap sidecar that the
  /// query engine's conjunction loop consumes; otherwise drops any
  /// existing one. Deterministic for given contents.
  void ChooseEncoding(bool hybrid_enabled);

  /// The hybrid encoding, or nullptr when the column is plain-encoded.
  const HybridBitmap* hybrid() const { return hybrid_.get(); }

  /// Number of set bits strictly before `pos`. Requires sealed().
  size_t Rank(size_t pos) const;

  /// Set-bit count; O(1) after Seal() (cached), O(words) before.
  size_t Count() const { return sealed_ ? count_ : bits_.Count(); }
  size_t size() const { return bits_.size(); }

  /// In-memory footprint (bits + rank directory).
  size_t MemoryBytes() const {
    return bits_.MemoryBytes() + rank_.size() * sizeof(uint32_t);
  }

 private:
  // The select kernels read the words and the rank directory directly.
  friend class MeasureColumn;

  Bitmap bits_;
  std::vector<uint32_t> rank_;  // cumulative popcount before each word
  // Hybrid sidecar (shared_ptr keeps columns cheaply copyable); null for
  // plain-encoded columns.
  std::shared_ptr<const HybridBitmap> hybrid_;
  size_t count_ = 0;  // cached cardinality (valid when sealed)
  bool sealed_ = false;
};

/// \brief A NULL-suppressed measure column: packed non-NULL values plus the
/// presence bitmap. The presence bitmap doubles as the edge's bitmap index
/// b_i — physically one structure, logically two columns, exactly as in
/// Table 1 where b_i = NOT NULL(m_i).
class MeasureColumn {
 public:
  MeasureColumn() = default;

  /// Appends a value for `record`. Records must arrive in increasing order
  /// (bulk ingest); Seal() freezes the column.
  [[nodiscard]] Status Append(size_t record, double value);

  /// Reconstructs a sealed column from its stored parts: the presence
  /// bitmap and the packed values (one per set bit, in record order).
  static StatusOr<MeasureColumn> FromParts(Bitmap presence,
                                           std::vector<double> values);

  /// Resizes the presence domain to the final record count and builds rank.
  void Seal(size_t num_records);
  /// Re-opens a sealed column for appends of records with ids >= the
  /// current presence-domain size (incremental ingest, Section 6.1's
  /// "records are continuously generated"). Existing data is untouched.
  void Unseal();
  bool sealed() const { return presence_.sealed(); }

  /// Applies the seal-time encoding choice to the presence bitmap (see
  /// BitmapColumn::ChooseEncoding). Requires sealed().
  void ChooseEncoding(bool hybrid_enabled) {
    presence_.ChooseEncoding(hybrid_enabled);
  }

  /// Value of `record`, or nullopt when NULL. Requires sealed(). One cell
  /// at a time; fetches and folds over many records use Gather/FoldInto.
  std::optional<double> Get(size_t record) const;

  // Select-by-bitmap kernels (DESIGN.md, "Measure fetch kernel"). Both walk
  // `n` record ids in ascending order, each rebased by `base` (a tail
  // dataset's global offset; 0 for the primary relation), so that
  // records[i] - base indexes this column. Per record they read the
  // presence word once and compute the packed-value index inline as
  // rank[word] + popcount(word & bits-below). Require sealed().

  /// out[i] = value of record records[i] - base, or NaN when NULL.
  void Gather(const uint64_t* records, size_t n, size_t base,
              double* out) const;

  /// Folds the value of record records[i] - base into accs[i]: Add() when
  /// `view_elements` is 0 (an atomic measure), else Merge(value,
  /// view_elements) (an aggregate-view segment). NULL leaves accs[i] as is.
  void FoldInto(const uint64_t* records, size_t n, size_t base,
                size_t view_elements, AggAccumulator* accs) const;

  /// Packed value by rank (for scans that already know the rank).
  double ValueAtRank(size_t rank) const { return values_[rank]; }

  const BitmapColumn& presence() const { return presence_; }
  size_t num_values() const { return values_.size(); }

  size_t MemoryBytes() const {
    return presence_.MemoryBytes() + values_.size() * sizeof(double);
  }

 private:
  // During ingest, presence bits live in `pending_records_` until Seal
  // learns the final record count.
  std::vector<uint64_t> pending_records_;
  std::vector<double> values_;
  BitmapColumn presence_;
  // After Unseal(), appends must not collide with already-sealed records.
  uint64_t min_next_record_ = 0;
};

}  // namespace colgraph
