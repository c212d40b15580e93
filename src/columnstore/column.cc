#include "columnstore/column.h"

#include <limits>

#include "bitmap/simd.h"
#include "query/agg_fn.h"
#include "util/check.h"

namespace colgraph {

namespace {

// The select-by-bitmap loop behind MeasureColumn::Gather and FoldInto.
// Per record: one presence-word read, then either sink.Null(i) or
// sink.Present(i, rank) with the packed-value index computed inline. The
// body is inlined into Select (portable) and into a COLGRAPH_POPCNT_TARGET
// wrapper; only the latter turns __builtin_popcountll into POPCNT.
template <typename Sink>
[[gnu::always_inline]] inline void SelectBody(const uint64_t* words,
                                              const uint32_t* rank,
                                              const uint64_t* records,
                                              size_t n, size_t base,
                                              Sink& sink) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = records[i] - base;
    const size_t w = static_cast<size_t>(r / Bitmap::kWordBits);
    const uint64_t word = words[w];
    const uint64_t bit = uint64_t{1} << (r % Bitmap::kWordBits);
    if ((word & bit) == 0) {
      sink.Null(i);
      continue;
    }
    sink.Present(i, rank[w] + static_cast<uint32_t>(
                                  __builtin_popcountll(word & (bit - 1))));
  }
}

#if defined(COLGRAPH_HAVE_POPCNT_TARGET)
template <typename Sink>
COLGRAPH_POPCNT_TARGET void SelectPopcnt(const uint64_t* words,
                                         const uint32_t* rank,
                                         const uint64_t* records, size_t n,
                                         size_t base, Sink& sink) {
  SelectBody(words, rank, records, n, base, sink);
}
#endif

template <typename Sink>
void Select(const uint64_t* words, const uint32_t* rank,
            const uint64_t* records, size_t n, size_t base, Sink& sink) {
#if defined(COLGRAPH_HAVE_POPCNT_TARGET)
  if (simd::UsingHardwarePopcount()) {
    SelectPopcnt(words, rank, records, n, base, sink);
    return;
  }
#endif
  SelectBody(words, rank, records, n, base, sink);
}

struct GatherSink {
  const double* values;
  double* out;
  void Null(size_t i) { out[i] = std::numeric_limits<double>::quiet_NaN(); }
  void Present(size_t i, uint32_t rank) { out[i] = values[rank]; }
};

struct AddSink {
  const double* values;
  AggAccumulator* accs;
  void Null(size_t) {}
  void Present(size_t i, uint32_t rank) { accs[i].Add(values[rank]); }
};

struct MergeSink {
  const double* values;
  AggAccumulator* accs;
  size_t elements;
  void Null(size_t) {}
  void Present(size_t i, uint32_t rank) {
    accs[i].Merge(values[rank], elements);
  }
};

}  // namespace

void BitmapColumn::Seal() {
  const auto& words = bits_.words();
  rank_.resize(words.size());
  count_ = simd::RankPrefix(words.data(), words.size(), rank_.data());
  sealed_ = true;
}

void BitmapColumn::ChooseEncoding(bool hybrid_enabled) {
  COLGRAPH_DCHECK(sealed_);
  if (hybrid_enabled && count_ * kHybridDensityDivisor <= bits_.size()) {
    hybrid_ = std::make_shared<const HybridBitmap>(
        HybridBitmap::FromBitmap(bits_));
  } else {
    hybrid_.reset();
  }
}

size_t BitmapColumn::Rank(size_t pos) const {
  COLGRAPH_DCHECK(sealed_);
  COLGRAPH_DCHECK_LE(pos, bits_.size());
  const size_t word = pos / Bitmap::kWordBits;
  const size_t bit = pos % Bitmap::kWordBits;
  if (word >= bits_.words().size()) return rank_.empty() ? 0 : Count();
  // A single position: the count of one masked word, through the same
  // dispatched popcount as the directory build.
  const uint64_t below = bits_.words()[word] & ((uint64_t{1} << bit) - 1);
  return rank_[word] + simd::CountWords(&below, 1);
}

Status MeasureColumn::Append(size_t record, double value) {
  if (!pending_records_.empty() && record <= pending_records_.back()) {
    return Status::InvalidArgument(
        "MeasureColumn::Append requires strictly increasing record ids");
  }
  if (record < min_next_record_) {
    return Status::InvalidArgument(
        "append into the already-sealed record range");
  }
  if (presence_.sealed()) {
    return Status::InvalidArgument("cannot append to a sealed column");
  }
  pending_records_.push_back(record);
  values_.push_back(value);
  return Status::OK();
}

StatusOr<MeasureColumn> MeasureColumn::FromParts(Bitmap presence,
                                                 std::vector<double> values) {
  if (presence.Count() != values.size()) {
    return Status::Corruption(
        "presence cardinality does not match packed value count");
  }
  MeasureColumn col;
  col.values_ = std::move(values);
  col.presence_ = BitmapColumn(std::move(presence));
  return col;
}

void MeasureColumn::Seal(size_t num_records) {
  presence_.Resize(num_records);
  for (uint64_t r : pending_records_) presence_.Set(r);
  pending_records_.clear();
  pending_records_.shrink_to_fit();
  presence_.Seal();
}

void MeasureColumn::Unseal() {
  min_next_record_ = presence_.size();
  presence_.Unseal();
}

std::optional<double> MeasureColumn::Get(size_t record) const {
  if (!presence_.Test(record)) return std::nullopt;
  return values_[presence_.Rank(record)];
}

void MeasureColumn::Gather(const uint64_t* records, size_t n, size_t base,
                           double* out) const {
  COLGRAPH_DCHECK(sealed());
  COLGRAPH_DCHECK(n == 0 || records[n - 1] - base < presence_.size());
  GatherSink sink{values_.data(), out};
  Select(presence_.bits_.words().data(), presence_.rank_.data(), records, n,
         base, sink);
}

void MeasureColumn::FoldInto(const uint64_t* records, size_t n, size_t base,
                             size_t view_elements,
                             AggAccumulator* accs) const {
  COLGRAPH_DCHECK(sealed());
  COLGRAPH_DCHECK(n == 0 || records[n - 1] - base < presence_.size());
  const uint64_t* words = presence_.bits_.words().data();
  const uint32_t* rank = presence_.rank_.data();
  if (view_elements == 0) {
    AddSink sink{values_.data(), accs};
    Select(words, rank, records, n, base, sink);
  } else {
    MergeSink sink{values_.data(), accs, view_elements};
    Select(words, rank, records, n, base, sink);
  }
}

}  // namespace colgraph
