#include "bitmap/ewah_bitmap.h"

#include "bitmap/simd.h"
#include "util/check.h"

namespace colgraph {

namespace {
constexpr uint64_t kMaxRunWords = 0xFFFFFFFFull;
constexpr uint64_t kMaxLiteralWords = (uint64_t{1} << 31) - 1;
}  // namespace

uint64_t EwahBitmap::MakeMarker(bool run_bit, uint64_t run_words,
                                uint64_t literal_words) {
  COLGRAPH_DCHECK_LE(run_words, kMaxRunWords);
  COLGRAPH_DCHECK_LE(literal_words, kMaxLiteralWords);
  return (literal_words << 33) | (run_words << 1) | (run_bit ? 1 : 0);
}

EwahBitmap EwahBitmap::FromBitmap(const Bitmap& bitmap) {
  EwahBitmap out;
  out.num_bits_ = bitmap.size();
  const auto& words = bitmap.words();

  size_t i = 0;
  while (i < words.size()) {
    // Greedily take a run of identical all-zero or all-one words.
    bool run_bit = false;
    uint64_t run_len = 0;
    while (i < words.size() && run_len < kMaxRunWords) {
      if (words[i] == 0) {
        if (run_len > 0 && run_bit) break;
        run_bit = false;
      } else if (words[i] == ~uint64_t{0}) {
        if (run_len > 0 && !run_bit) break;
        run_bit = true;
      } else {
        break;
      }
      ++run_len;
      ++i;
    }
    // Then the literal words until the next compressible run of >= 2 words
    // (a single fill word is cheaper stored as a literal than as a new
    // marker group, but the simple "until next fill word" policy is fine).
    size_t literal_start = i;
    while (i < words.size() && (i - literal_start) < kMaxLiteralWords) {
      const uint64_t w = words[i];
      if (w == 0 || w == ~uint64_t{0}) break;
      ++i;
    }
    const uint64_t literal_count = i - literal_start;
    out.buffer_.push_back(MakeMarker(run_bit, run_len, literal_count));
    for (size_t j = literal_start; j < i; ++j) out.buffer_.push_back(words[j]);
  }
  return out;
}

template <typename Fn>
void EwahBitmap::ForEachWord(Fn&& fn) const {
  size_t i = 0;
  while (i < buffer_.size()) {
    const uint64_t marker = buffer_[i++];
    const bool run_bit = MarkerRunBit(marker);
    const uint64_t run_words = MarkerRunWords(marker);
    const uint64_t fill = run_bit ? ~uint64_t{0} : 0;
    for (uint64_t k = 0; k < run_words; ++k) fn(fill);
    const uint64_t literal_words = MarkerLiteralWords(marker);
    for (uint64_t k = 0; k < literal_words; ++k) fn(buffer_[i++]);
  }
}

Bitmap EwahBitmap::ToBitmap() const {
  Bitmap out(num_bits_);
  auto& words = out.mutable_words();
  size_t pos = 0;
  ForEachWord([&](uint64_t w) {
    COLGRAPH_DCHECK_LT(pos, words.size());
    words[pos++] = w;
  });
  // The tail of the last word may contain garbage from an all-ones fill.
  out.Resize(num_bits_);
  return out;
}

namespace {

// Sequential reader over a compressed stream: exposes the current chunk
// (a fill run or literal words) and advances by whole words.
class Cursor {
 public:
  explicit Cursor(const std::vector<uint64_t>& buffer) : buffer_(buffer) {
    LoadMarker();
  }

  bool done() const { return run_left_ == 0 && literal_left_ == 0; }
  bool in_run() const { return run_left_ > 0; }
  bool run_bit() const { return run_bit_; }
  uint64_t run_left() const { return run_left_; }
  uint64_t literal() const { return buffer_[pos_]; }

  // Advances by `words` within the current run (must be <= run_left()).
  void SkipRun(uint64_t words) {
    run_left_ -= words;
    MaybeAdvance();
  }
  // Consumes one literal word.
  void NextLiteral() {
    --literal_left_;
    ++pos_;
    MaybeAdvance();
  }

 private:
  void LoadMarker() {
    while (pos_ < buffer_.size()) {
      const uint64_t marker = buffer_[pos_++];
      run_bit_ = marker & 1;
      run_left_ = (marker >> 1) & 0xFFFFFFFFull;
      literal_left_ = marker >> 33;
      if (run_left_ > 0 || literal_left_ > 0) return;
    }
    run_left_ = literal_left_ = 0;
  }
  void MaybeAdvance() {
    if (run_left_ == 0 && literal_left_ == 0) LoadMarker();
  }

  const std::vector<uint64_t>& buffer_;
  size_t pos_ = 0;
  bool run_bit_ = false;
  uint64_t run_left_ = 0;
  uint64_t literal_left_ = 0;
};

// RLE writer: buffers the trailing run/literal state and emits marker
// groups lazily (same layout FromBitmap produces).
class Appender {
 public:
  void AppendFill(bool bit, uint64_t words) {
    if (words == 0) return;
    if (!literals_.empty() || (run_words_ > 0 && run_bit_ != bit)) FlushRun(false);
    if (run_words_ == 0) run_bit_ = bit;
    run_words_ += words;
  }
  void AppendLiteral(uint64_t word) {
    if (word == 0) {
      AppendFill(false, 1);
      return;
    }
    if (word == ~uint64_t{0}) {
      AppendFill(true, 1);
      return;
    }
    literals_.push_back(word);
  }
  std::vector<uint64_t> Finish() {
    FlushRun(true);
    return std::move(out_);
  }

 private:
  void FlushRun(bool final) {
    if (run_words_ == 0 && literals_.empty() && !final) return;
    if (run_words_ == 0 && literals_.empty()) return;
    out_.push_back((static_cast<uint64_t>(literals_.size()) << 33) |
                   (run_words_ << 1) | (run_bit_ ? 1 : 0));
    out_.insert(out_.end(), literals_.begin(), literals_.end());
    run_words_ = 0;
    run_bit_ = false;
    literals_.clear();
  }

  std::vector<uint64_t> out_;
  bool run_bit_ = false;
  uint64_t run_words_ = 0;
  std::vector<uint64_t> literals_;
};

}  // namespace

EwahBitmap EwahBitmap::And(const EwahBitmap& a, const EwahBitmap& b) {
  COLGRAPH_CHECK_EQ(a.num_bits_, b.num_bits_);
  // Streaming AND directly over the compressed representations: zero runs
  // skip the other operand wholesale; one runs copy it; literal-literal
  // pairs AND word-wise. Never decompresses either input.
  Cursor ca(a.buffer_), cb(b.buffer_);
  Appender out;
  while (!ca.done() && !cb.done()) {
    if (ca.in_run() && cb.in_run()) {
      const uint64_t step = std::min(ca.run_left(), cb.run_left());
      out.AppendFill(ca.run_bit() && cb.run_bit(), step);
      ca.SkipRun(step);
      cb.SkipRun(step);
    } else if (ca.in_run()) {
      if (ca.run_bit()) {
        out.AppendLiteral(cb.literal());
      } else {
        out.AppendFill(false, 1);
      }
      ca.SkipRun(1);
      cb.NextLiteral();
    } else if (cb.in_run()) {
      if (cb.run_bit()) {
        out.AppendLiteral(ca.literal());
      } else {
        out.AppendFill(false, 1);
      }
      cb.SkipRun(1);
      ca.NextLiteral();
    } else {
      out.AppendLiteral(ca.literal() & cb.literal());
      ca.NextLiteral();
      cb.NextLiteral();
    }
  }
  EwahBitmap result;
  result.num_bits_ = a.num_bits_;
  result.buffer_ = out.Finish();
  return result;
}

size_t EwahBitmap::Count() const {
  // Fill words may set padding bits past num_bits_; when padding exists,
  // count exactly via decompression.
  if (num_bits_ % Bitmap::kWordBits != 0) return ToBitmap().Count();
  // Fill runs count arithmetically; each group's literal words are one
  // contiguous slice of the buffer, counted by the popcount kernel.
  size_t count = 0;
  size_t i = 0;
  while (i < buffer_.size()) {
    const uint64_t marker = buffer_[i++];
    if (MarkerRunBit(marker)) {
      count += static_cast<size_t>(MarkerRunWords(marker)) * Bitmap::kWordBits;
    }
    const auto literal_words = static_cast<size_t>(MarkerLiteralWords(marker));
    count += simd::CountWords(buffer_.data() + i, literal_words);
    i += literal_words;
  }
  return count;
}

EwahBitmap EwahBitmap::FromRaw(std::vector<uint64_t> buffer, size_t num_bits) {
  EwahBitmap out;
  out.buffer_ = std::move(buffer);
  out.num_bits_ = num_bits;
  return out;
}

StatusOr<EwahBitmap> EwahBitmap::FromRawChecked(std::vector<uint64_t> buffer,
                                                size_t num_bits) {
  const uint64_t words_needed =
      (static_cast<uint64_t>(num_bits) + Bitmap::kWordBits - 1) /
      Bitmap::kWordBits;
  uint64_t total_words = 0;
  size_t i = 0;
  while (i < buffer.size()) {
    const uint64_t marker = buffer[i++];
    total_words += MarkerRunWords(marker);
    const uint64_t literal_words = MarkerLiteralWords(marker);
    if (literal_words > buffer.size() - i) {
      return Status::Corruption(
          "EWAH marker claims literal words past the end of the buffer");
    }
    i += literal_words;
    total_words += literal_words;
    // Run lengths are bounded per marker, so total_words grows by < 2^33
    // per iteration and this early exit also prevents uint64 overflow.
    if (total_words > words_needed) {
      return Status::Corruption("EWAH stream decodes past its bit length");
    }
  }
  if (total_words != words_needed) {
    return Status::Corruption("EWAH stream shorter than its bit length");
  }
  return FromRaw(std::move(buffer), num_bits);
}

}  // namespace colgraph
