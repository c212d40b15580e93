// Property-based differential harness for the three bitmap implementations
// (ISSUE 8 headline deliverable): randomized op sequences drive Bitmap,
// EwahBitmap, and HybridBitmap against a std::vector<bool> oracle, over
// adversarial density classes (empty, full, single-bit, run-heavy,
// alternating, sparse, dense) and lengths that straddle every container
// boundary (word edges, the 2^16-bit chunk edge, unaligned tails). Each
// step checks membership, cardinality, full bit-for-bit equality, and the
// serialized round-trip of both compressed codecs. The whole sequence runs
// twice — once per SIMD dispatch mode — so the AVX2 and scalar kernels are
// differentially tested against each other as well as against the oracle.
// The popcount word kernels and the measure-column select kernels
// (MeasureColumn::Gather / FoldInto) are checked the same way, in both
// modes, against per-bit and per-cell (MeasureColumn::Get) references.
//
// Iteration count scales with COLGRAPH_DIFF_ITERS (per mode); the
// acceptance run drives >= 100k sequences under ASan/UBSan in both modes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/ewah_bitmap.h"
#include "bitmap/hybrid_bitmap.h"
#include "bitmap/simd.h"
#include "columnstore/column.h"
#include "query/agg_fn.h"
#include "util/random.h"

namespace colgraph {
namespace {

using Oracle = std::vector<bool>;

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

// Lengths biased toward the boundaries that matter: word edges, the
// 2^16-bit chunk edge, and unaligned tails on both sides of each.
size_t RandomSize(Rng& rng) {
  static const size_t kSizes[] = {0,     1,     63,    64,    65,    127,
                                  1000,  4096,  65535, 65536, 65537, 70000,
                                  131071, 131072, 131073, 200000};
  if (rng.Bernoulli(0.5)) {
    return kSizes[rng.Uniform(0, std::size(kSizes) - 1)];
  }
  return static_cast<size_t>(rng.Uniform(0, 200000));
}

Oracle RandomOracle(Rng& rng, size_t size) {
  Oracle o(size, false);
  if (size == 0) return o;
  switch (rng.Uniform(0, 6)) {
    case 0:  // empty
      break;
    case 1:  // full
      o.assign(size, true);
      break;
    case 2:  // single bit
      o[rng.Uniform(0, size - 1)] = true;
      break;
    case 3: {  // run-heavy: alternating set/clear runs of random lengths
      size_t pos = 0;
      bool value = rng.Bernoulli(0.5);
      while (pos < size) {
        const size_t len = rng.Uniform(1, 300);
        for (size_t i = 0; i < len && pos < size; ++i, ++pos) o[pos] = value;
        value = !value;
      }
      break;
    }
    case 4: {  // alternating with a short period (worst case for runs)
      const size_t period = rng.Uniform(1, 3);
      for (size_t i = 0; i < size; ++i) o[i] = (i / period) % 2 == 0;
      break;
    }
    case 5: {  // sparse (the hybrid array/run regime)
      const double density = 1.0 / static_cast<double>(rng.Uniform(64, 4096));
      for (size_t i = 0; i < size; ++i) o[i] = rng.Bernoulli(density);
      break;
    }
    default: {  // dense random
      const double density = rng.UniformReal(0.05, 0.95);
      for (size_t i = 0; i < size; ++i) o[i] = rng.Bernoulli(density);
      break;
    }
  }
  return o;
}

Bitmap ToPlain(const Oracle& o) {
  Bitmap b(o.size());
  for (size_t i = 0; i < o.size(); ++i) {
    if (o[i]) b.Set(i);
  }
  return b;
}

size_t OracleCount(const Oracle& o) {
  size_t n = 0;
  for (const bool bit : o) n += bit ? 1 : 0;
  return n;
}

// All three implementations plus both codecs must agree with the oracle.
void CheckAgainstOracle(const Oracle& oracle, Rng& rng,
                        const std::string& what) {
  SCOPED_TRACE(what + " size=" + std::to_string(oracle.size()));
  const Bitmap plain = ToPlain(oracle);
  const size_t count = OracleCount(oracle);
  ASSERT_EQ(plain.Count(), count);

  const EwahBitmap ewah = EwahBitmap::FromBitmap(plain);
  ASSERT_EQ(ewah.Count(), count);
  ASSERT_EQ(ewah.ToBitmap(), plain);
  const auto ewah_rt =
      EwahBitmap::FromRawChecked(ewah.buffer(), ewah.size_bits());
  ASSERT_TRUE(ewah_rt.ok()) << ewah_rt.status().ToString();
  ASSERT_EQ(ewah_rt.value().ToBitmap(), plain);

  const HybridBitmap hybrid = HybridBitmap::FromBitmap(plain);
  ASSERT_EQ(hybrid.Count(), count);
  ASSERT_EQ(hybrid.None(), count == 0);
  ASSERT_EQ(hybrid.ToBitmap(), plain);
  const auto hybrid_rt =
      HybridBitmap::FromRawChecked(hybrid.ToRaw(), hybrid.size_bits());
  ASSERT_TRUE(hybrid_rt.ok()) << hybrid_rt.status().ToString();
  ASSERT_TRUE(hybrid_rt.value() == hybrid);  // representation-exact
  ASSERT_EQ(hybrid_rt.value().ToBitmap(), plain);

  // Membership probes at random positions.
  if (!oracle.empty()) {
    for (int probe = 0; probe < 16; ++probe) {
      const size_t pos = rng.Uniform(0, oracle.size() - 1);
      ASSERT_EQ(hybrid.Test(pos), oracle[pos]) << "pos=" << pos;
      ASSERT_EQ(plain.Test(pos), oracle[pos]) << "pos=" << pos;
    }
  }
}

Oracle OracleAnd(const Oracle& a, const Oracle& b) {
  Oracle out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] && b[i];
  return out;
}

Oracle OracleOr(const Oracle& a, const Oracle& b) {
  Oracle out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] || b[i];
  return out;
}

// One randomized sequence: two operands, then a few AND/OR steps, each
// checked through every implementation and both in-place kernels.
void RunSequence(Rng& rng) {
  const size_t size = RandomSize(rng);
  Oracle a = RandomOracle(rng, size);
  CheckAgainstOracle(a, rng, "operand a");

  const size_t ops = rng.Uniform(1, 4);
  for (size_t op = 0; op < ops; ++op) {
    const Oracle b = RandomOracle(rng, size);
    CheckAgainstOracle(b, rng, "operand b");
    const bool is_and = rng.Bernoulli(0.5);
    const Oracle expected = is_and ? OracleAnd(a, b) : OracleOr(a, b);
    const Bitmap expected_plain = ToPlain(expected);

    const Bitmap pa = ToPlain(a);
    const Bitmap pb = ToPlain(b);
    const HybridBitmap ha = HybridBitmap::FromBitmap(pa);
    const HybridBitmap hb = HybridBitmap::FromBitmap(pb);

    // Compressed-domain operation.
    const HybridBitmap hr =
        is_and ? HybridBitmap::And(ha, hb) : HybridBitmap::Or(ha, hb);
    ASSERT_EQ(hr.Count(), OracleCount(expected));
    ASSERT_EQ(hr.ToBitmap(), expected_plain);
    // The compressed result must itself round-trip through the codec.
    const auto rt = HybridBitmap::FromRawChecked(hr.ToRaw(), hr.size_bits());
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    ASSERT_EQ(rt.value().ToBitmap(), expected_plain);

    // In-place hybrid-onto-plain kernels (the engine's AND loop shape).
    Bitmap inplace = pa;
    if (is_and) {
      hb.AndInto(&inplace);
    } else {
      hb.OrInto(&inplace);
    }
    ASSERT_EQ(inplace, expected_plain);

    // Word-parallel plain op and EWAH AND as additional witnesses.
    Bitmap words = pa;
    if (is_and) {
      words.And(pb);
    } else {
      words.Or(pb);
    }
    ASSERT_EQ(words, expected_plain);
    if (is_and) {
      const EwahBitmap er = EwahBitmap::And(EwahBitmap::FromBitmap(pa),
                                            EwahBitmap::FromBitmap(pb));
      ASSERT_EQ(er.ToBitmap(), expected_plain);
    }

    a = expected;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) {
    simd::SetForceScalarForTest(force);
  }
  ~ScopedForceScalar() { simd::SetForceScalarForTest(false); }
};

void RunMode(bool force_scalar, uint64_t seed) {
  ScopedForceScalar mode(force_scalar);
  const size_t iters = IterationsFromEnv(600);
  Rng rng(seed);
  for (size_t i = 0; i < iters; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i) +
                 (force_scalar ? " (scalar)" : " (dispatch)"));
    RunSequence(rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BitmapDifferentialTest, RandomSequencesDispatchMode) {
  RunMode(/*force_scalar=*/false, /*seed=*/20260808);
}

TEST(BitmapDifferentialTest, RandomSequencesScalarMode) {
  RunMode(/*force_scalar=*/true, /*seed=*/997);
}

// The two dispatch modes must produce identical serialized bytes, not just
// equal sets: a differential check of the kernels against each other.
TEST(BitmapDifferentialTest, SimdAndScalarBytesIdentical) {
  Rng rng(42);
  for (size_t iter = 0; iter < 50; ++iter) {
    const size_t size = RandomSize(rng);
    const Bitmap pa = ToPlain(RandomOracle(rng, size));
    const Bitmap pb = ToPlain(RandomOracle(rng, size));
    const HybridBitmap ha = HybridBitmap::FromBitmap(pa);
    const HybridBitmap hb = HybridBitmap::FromBitmap(pb);

    std::vector<uint64_t> raw_simd, raw_scalar;
    Bitmap inplace_simd = pa, inplace_scalar = pa;
    {
      ScopedForceScalar mode(false);
      raw_simd = HybridBitmap::And(ha, hb).ToRaw();
      hb.AndInto(&inplace_simd);
    }
    {
      ScopedForceScalar mode(true);
      raw_scalar = HybridBitmap::And(ha, hb).ToRaw();
      hb.AndInto(&inplace_scalar);
    }
    ASSERT_EQ(raw_simd, raw_scalar) << "iter=" << iter;
    ASSERT_EQ(inplace_simd, inplace_scalar) << "iter=" << iter;
  }
}

// Popcount word kernels against per-bit references, in both modes.
TEST(BitmapDifferentialTest, PopcountKernelsMatchBitLoops) {
  Rng rng(64);
  for (size_t iter = 0; iter < 40; ++iter) {
    const Bitmap bits = ToPlain(RandomOracle(rng, RandomSize(rng)));
    const std::vector<uint64_t>& words = bits.words();
    size_t want_bits = 0;
    size_t want_runs = 0;
    std::vector<uint32_t> want_prefix;
    bool prev = false;
    for (size_t w = 0; w < words.size(); ++w) {
      want_prefix.push_back(static_cast<uint32_t>(want_bits));
      for (size_t b = 0; b < 64; ++b) {
        const bool bit = ((words[w] >> b) & 1) != 0;
        want_bits += bit ? 1 : 0;
        want_runs += bit && !prev ? 1 : 0;
        prev = bit;
      }
    }
    for (const bool force : {false, true}) {
      ScopedForceScalar mode(force);
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   (force ? " (portable)" : " (dispatch)"));
      ASSERT_EQ(simd::CountWords(words.data(), words.size()), want_bits);
      std::vector<uint32_t> prefix(words.size());
      ASSERT_EQ(simd::RankPrefix(words.data(), words.size(), prefix.data()),
                want_bits);
      ASSERT_EQ(prefix, want_prefix);
      const simd::BitsAndRuns stats =
          simd::CountBitsAndRuns(words.data(), words.size());
      ASSERT_EQ(stats.bits, want_bits);
      ASSERT_EQ(stats.runs, want_runs);
      ASSERT_EQ(bits.Count(), want_bits);
      ASSERT_EQ(EwahBitmap::FromBitmap(bits).Count(), want_bits);
    }
  }
}

// A sealed measure column over `size` records with presence density
// `density` (1.0 = every record). Values include -0.0 so the byte
// comparisons below see sign bits.
MeasureColumn RandomMeasureColumn(Rng& rng, size_t size, double density) {
  MeasureColumn col;
  for (size_t r = 0; r < size; ++r) {
    if (density < 1.0 && !rng.Bernoulli(density)) continue;
    const double v = rng.Bernoulli(0.05)
                         ? -0.0
                         : rng.UniformReal(-1000.0, 1000.0);
    EXPECT_TRUE(col.Append(r, v).ok());
  }
  col.Seal(size);
  return col;
}

// Ascending record lists to select: the word-edge records, every record,
// and random subsets that mix NULL and present cells.
std::vector<std::vector<uint64_t>> SelectionsFor(Rng& rng, size_t size) {
  std::vector<std::vector<uint64_t>> out;
  out.push_back({0, 63, 64, size - 1});
  std::vector<uint64_t> all(size);
  for (size_t r = 0; r < size; ++r) all[r] = r;
  out.push_back(all);
  for (const double keep : {0.5, 0.01}) {
    std::vector<uint64_t> some;
    for (size_t r = 0; r < size; ++r) {
      if (rng.Bernoulli(keep)) some.push_back(r);
    }
    out.push_back(std::move(some));
  }
  return out;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Gather and FoldInto must be byte-identical to the per-cell Get loops
// they replace, at every presence density, for rebased (tail) record ids,
// and under both dispatch paths.
TEST(BitmapDifferentialTest, SelectKernelsMatchPerCellGet) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr size_t kSize = 9001;  // unaligned tail word
  Rng rng(1014);
  for (const double density : {0.0, 1.0 / 1000, 1.0 / 64, 0.5, 1.0}) {
    const MeasureColumn col = RandomMeasureColumn(rng, kSize, density);
    for (const std::vector<uint64_t>& local : SelectionsFor(rng, kSize)) {
      for (const size_t base : {size_t{0}, size_t{123457}}) {
        std::vector<uint64_t> records;
        for (const uint64_t r : local) records.push_back(r + base);
        SCOPED_TRACE("density=" + std::to_string(density) +
                     " n=" + std::to_string(records.size()) +
                     " base=" + std::to_string(base));

        std::vector<double> want;
        for (const uint64_t r : local) {
          const auto v = col.Get(r);
          want.push_back(v.has_value() ? *v : kNaN);
        }
        for (const AggFn fn : {AggFn::kSum, AggFn::kCount, AggFn::kMin,
                               AggFn::kMax, AggFn::kAvg}) {
          for (const size_t view_elements : {size_t{0}, size_t{3}}) {
            // Reference: two folds per record, the second on top of the
            // first, exactly as a path folds consecutive segments.
            std::vector<double> want_fold;
            std::vector<double> want_count;
            for (const uint64_t r : local) {
              AggAccumulator acc(fn);
              for (int k = 0; k < 2; ++k) {
                const auto v = col.Get(r);
                if (!v.has_value()) continue;
                if (view_elements == 0) {
                  acc.Add(*v);
                } else {
                  acc.Merge(*v, view_elements);
                }
              }
              want_fold.push_back(acc.Result());
              want_count.push_back(static_cast<double>(acc.count()));
            }
            for (const bool force : {false, true}) {
              ScopedForceScalar mode(force);
              std::vector<AggAccumulator> accs(records.size(),
                                               AggAccumulator(fn));
              for (int k = 0; k < 2; ++k) {
                col.FoldInto(records.data(), records.size(), base,
                             view_elements, accs.data());
              }
              std::vector<double> got_fold;
              std::vector<double> got_count;
              for (const AggAccumulator& acc : accs) {
                got_fold.push_back(acc.Result());
                got_count.push_back(static_cast<double>(acc.count()));
              }
              ASSERT_TRUE(SameBytes(got_fold, want_fold))
                  << AggFnName(fn) << " view_elements=" << view_elements
                  << (force ? " (portable)" : " (dispatch)");
              ASSERT_TRUE(SameBytes(got_count, want_count));
            }
          }
        }
        for (const bool force : {false, true}) {
          ScopedForceScalar mode(force);
          std::vector<double> got(records.size(), 1.0);
          col.Gather(records.data(), records.size(), base, got.data());
          ASSERT_TRUE(SameBytes(got, want))
              << (force ? "portable" : "dispatch");
        }
      }
    }
  }
}

}  // namespace
}  // namespace colgraph
