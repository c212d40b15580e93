#include "bitmap/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COLGRAPH_HAVE_AVX2_TARGET 1
#include <immintrin.h>
#endif

namespace colgraph::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

// The COLGRAPH_NO_SIMD kill switch, read once per process. The sanitizer
// CI legs set it to sanitize the portable kernels on hardware that would
// otherwise always take the dispatched ones.
[[maybe_unused]] bool SimdDisabledByEnv() {
  static const bool disabled = std::getenv("COLGRAPH_NO_SIMD") != nullptr;
  return disabled;
}

// Popcount loop bodies. Inlined into a portable wrapper and into a
// COLGRAPH_POPCNT_TARGET wrapper, where __builtin_popcountll becomes one
// POPCNT instruction instead of a libgcc call.
[[gnu::always_inline]] inline size_t CountWordsBody(const uint64_t* words,
                                                    size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(words[i]));
  }
  return count;
}

[[gnu::always_inline]] inline uint32_t RankPrefixBody(const uint64_t* words,
                                                      size_t n,
                                                      uint32_t* prefix) {
  uint32_t cum = 0;
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = cum;
    cum += static_cast<uint32_t>(__builtin_popcountll(words[i]));
  }
  return cum;
}

[[gnu::always_inline]] inline BitsAndRuns CountBitsAndRunsBody(
    const uint64_t* words, size_t n) {
  BitsAndRuns out;
  uint64_t carry = 0;  // top bit of the previous word
  for (size_t i = 0; i < n; ++i) {
    const uint64_t word = words[i];
    out.bits += static_cast<size_t>(__builtin_popcountll(word));
    // Run starts are set bits whose predecessor bit is clear.
    out.runs += static_cast<size_t>(
        __builtin_popcountll(word & ~((word << 1) | carry)));
    carry = word >> 63;
  }
  return out;
}

void AndWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void OrWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

#if defined(COLGRAPH_HAVE_AVX2_TARGET)

// Per-function target attribute instead of a separate -mavx2 TU: the
// compiler may only emit AVX2 instructions inside these bodies, so the
// binary stays runnable on non-AVX2 hardware as long as dispatch guards
// every call.
__attribute__((target("avx2"))) void AndWordsAvx2(uint64_t* dst,
                                                  const uint64_t* src,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a, b));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void OrWordsAvx2(uint64_t* dst,
                                                 const uint64_t* src,
                                                 size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

bool CpuAllowsAvx2() {
  // One probe per process: CPU capability plus the kill switch.
  static const bool allowed =
      !SimdDisabledByEnv() && __builtin_cpu_supports("avx2") != 0;
  return allowed;
}

#else

bool CpuAllowsAvx2() { return false; }

#endif  // COLGRAPH_HAVE_AVX2_TARGET

#if defined(COLGRAPH_HAVE_POPCNT_TARGET)

COLGRAPH_POPCNT_TARGET size_t CountWordsPopcnt(const uint64_t* words,
                                               size_t n) {
  return CountWordsBody(words, n);
}

COLGRAPH_POPCNT_TARGET uint32_t RankPrefixPopcnt(const uint64_t* words,
                                                 size_t n, uint32_t* prefix) {
  return RankPrefixBody(words, n, prefix);
}

COLGRAPH_POPCNT_TARGET BitsAndRuns CountBitsAndRunsPopcnt(
    const uint64_t* words, size_t n) {
  return CountBitsAndRunsBody(words, n);
}

bool CpuAllowsPopcnt() {
  static const bool allowed =
      !SimdDisabledByEnv() && __builtin_cpu_supports("popcnt") != 0;
  return allowed;
}

#else

bool CpuAllowsPopcnt() { return false; }

#endif  // COLGRAPH_HAVE_POPCNT_TARGET

}  // namespace

bool UsingAvx2() {
  return CpuAllowsAvx2() && !g_force_scalar.load(std::memory_order_relaxed);
}

bool UsingHardwarePopcount() {
  return CpuAllowsPopcnt() && !g_force_scalar.load(std::memory_order_relaxed);
}

void SetForceScalarForTest(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
#if defined(COLGRAPH_HAVE_AVX2_TARGET)
  if (UsingAvx2()) {
    AndWordsAvx2(dst, src, n);
    return;
  }
#endif
  AndWordsScalar(dst, src, n);
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
#if defined(COLGRAPH_HAVE_AVX2_TARGET)
  if (UsingAvx2()) {
    OrWordsAvx2(dst, src, n);
    return;
  }
#endif
  OrWordsScalar(dst, src, n);
}

size_t CountWords(const uint64_t* words, size_t n) {
#if defined(COLGRAPH_HAVE_POPCNT_TARGET)
  if (UsingHardwarePopcount()) return CountWordsPopcnt(words, n);
#endif
  return CountWordsBody(words, n);
}

uint32_t RankPrefix(const uint64_t* words, size_t n, uint32_t* prefix) {
#if defined(COLGRAPH_HAVE_POPCNT_TARGET)
  if (UsingHardwarePopcount()) return RankPrefixPopcnt(words, n, prefix);
#endif
  return RankPrefixBody(words, n, prefix);
}

BitsAndRuns CountBitsAndRuns(const uint64_t* words, size_t n) {
#if defined(COLGRAPH_HAVE_POPCNT_TARGET)
  if (UsingHardwarePopcount()) return CountBitsAndRunsPopcnt(words, n);
#endif
  return CountBitsAndRunsBody(words, n);
}

}  // namespace colgraph::simd
