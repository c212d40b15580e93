// Runtime-dispatched word kernels shared by the bitmap containers and the
// column store:
//   - AND/OR over arrays of 64-bit words, with an AVX2 body;
//   - popcount loops (counts, rank prefixes, run counts), with a hardware
//     POPCNT body — without -mpopcnt, __builtin_popcountll is a libgcc
//     call per word, so the plain loops pay a function call per 64 bits.
// Each dispatched body is selected at first use when the CPU supports it;
// a portable body is the fallback. No global -m flag is needed: the fast
// bodies are compiled with per-function target attributes, so the binary
// runs on any x86-64. Two switches force every portable body (the
// AND/OR loops, the popcount loops here, and the measure-column select
// kernels in columnstore/column.cc): the COLGRAPH_NO_SIMD environment
// variable (read once per process, for whole-run jobs like the sanitizer
// CI legs) and SetForceScalarForTest (an in-process switch the
// differential tests flip so one binary exercises both bodies).
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// Marks a function body that may use the POPCNT instruction. Call such a
// function only behind UsingHardwarePopcount().
#define COLGRAPH_HAVE_POPCNT_TARGET 1
#define COLGRAPH_POPCNT_TARGET __attribute__((target("popcnt")))
#endif

namespace colgraph::simd {

/// dst[i] &= src[i] for i in [0, n).
void AndWords(uint64_t* dst, const uint64_t* src, size_t n);

/// dst[i] |= src[i] for i in [0, n).
void OrWords(uint64_t* dst, const uint64_t* src, size_t n);

/// Number of set bits in words[0, n).
size_t CountWords(const uint64_t* words, size_t n);

/// Rank directory: prefix[i] = set bits in words[0, i) for i in [0, n).
/// Returns the set bits in all n words. The sum must fit in 32 bits.
uint32_t RankPrefix(const uint64_t* words, size_t n, uint32_t* prefix);

/// Set-bit count and run count (0->1 transitions, with the bit before
/// words[0] taken as 0) of words[0, n).
struct BitsAndRuns {
  size_t bits = 0;
  size_t runs = 0;
};
BitsAndRuns CountBitsAndRuns(const uint64_t* words, size_t n);

/// True when calls dispatch to the AVX2 kernels (CPU support present,
/// COLGRAPH_NO_SIMD unset, no test override active).
bool UsingAvx2();

/// True when the popcount kernels use the POPCNT instruction (CPU support
/// present, COLGRAPH_NO_SIMD unset, no test override active).
bool UsingHardwarePopcount();

/// Test hook: true forces the portable kernels regardless of CPU support.
/// Effective immediately for subsequent calls on this thread; flip it only
/// while no kernel runs concurrently.
void SetForceScalarForTest(bool force);

}  // namespace colgraph::simd
