// Helpers of the benchmark: percentile choice, metric-name checks,
// failure counting and response checking. Kept free of I/O so selftest.cc
// can pin each rule down.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"

namespace perfbench {

/// Percentiles a latency series may be summarised at, highest first.
inline constexpr double kCandidatePercentiles[] = {99.9, 99.0, 90.0, 50.0};

/// Samples a reported percentile needs strictly beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Number of samples of `n` that lie beyond percentile `pct`.
inline size_t SamplesBeyond(size_t n, double pct) {
  const double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
  return static_cast<size_t>(beyond + 1e-9);
}

/// The highest candidate percentile that has at least kMinSamplesBeyond
/// samples beyond it in a series of `n`; 0 when even the median has not.
inline double HighestSupportedPercentile(size_t n) {
  for (const double pct : kCandidatePercentiles) {
    if (SamplesBeyond(n, pct) >= kMinSamplesBeyond) return pct;
  }
  return 0;
}

/// Nearest-rank percentile of an ascending series; 0 for an empty one.
inline double PercentileOfSorted(const std::vector<double>& sorted,
                                 double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  return sorted[std::min(index, sorted.size()) - 1];
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, 50.0);
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters long.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Attempted and failed operations of a run. A transport failure, a
/// non-OK response, a refusal after retries and a wrong answer each count
/// as one failure.
struct ErrorCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const ErrorCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Fingerprint of a response body; responses are checked against the
/// fingerprint of the serially evaluated expected body.
inline uint64_t BodyHash(std::string_view body) {
  return std::hash<std::string_view>{}(body);
}

/// What a client saw for one request, reduced to what the check needs.
struct Observed {
  bool transport_ok = false;  ///< the call produced a response
  bool response_ok = false;   ///< the response carried the OK wire code
  uint64_t body_hash = 0;
};

inline Observed Observe(
    const colgraph::StatusOr<colgraph::server::Response>& response) {
  Observed o;
  o.transport_ok = response.ok();
  if (response.ok()) {
    o.response_ok = response->ok();
    o.body_hash = BodyHash(response->body);
  }
  return o;
}

/// True when the request succeeded and its body matches the expected one.
inline bool ObservationCorrect(const Observed& observed,
                               uint64_t expected_hash) {
  return observed.transport_ok && observed.response_ok &&
         observed.body_hash == expected_hash;
}

}  // namespace perfbench
