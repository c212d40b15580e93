// In-memory spans of the traced run. The benchmark opens a span around
// each call it makes into a layer's public functions; spans of one request
// share its id, and each names the span that caused it. A child is either
// nested in its parent's interval (the benchmark issued it from inside the
// parent, e.g. MatchIds inside an evaluation) or issued right after it to
// time the same work one layer down (Daemon::Execute after Client::Query
// for the same request). Every request is issued several times; a span's
// time is its minimum over those repetitions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  uint32_t request = 0;
  uint32_t rep = 0;
  int32_t parent = -1;  ///< index of the causing span; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Per-request layer times: span name -> microseconds (summed over the
/// spans of that name within one repetition, minimum over repetitions),
/// plus the parent -> children name relation the spans recorded.
struct RequestTimes {
  std::map<std::string, double> total_us;
  std::map<std::string, std::set<std::string>> children;

  double Total(const std::string& name) const {
    const auto it = total_us.find(name);
    return it == total_us.end() ? 0.0 : it->second;
  }
  /// The span's time minus the time of its children: what the layer
  /// itself spent, or for an outer layer, what no inner span accounts for.
  double Self(const std::string& name) const {
    double self = Total(name);
    const auto it = children.find(name);
    if (it != children.end()) {
      for (const std::string& child : it->second) self -= Total(child);
    }
    return self;
  }
};

class SpanLog {
 public:
  int32_t Open(const char* name, uint32_t request, uint32_t rep,
               int32_t parent) {
    SpanRecord span;
    span.name = name;
    span.request = request;
    span.rep = rep;
    span.parent = parent;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  std::map<uint32_t, RequestTimes> PerRequest() const {
    // (request, name) -> rep -> summed duration.
    std::map<std::pair<uint32_t, std::string>, std::map<uint32_t, double>>
        sums;
    std::map<uint32_t, RequestTimes> out;
    for (const SpanRecord& span : spans_) {
      sums[{span.request, span.name}][span.rep] += span.micros();
      if (span.parent >= 0) {
        const SpanRecord& parent = spans_[static_cast<size_t>(span.parent)];
        out[span.request].children[parent.name].insert(span.name);
      }
    }
    for (const auto& [key, per_rep] : sums) {
      double best = per_rep.begin()->second;
      for (const auto& [rep, us] : per_rep) best = std::min(best, us);
      out[key.first].total_us[key.second] = best;
    }
    return out;
  }

  /// One JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"request\":%u,\"rep\":%u,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, s.request, s.rep, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<SpanRecord> spans_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t request, uint32_t rep,
             int32_t parent)
      : log_(log), index_(log->Open(name, request, rep, parent)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace perfbench
