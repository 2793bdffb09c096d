#ifndef MATCHCATCHER_PERFBENCH_BENCH_UTIL_H_
#define MATCHCATCHER_PERFBENCH_BENCH_UTIL_H_

// Timing, summary statistics, in-memory spans and a minimal JSON writer for
// the end-to-end benchmark. Nothing here calls into the library.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mc {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Median of `values` (0 when empty); the mean of the two middle values for
/// an even count.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile `p` in [0, 100] (0 when empty).
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// The highest percentile that still has at least ten samples beyond it:
/// the 11th-largest value, at percentile 100 * (n - 10) / n. Falls back to
/// the median when fewer than 20 samples leave no tail above it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};

inline Tail TailOf(std::vector<double> values) {
  const size_t n = values.size();
  if (n < 20) return Tail{50.0, Median(std::move(values))};
  std::sort(values.begin(), values.end());
  return Tail{100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
              values[n - 11]};
}

/// One timed call: name, start and end relative to the trace origin, the
/// enclosing span (-1 for a root) and the session it belongs to.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  uint64_t session = 0;
  int thread = 0;
  /// Counters recorded at this boundary, as a JSON object body
  /// ("\"events\": 12, ..."); empty for none.
  std::string args;
};

/// Spans held in memory and written once at exit as Chrome trace-event
/// JSON. Thread-safe; a disabled trace records nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its index (or -1 when disabled).
  int Begin(const std::string& name, int parent, uint64_t session,
            int thread = 0) {
    if (!enabled_) return -1;
    const double start = SecondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, start, parent, session, thread, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int index) {
    if (index < 0) return;
    const double end = SecondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_s = end;
  }

  void SetArgs(int index, std::string args) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].args = std::move(args);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// loads in chrome://tracing or Perfetto without network access.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"traceEvents\": [\n");
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& span = all[i];
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"session\": %llu, \"span\": %zu, "
                   "\"parent\": %d%s%s}}\n",
                   i == 0 ? "" : ",", span.name.c_str(), span.thread,
                   span.start_s * 1e6, (span.end_s - span.start_s) * 1e6,
                   static_cast<unsigned long long>(span.session), i,
                   span.parent, span.args.empty() ? "" : ", ",
                   span.args.c_str());
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span over a Trace; a null or disabled trace makes it inert.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, int parent,
             uint64_t session, int thread = 0)
      : trace_(trace),
        index_(trace != nullptr ? trace->Begin(name, parent, session, thread)
                                : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Trace* trace_;
  int index_;
};

/// Ordered (name, value, unit) metrics printed as the result object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    entries_.push_back(Entry{name, value, unit});
  }

  std::optional<double> Get(const std::string& name) const {
    for (const auto& entry : entries_) {
      if (entry.name == name) return entry.value;
    }
    return std::nullopt;
  }

  /// {"name": {"value": v, "unit": "u"}, ...}; non-finite values print as
  /// 0 so the object stays valid JSON.
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char number[64];
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value
                                                        : 0.0;
      std::snprintf(number, sizeof(number), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + number +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

  /// One "name = value unit" line per metric.
  std::string ToText() const {
    std::string out;
    for (const auto& entry : entries_) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-32s %14.6g %s\n",
                    entry.name.c_str(), entry.value, entry.unit.c_str());
      out += line;
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
}  // namespace mc

#endif  // MATCHCATCHER_PERFBENCH_BENCH_UTIL_H_
