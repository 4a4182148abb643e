// Measurement plumbing for bench_gstore: sample statistics, the metric
// report printed as the last line of stdout, the pass/fail tally, and the
// in-memory span recorder written out as Chrome trace-event JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/sync.h"

namespace gstore::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated quantile, q in [0, 1]; `v` must be non-empty.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Named metrics with units and sample counts. An empty sample set is a
// benchmark defect, not a value: it is recorded as a failure by the caller
// and the metric is left out, so run_benchmark.py reports it missing.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 1) {
    metrics_.push_back({name, unit, value, samples});
  }
  // Adds median(xs); returns false (adding nothing) when xs is empty.
  bool add_median(const std::string& name, const std::string& unit,
                  const std::vector<double>& xs) {
    if (xs.empty()) return false;
    add(name, unit, median(xs), xs.size());
    return true;
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t k = 0; k < metrics_.size(); ++k) {
      const Metric& m = metrics_[k];
      out += (k ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
             ", \"unit\": \"" + m.unit +
             "\", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
};

// Operations attempted and failed. A failure is a thrown error, a wrong
// answer, a rejected or cancelled job, or a failed ingest.
class Tally {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& why) {
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "bench_gstore: FAILED %s\n", why.c_str());
  }
  // Counts one attempt, failing it with `why` when `passed` is false.
  void check(bool passed, const std::string& why) { passed ? ok() : fail(why); }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Spans recorded around the benchmark's calls into the store's modules.
// Each span has a name, a category (the layer it enters), start, end, and
// its parent's id; they are kept in memory and written once at exit. With
// tracing off every call is a no-op returning id 0.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool on() const noexcept { return on_; }

  // Opens a span now; close it with end().
  std::uint64_t begin(const std::string& name, const char* cat,
                      std::uint64_t parent) GSTORE_EXCLUDES(mu_) {
    if (!on_) return 0;
    const double t = us(Clock::now());
    MutexLock lock(mu_);
    spans_.push_back({name, cat, parent, 1, t, t, {}});
    return spans_.size();
  }
  void end(std::uint64_t id, std::string args = {}) GSTORE_EXCLUDES(mu_) {
    if (id == 0) return;
    const double t = us(Clock::now());
    MutexLock lock(mu_);
    spans_[id - 1].t1 = t;
    spans_[id - 1].args = std::move(args);
  }
  // Records a span whose interval is already known.
  std::uint64_t add(const std::string& name, const char* cat,
                    std::uint64_t parent, Clock::time_point t0,
                    Clock::time_point t1, std::string args = {},
                    std::uint32_t tid = 1) GSTORE_EXCLUDES(mu_) {
    if (!on_) return 0;
    MutexLock lock(mu_);
    spans_.push_back({name, cat, parent, tid, us(t0), us(t1), std::move(args)});
    return spans_.size();
  }

  bool write(const std::string& path) const GSTORE_EXCLUDES(mu_) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    MutexLock lock(mu_);
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      std::string args = "\"id\": " + std::to_string(k + 1) +
                         ", \"parent\": " + std::to_string(s.parent);
      if (!s.args.empty()) args += ", " + s.args;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {%s}}\n",
                   k ? "," : "", s.name.c_str(), s.cat, s.tid, s.t0,
                   s.t1 - s.t0, args.c_str());
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::uint64_t parent;
    std::uint32_t tid;
    double t0, t1;  // microseconds since the recorder was created
    std::string args;  // extra JSON members, without braces
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const bool on_;
  const Clock::time_point origin_ = Clock::now();
  mutable Mutex mu_{"Trace::mu_"};
  std::vector<Span> spans_ GSTORE_GUARDED_BY(mu_);
};

// RAII span: opened on construction, closed (with optional args) on scope
// exit, including when the enclosed call throws.
class Scope {
 public:
  Scope(Trace& trace, const std::string& name, const char* cat,
        std::uint64_t parent)
      : trace_(trace), id_(trace.begin(name, cat, parent)) {}
  ~Scope() { trace_.end(id_, std::move(args_)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  Trace& trace_;
  const std::uint64_t id_;
  std::string args_;
};

}  // namespace gstore::perfbench
