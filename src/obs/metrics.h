// metrics.h -- the observability substrate's metric primitives: named
// counters, gauges, and log-bucketed histograms, owned by a MetricsRegistry.
//
// Design constraints (see DESIGN.md §10):
//   * allocation-free on the hot path: looking a metric up by name may
//     allocate (and takes a lock), so instrumented layers resolve their
//     metrics ONCE at construction and keep raw pointers; inc()/set()/
//     observe() are then a handful of relaxed atomics,
//   * thread-safe: every mutator is an atomic RMW, so concurrent writers
//     never lose updates and never race (the obs hammer test runs under
//     ThreadSanitizer),
//   * compile-out: with AGORA_OBS_ENABLED=0 every mutator becomes a no-op
//     the optimizer deletes, which is how the <= 3% overhead budget is
//     verified (bench/micro_sim enabled vs compiled-out).
//
// Naming scheme: dot-separated lowercase path, `subsystem.object.metric`
// (e.g. "lp.pipeline.stage.warm_revised.seconds"). Histograms that measure
// wall-clock durations end in ".seconds"; virtual-time measurements end in
// ".vt_seconds".
#pragma once

#ifndef AGORA_OBS_ENABLED
#define AGORA_OBS_ENABLED 1
#endif

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace agora::obs {

inline constexpr bool kEnabled = AGORA_OBS_ENABLED != 0;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if constexpr (kEnabled) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// One instance's count of one event, and the one statement that records
/// it: inc() bumps the instance's own relaxed value, which its stats()
/// struct reads, and feeds the registry Counter it was built with (looked
/// up once, at the owner's construction). The instance value counts with
/// the observability layer compiled out too; only the feed compiles out.
/// Without a feed it is a plain per-instance count. A copy carries the
/// value and the feed.
class Tally {
 public:
  Tally() = default;
  explicit Tally(Counter& feed) : feed_(&feed) {}
  Tally(const Tally& o) : v_(o.value()), feed_(o.feed_) {}
  Tally& operator=(const Tally& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    feed_ = o.feed_;
    return *this;
  }

  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
    if constexpr (kEnabled) {
      if (feed_ != nullptr) feed_->inc(n);
    }
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// Set the instance value without feeding the registry: a count restored
  /// from a snapshot was fed where it was first counted.
  void restore(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
  Counter* feed_ = nullptr;
};

/// Last-written scalar (queue depths, capacities, ratios).
class Gauge {
 public:
  void set(double x) {
    if constexpr (kEnabled) v_.store(x, std::memory_order_relaxed);
  }
  void add(double dx) {
    if constexpr (kEnabled) {
      double cur = v_.load(std::memory_order_relaxed);
      while (!v_.compare_exchange_weak(cur, cur + dx, std::memory_order_relaxed)) {
      }
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram: one bucket per power of two from 2^kMinExp to
/// 2^kMaxExp, plus an underflow bucket for values in [0, 2^kMinExp) (and
/// any negative values) and an overflow bucket above the range. The span
/// 2^-34 .. 2^34 (~6e-11 .. ~1.7e10) covers nanosecond timings and
/// day-scale virtual-time waits alike at ~2x relative resolution, which is
/// plenty for latency work (percentiles interpolate geometrically within a
/// bucket).
class LogHistogram {
 public:
  static constexpr int kMinExp = -34;
  static constexpr int kMaxExp = 34;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 2);  // + underflow + overflow

  void observe(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double min() const { return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed); }
  double max() const { return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }

  /// q in [0,1]; geometric interpolation within the bucket, clamped to the
  /// observed [min, max]. 0 when empty.
  double quantile(double q) const;

  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i ("le" edge; +inf for the overflow
  /// bucket). Bucket 0 is the underflow bucket with edge 2^kMinExp.
  static double bucket_edge(std::size_t i);

  void reset();

 private:
  static std::size_t bucket_index(double x);

  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Find-or-create registry of named metrics. References returned by
/// counter()/gauge()/histogram() are stable for the registry's lifetime
/// (node-based storage), so instrumented code caches them. Lookup takes a
/// mutex; mutation through the returned reference does not.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name);

  /// Visit every metric in name order (deterministic export order). The
  /// visitor sees live objects; call when writers are quiescent for a
  /// consistent snapshot.
  void visit_counters(const std::function<void(const std::string&, const Counter&)>& f) const;
  void visit_gauges(const std::function<void(const std::string&, const Gauge&)>& f) const;
  void visit_histograms(
      const std::function<void(const std::string&, const LogHistogram&)>& f) const;

  /// Zero every registered metric (registrations survive).
  void reset();

  /// The process-wide default registry.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

}  // namespace agora::obs
