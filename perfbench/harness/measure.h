// measure.h -- measurement helpers shared by every perfbench workload: the
// percentile reporter, the open-loop pacer and a few small statistics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

namespace agora::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n). Empty input gives 0.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Percentile report of one latency sample.
///
/// `top_q` is the highest percentile of the ladder 50, 90, 99, 99.9, 99.99
/// that has at least ten samples beyond it (n - ceil(q * n) >= 10), so a
/// tail figure is never quoted from a handful of points. With fewer than 20
/// samples no percentile qualifies: `top_q` is then 0.5 and `supported` is
/// false.
struct PercentileReport {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;   ///< nearest-rank p99 (check p99_supported before quoting it)
  double mean = 0.0;
  double top_q = 0.5;
  double top = 0.0;   ///< value at top_q
  bool supported = false;
  bool p99_supported = false;
};

/// Summarize `samples` (any order; the vector is sorted in place).
PercentileReport report_percentiles(std::vector<double>& samples);

/// Latency histogram of fixed size, for samples too many to keep: its
/// memory does not grow with the sample count, so a faster system does not
/// raise the harness's own resident set. Buckets are log-spaced, 64 per
/// octave (each about 1.1% wide) from 1/64 us up to about 2^34 us; each
/// keeps its count and the sum of its samples, so a quantile reads the mean
/// of the samples in the bucket that holds its rank, and the mean is exact.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void add(double us);
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Nearest-rank quantile (rank ceil(q * n)); empty gives 0.
  double quantile(double q) const;

 private:
  static constexpr int kPerOctave = 64;
  static constexpr int kOctaves = 40;
  static constexpr double kMinUs = 1.0 / 64.0;
  static std::size_t bucket(double us);

  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// The same report from a histogram (the ladder and its rule as above).
PercentileReport report_percentiles(const LatencyHistogram& h);

/// Median of a small sample (sorted copy). Empty input gives 0.
double median(std::vector<double> v);

/// Due times, in seconds from the start of the measurement, of a seeded
/// Poisson arrival process with `rate` arrivals per second over [0, seconds).
std::vector<double> poisson_schedule(double rate, double seconds, std::uint64_t seed);

/// Open-loop pacing: hands out due times from a fixed schedule and sleeps
/// until each one. A slow consumer does not slow the schedule down: when the
/// previous request overran, the next one is released immediately and the
/// time it started after its due time is recorded as lateness. Callers time
/// each request from its due time, so a stall is charged to every request
/// it delayed.
class OpenLoopPacer {
 public:
  OpenLoopPacer(Clock::time_point start, std::vector<double> due_offsets);

  /// Wait for the next due time; false when the schedule is exhausted.
  /// `due` receives the request's due time.
  bool next(Clock::time_point& due);

  std::size_t released() const { return next_; }
  std::size_t scheduled() const { return due_.size(); }
  /// Lateness of the last released request, in microseconds (0 when on time).
  double last_lateness_us() const { return last_late_us_; }
  /// Lateness of every released request.
  const LatencyHistogram& lateness() const { return late_; }

 private:
  Clock::time_point start_;
  std::vector<double> due_;
  std::size_t next_ = 0;
  double last_late_us_ = 0.0;
  LatencyHistogram late_;
};

/// Run `f` on a new thread, wait for it and return its result (rethrowing
/// what it threw). On a shared host one CPU can run a thread half again
/// slower than another for seconds at a time, and a thread keeps its CPU;
/// giving each repetition of a measurement its own thread makes the median
/// over repetitions sample that spread instead of inheriting one thread's
/// placement.
template <class F>
auto on_fresh_thread(F&& f) -> decltype(f()) {
  std::exception_ptr err;
  std::optional<decltype(f())> out;
  std::thread t([&] {
    try {
      out.emplace(f());
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  if (err) std::rethrow_exception(err);
  return std::move(*out);
}

/// Peak resident set of this process since it was executed, in MiB
/// (VmHWM of /proc/self/status).
double peak_rss_mb();

/// Lower the calling thread's timer slack to 1 ns so short sleeps of the
/// pacer wake close to their due time (the Linux default slack is 50 us).
void tighten_timer_slack();

}  // namespace agora::perf
