#include "measure.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "util/rng.h"

namespace agora::perf {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

namespace {

/// Fill `r` (count and mean already set) from a quantile function.
template <class Quantile>
void fill_percentiles(PercentileReport& r, Quantile quantile) {
  r.p50 = quantile(0.5);
  r.p99 = quantile(0.99);
  const auto beyond = [&](double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(r.count)));
    return r.count - std::min(rank, r.count);
  };
  r.p99_supported = beyond(0.99) >= 10;
  r.top_q = 0.5;
  r.top = r.p50;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (beyond(q) < 10) break;
    r.supported = true;
    r.top_q = q;
    r.top = quantile(q);
  }
}

}  // namespace

PercentileReport report_percentiles(std::vector<double>& samples) {
  PercentileReport r;
  r.count = samples.size();
  if (samples.empty()) return r;
  std::sort(samples.begin(), samples.end());
  r.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  fill_percentiles(r, [&](double q) { return quantile_sorted(samples, q); });
  return r;
}

LatencyHistogram::LatencyHistogram()
    : counts_(kPerOctave * kOctaves, 0), sums_(kPerOctave * kOctaves, 0.0) {}

std::size_t LatencyHistogram::bucket(double us) {
  if (!(us > kMinUs)) return 0;
  const double b = std::floor(std::log2(us / kMinUs) * kPerOctave);
  return static_cast<std::size_t>(std::min(b, double{kPerOctave * kOctaves - 1}));
}

void LatencyHistogram::add(double us) {
  const std::size_t b = bucket(us);
  ++counts_[b];
  sums_[b] += us;
  ++count_;
  sum_ += us;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
    sums_[b] += other.sums_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))), 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) return sums_[b] / static_cast<double>(counts_[b]);
  }
  return mean();  // unreachable: the buckets hold count_ samples
}

PercentileReport report_percentiles(const LatencyHistogram& h) {
  PercentileReport r;
  r.count = h.count();
  if (r.count == 0) return r;
  r.mean = h.mean();
  fill_percentiles(r, [&](double q) { return h.quantile(q); });
  return r;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  Pcg32 rng(seed);
  double t = rng.exponential(rate);
  while (t < seconds) {
    due.push_back(t);
    t += rng.exponential(rate);
  }
  return due;
}

OpenLoopPacer::OpenLoopPacer(Clock::time_point start, std::vector<double> due_offsets)
    : start_(start), due_(std::move(due_offsets)) {}

bool OpenLoopPacer::next(Clock::time_point& due) {
  if (next_ >= due_.size()) return false;
  due = start_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_[next_]));
  ++next_;
  Clock::time_point now = Clock::now();
  if (now < due) {
    std::this_thread::sleep_until(due);
    now = Clock::now();
  }
  last_late_us_ = std::max(0.0, micros_between(due, now));
  late_.add(last_late_us_);
  return true;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's resident set when
  // that was larger than this one's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

}  // namespace agora::perf
