// Tests of perfbench's shared measurement helpers: the percentile reporter
// and its fixed-size histogram, the open-loop pacer and the theta-gap oracle.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "economies.h"
#include "engine/engine.h"
#include "measure.h"
#include "oracle.h"
#include "spans.h"
#include "util/rng.h"

namespace agora::perf {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentiles, NearestRank) {
  const std::vector<double> v = ramp(100);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(Percentiles, HighestSupportedPercentileKeepsTenSamplesBeyond) {
  std::vector<double> v = ramp(1000);
  PercentileReport r = report_percentiles(v);
  EXPECT_EQ(r.count, 1000u);
  EXPECT_DOUBLE_EQ(r.top_q, 0.99);  // 10 samples beyond p99, 1 beyond p99.9
  EXPECT_EQ(r.top, 990.0);
  EXPECT_TRUE(r.supported);
  EXPECT_TRUE(r.p99_supported);

  std::vector<double> w = ramp(999);  // only 9 beyond p99
  r = report_percentiles(w);
  EXPECT_DOUBLE_EQ(r.top_q, 0.9);
  EXPECT_FALSE(r.p99_supported);

  std::vector<double> big = ramp(10000);
  EXPECT_DOUBLE_EQ(report_percentiles(big).top_q, 0.999);
}

TEST(Percentiles, TooFewSamplesFallBackToTheMedianUnsupported) {
  std::vector<double> v = ramp(19);
  const PercentileReport r = report_percentiles(v);
  EXPECT_FALSE(r.supported);
  EXPECT_DOUBLE_EQ(r.top_q, 0.5);
  EXPECT_EQ(r.top, r.p50);
  std::vector<double> twenty = ramp(20);
  EXPECT_TRUE(report_percentiles(twenty).supported);
}

TEST(Percentiles, UnsortedInputAndMean) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const PercentileReport r = report_percentiles(v);
  EXPECT_EQ(r.p50, 3.0);
  EXPECT_DOUBLE_EQ(r.mean, 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Histogram, QuantilesWithinABucketOfTheExactOnesAndExactMean) {
  std::vector<double> v = ramp(1000);
  LatencyHistogram h;
  for (const double x : v) h.add(x);
  const PercentileReport exact = report_percentiles(v);
  const PercentileReport r = report_percentiles(h);
  EXPECT_EQ(r.count, 1000u);
  EXPECT_DOUBLE_EQ(r.mean, exact.mean);
  EXPECT_NEAR(r.p50, exact.p50, 0.011 * exact.p50);
  EXPECT_NEAR(r.p99, exact.p99, 0.011 * exact.p99);
  EXPECT_DOUBLE_EQ(r.top_q, exact.top_q);  // the same ladder rule
  EXPECT_EQ(r.supported, exact.supported);
  EXPECT_EQ(r.p99_supported, exact.p99_supported);
}

TEST(Histogram, RepeatedValueReadsExactlyAndMergeAddsCounts) {
  LatencyHistogram a, b;
  for (int k = 0; k < 30; ++k) a.add(81.25);
  EXPECT_EQ(a.quantile(0.5), 81.25);
  EXPECT_EQ(a.quantile(1.0), 81.25);
  for (int k = 0; k < 10; ++k) b.add(1e6);
  b.add(0.0);   // below the first bucket: kept, counted
  b.add(1e15);  // beyond the last bucket: kept, counted
  a.merge(b);
  EXPECT_EQ(a.count(), 42u);
  EXPECT_EQ(a.quantile(0.0), 0.0);
  EXPECT_EQ(a.quantile(0.5), 81.25);
  EXPECT_EQ(a.quantile(0.9), 1e6);
  EXPECT_EQ(LatencyHistogram{}.quantile(0.5), 0.0);
}

TEST(Schedule, SeededPoissonIsReproducibleWithTheRequestedRate) {
  const std::vector<double> a = poisson_schedule(2000.0, 5.0, 42);
  const std::vector<double> b = poisson_schedule(2000.0, 5.0, 42);
  const std::vector<double> c = poisson_schedule(2000.0, 5.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 5.0);
}

TEST(Pacer, ReleasesOnScheduleAndRecordsLatenessOfASlowConsumer) {
  tighten_timer_slack();
  // Due every 2 ms; the consumer takes at least 5 ms per request, so request
  // k is released at least 3k ms after its due time whatever the host's
  // wake-up latency, and the pacer never releases a request early.
  std::vector<double> due;
  for (int k = 0; k < 6; ++k) due.push_back(0.002 * k);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  OpenLoopPacer pacer(start, due);
  Clock::time_point d;
  std::vector<double> from_due_ms;
  std::vector<double> late;
  while (pacer.next(d)) {
    EXPECT_GE(Clock::now(), d);
    late.push_back(pacer.last_lateness_us());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    from_due_ms.push_back(1e-3 * micros_between(d, Clock::now()));
  }
  EXPECT_EQ(pacer.released(), 6u);
  ASSERT_EQ(pacer.lateness().count(), 6u);
  EXPECT_DOUBLE_EQ(pacer.lateness().mean(),
                   std::accumulate(late.begin(), late.end(), 0.0) / 6.0);
  for (std::size_t k = 1; k < late.size(); ++k) {
    EXPECT_GE(late[k], 3000.0 * static_cast<double>(k));
    EXPECT_GT(late[k], late[k - 1]);
  }
  // Timing from the due time charges the stall to every delayed request:
  // the last finished at least 5 * 5 ms after the first, but was due only
  // 10 ms after it.
  EXPECT_GE(from_due_ms.back(), from_due_ms.front() + 15.0);
}

TEST(Pacer, PastDueRequestsAreReleasedAtOnceWithTheirLateness) {
  std::vector<double> due;
  for (int k = 0; k < 5; ++k) due.push_back(0.001 * k);
  const auto t0 = Clock::now();
  OpenLoopPacer pacer(t0 - std::chrono::seconds(1), due);
  Clock::time_point d;
  while (pacer.next(d)) {
  }
  EXPECT_LT(seconds_between(t0, Clock::now()), 0.5);  // nothing slept
  EXPECT_EQ(pacer.lateness().count(), 5u);
  EXPECT_GE(pacer.lateness().quantile(0.0), 1e6 - 4e3);  // the least late, due at 4 ms
}

TEST(Spans, SelfTimeExcludesChildren) {
  Tracer tracer;
  SpanLog* log = tracer.add_log();
  {
    ScopedSpan root(log, "root", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      ScopedSpan child(log, "child", 7, root.id());
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  const auto t = tracer.self_times();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_GE(t.at("child").self_us, 3500.0);
  EXPECT_LT(t.at("root").self_us, t.at("root").total_us - 3500.0);
  EXPECT_NEAR(t.at("root").total_us, t.at("root").self_us + t.at("child").total_us, 1.0);
  ScopedSpan off(nullptr, "untraced", 1);
  EXPECT_EQ(off.id(), 0u);
}

/// Two islands of four with no agreement between them: a federated engine
/// has nothing to cut, so every decision is the exact optimum.
agree::AgreementSystem toy_economy() {
  agree::AgreementSystem sys(8);
  for (std::size_t i = 0; i < 8; ++i) sys.capacity[i] = 5.0 + static_cast<double>(i);
  for (std::size_t g = 0; g < 2; ++g)
    for (std::size_t i = 4 * g; i < 4 * g + 4; ++i)
      for (std::size_t j = 4 * g; j < 4 * g + 4; ++j)
        if (i != j) sys.relative(i, j) = 0.25;
  return sys;
}

TEST(ThetaGapOracle, ToyEconomyWithoutCutEntitlementsHasExactlyZeroGap) {
  const agree::AgreementSystem sys = toy_economy();
  engine::EngineOptions eo;
  eo.threads = 2;
  eo.federation.enabled = true;
  eo.sink = obs::Sink::none();
  eo.alloc.sink = obs::Sink::none();
  engine::EnforcementEngine eng(sys, eo);
  ThetaGapOracle oracle(sys, eo.alloc.transitive);
  Pcg32 rng(3);
  std::size_t grants = 0;
  for (int k = 0; k < 200; ++k) {
    const std::size_t a = rng.uniform_u32(8);
    const double amount = rng.uniform(0.5, 6.0);
    const alloc::AllocationPlan plan = eng.consult(a, amount);
    const auto gap = oracle.gap_rel(a, amount, plan);
    if (!plan.satisfied()) {
      EXPECT_FALSE(gap.has_value());
      continue;
    }
    ASSERT_TRUE(gap.has_value());
    EXPECT_EQ(*gap, 0.0);
    ++grants;
  }
  EXPECT_GT(grants, 100u);
}

TEST(ThetaGapOracle, ThetaGlobalIsTheWorstInducedDrop) {
  const agree::AgreementSystem sys = toy_economy();
  ThetaGapOracle oracle(sys, agree::TransitiveOptions{});
  std::vector<double> draw(8, 0.0);
  draw[0] = 2.0;  // drops 2.0 at 0 (retained 1) and less at each island peer
  EXPECT_DOUBLE_EQ(oracle.theta_global(draw), 2.0);
  draw[1] = 3.0;  // participant 1 drops 3.0 + 0.25 * 2.0 (transitive shares add more)
  EXPECT_GE(oracle.theta_global(draw), 3.5);
}

TEST(ThetaGapOracle, FederatedBridgedEconomyNeverBeatsTheExactOptimum) {
  const agree::AgreementSystem sys = bridged_economy();
  engine::EngineOptions eo;
  eo.threads = 2;
  eo.federation.enabled = true;
  eo.federation.gap_probes = 0;
  eo.alloc.transitive.max_level = 3;
  eo.sink = obs::Sink::none();
  eo.alloc.sink = obs::Sink::none();
  engine::EnforcementEngine eng(sys, eo);
  ASSERT_TRUE(eng.federated());
  ThetaGapOracle oracle(sys, eo.alloc.transitive);
  Pcg32 rng(5);
  std::size_t measured = 0;
  for (int k = 0; k < 64; ++k) {
    const std::size_t a = rng.uniform_u32(64);
    const double amount = rng.uniform(0.5, 4.0);
    const alloc::AllocationPlan plan = eng.consult(a, amount);
    if (const auto gap = oracle.gap_rel(a, amount, plan)) {
      EXPECT_GE(*gap, 0.0);
      ++measured;
    }
  }
  EXPECT_GT(measured, 32u);
}

}  // namespace
}  // namespace agora::perf
