// Unit and invariant tests for the proxy case-study simulator: conservation,
// determinism, the no-sharing baseline, LP vs endpoint redirection, redirect
// costs, capacity scaling, and the exact order of simultaneous events.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "agree/topology.h"
#include "proxysim/simulator.h"
#include "trace/generator.h"
#include "util/error.h"

namespace agora::proxysim {
namespace {

using trace::DiurnalProfile;
using trace::TraceRequest;

/// Hand-built request with a fixed demand (response length chosen so that
/// a + b*x equals `demand` under the default cost model).
TraceRequest req_at(double t, double demand) {
  TraceRequest r;
  r.arrival = t;
  r.response_bytes = static_cast<std::uint64_t>((demand - 0.1) / 1e-6);
  return r;
}

SimConfig small_config(std::size_t proxies, double horizon = 1000.0) {
  SimConfig cfg;
  cfg.num_proxies = proxies;
  cfg.horizon = horizon;
  cfg.slot_width = horizon / 10.0;
  return cfg;
}

// ------------------------------------------------------------ basic queue ---

TEST(Simulator, SingleRequestZeroWait) {
  Simulator sim(small_config(1));
  const auto m = sim.run({{req_at(10.0, 1.0)}});
  EXPECT_EQ(m.total_requests, 1u);
  EXPECT_EQ(m.wait_overall.count(), 1u);
  EXPECT_NEAR(m.mean_wait(), 0.0, 1e-12);
}

TEST(Simulator, FifoQueueingWaits) {
  // Two back-to-back 2s jobs arriving together: the second waits 2s.
  Simulator sim(small_config(1));
  const auto m = sim.run({{req_at(10.0, 2.0), req_at(10.0, 2.0)}});
  EXPECT_EQ(m.wait_overall.count(), 2u);
  EXPECT_NEAR(m.wait_overall.max(), 2.0, 1e-9);
  EXPECT_NEAR(m.mean_wait(), 1.0, 1e-9);
}

TEST(Simulator, PowerScalesServiceTime) {
  SimConfig cfg = small_config(1);
  cfg.power = {2.0};  // double-speed proxy
  Simulator sim(cfg);
  const auto m = sim.run({{req_at(10.0, 2.0), req_at(10.0, 2.0)}});
  EXPECT_NEAR(m.wait_overall.max(), 1.0, 1e-9);  // 2s demand / power 2
}

TEST(Simulator, CostModelCapsDemand) {
  CostModel cost;
  EXPECT_NEAR(cost.demand(0), 0.1, 1e-12);
  EXPECT_NEAR(cost.demand(1000000), 1.1, 1e-12);
  EXPECT_NEAR(cost.demand(1000000000), 30.0, 1e-12);  // capped at c
}

TEST(Simulator, ConservationEveryRequestServedOnce) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 5.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(3, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.3);
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(1), gen.generate(2), gen.generate(3)});
  EXPECT_EQ(m.wait_overall.count(), m.total_requests);
  std::uint64_t per_proxy = 0;
  for (const auto& s : m.per_proxy_wait) per_proxy += s.count();
  EXPECT_EQ(per_proxy, m.total_requests);
}

TEST(Simulator, DeterministicAcrossRuns) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 4.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  const auto traces = {gen.generate(1), gen.generate(2)};
  std::vector<std::vector<TraceRequest>> ts(traces);
  const auto a = Simulator(cfg).run(ts);
  const auto b = Simulator(cfg).run(ts);
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
  EXPECT_EQ(a.redirected_requests, b.redirected_requests);
  EXPECT_EQ(a.scheduler_consults, b.scheduler_consults);
}

TEST(Simulator, RequestCountsPerSlot) {
  Simulator sim(small_config(1, 1000.0));  // 10 slots of 100s
  const auto m = sim.run({{req_at(50.0, 0.5), req_at(150.0, 0.5), req_at(155.0, 0.5)}});
  EXPECT_EQ(m.requests_by_slot[0], 1u);
  EXPECT_EQ(m.requests_by_slot[1], 2u);
  EXPECT_EQ(m.requests_by_slot[2], 0u);
}

TEST(Simulator, RejectsUnsortedTraces) {
  Simulator sim(small_config(1));
  EXPECT_THROW(sim.run({{req_at(10.0, 1.0), req_at(5.0, 1.0)}}), PreconditionError);
}

TEST(Simulator, RejectsNonFiniteAndNegativeArrivals) {
  Simulator sim(small_config(1));
  for (const double t : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    try {
      sim.run({{req_at(t, 1.0)}});
      ADD_FAILURE() << "arrival " << t << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("finite and non-negative"), std::string::npos)
          << "arrival " << t << ": " << e.what();
    }
  }
}

TEST(Simulator, RejectsWrongTraceCount) {
  Simulator sim(small_config(2));
  EXPECT_THROW(sim.run({{req_at(1.0, 1.0)}}), PreconditionError);
}

// -------------------------------------------------------------- redirection ---

/// One overloaded proxy (burst of work) next to an idle one.
std::vector<std::vector<TraceRequest>> burst_and_idle() {
  std::vector<TraceRequest> burst;
  for (int i = 0; i < 40; ++i) burst.push_back(req_at(10.0 + 0.01 * i, 1.0));
  return {burst, {}};
}

TEST(Simulator, NoSchedulerMeansNoRedirection) {
  SimConfig cfg = small_config(2);
  cfg.scheduler = SchedulerKind::None;
  const auto m = Simulator(cfg).run(burst_and_idle());
  EXPECT_EQ(m.redirected_requests, 0u);
  // 40 jobs of 1s each arriving at once: the last waits ~39s.
  EXPECT_NEAR(m.wait_overall.max(), 39.0, 0.5);
}

TEST(Simulator, LpSchedulerRedirectsUnderOverload) {
  SimConfig cfg = small_config(2);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.queue_threshold = 4.0;
  cfg.consult_cooldown = 1.0;
  cfg.planning_window = 60.0;
  const auto m = Simulator(cfg).run(burst_and_idle());
  EXPECT_GT(m.redirected_requests, 0u);
  EXPECT_GT(m.scheduler_consults, 0u);
  // Offloading halves the backlog; worst wait clearly below no-sharing's 39.
  EXPECT_LT(m.wait_overall.max(), 30.0);
}

TEST(Simulator, ZeroAgreementsBehaveLikeNoSharing) {
  SimConfig none = small_config(2);
  none.scheduler = SchedulerKind::None;
  SimConfig lp = small_config(2);
  lp.scheduler = SchedulerKind::Lp;
  lp.agreements = Matrix(2, 2);  // all-zero shares
  const auto a = Simulator(none).run(burst_and_idle());
  const auto b = Simulator(lp).run(burst_and_idle());
  EXPECT_EQ(b.redirected_requests, 0u);
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
}

TEST(Simulator, RedirectCostAddsDemand) {
  SimConfig cheap = small_config(2);
  cheap.scheduler = SchedulerKind::Lp;
  cheap.agreements = agree::complete_graph(2, 0.5);
  cheap.queue_threshold = 4.0;
  cheap.consult_cooldown = 1.0;
  SimConfig costly = cheap;
  costly.redirect_cost = 0.5;  // half the job size: clearly visible
  const auto a = Simulator(cheap).run(burst_and_idle());
  const auto b = Simulator(costly).run(burst_and_idle());
  ASSERT_GT(a.redirected_requests, 0u);
  ASSERT_GT(b.redirected_requests, 0u);
  // The redirected work carries extra demand, so total busy time grows and
  // mean wait cannot improve.
  EXPECT_GE(b.mean_wait(), a.mean_wait() - 1e-9);
}

TEST(Simulator, EndpointSchedulerAlsoRedirects) {
  SimConfig cfg = small_config(2);
  cfg.scheduler = SchedulerKind::Endpoint;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.queue_threshold = 4.0;
  cfg.consult_cooldown = 1.0;
  const auto m = Simulator(cfg).run(burst_and_idle());
  EXPECT_GT(m.redirected_requests, 0u);
  EXPECT_LT(m.wait_overall.max(), 39.0);
}

TEST(Simulator, LpBeatsEndpointWhenNeighborsAreBusy) {
  // Three proxies: 0 overloaded, 1 also busy, 2 idle. Agreements are
  // distance-decayed (0 shares more with 1 than with 2), so the endpoint
  // scheme pushes work to the *busy* neighbor 1 while the LP scheme sees
  // availability and prefers 2.
  std::vector<TraceRequest> burst0, busy1;
  for (int i = 0; i < 40; ++i) burst0.push_back(req_at(10.0 + 0.01 * i, 1.0));
  for (int i = 0; i < 200; ++i) busy1.push_back(req_at(5.0 + 0.5 * i, 0.5));
  const std::vector<std::vector<TraceRequest>> traces{burst0, busy1, {}};

  SimConfig base = small_config(3);
  base.agreements = Matrix{{0.0, 0.3, 0.1}, {0.3, 0.0, 0.1}, {0.1, 0.1, 0.0}};
  base.queue_threshold = 4.0;
  base.consult_cooldown = 1.0;

  SimConfig lp = base;
  lp.scheduler = SchedulerKind::Lp;
  SimConfig ep = base;
  ep.scheduler = SchedulerKind::Endpoint;

  const auto ml = Simulator(lp).run(traces);
  const auto me = Simulator(ep).run(traces);
  // Origin-0 clients should fare better under the LP scheme.
  EXPECT_LT(ml.per_proxy_wait[0].mean(), me.per_proxy_wait[0].mean());
}

TEST(Simulator, RedirectedFractionSmallUnderMildLoad) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 6.0;  // moderate utilization
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 3000.0, 10));
  SimConfig cfg = small_config(3, 3000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.2);
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(1), gen.generate(2), gen.generate(3)});
  EXPECT_LT(m.redirected_fraction(), 0.2);
}

TEST(Simulator, WaitQuantilesTrackDistribution) {
  Simulator sim(small_config(1));
  // Ten simultaneous 1 s jobs: waits are exactly 0,1,...,9 seconds.
  std::vector<TraceRequest> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(req_at(10.0, 1.0));
  const auto m = sim.run({jobs});
  EXPECT_NEAR(m.wait_quantile(0.5), 4.5, 0.6);
  EXPECT_NEAR(m.wait_quantile(1.0), 9.0, 0.2);
  EXPECT_LE(m.wait_quantile(0.1), m.wait_quantile(0.9));
}

TEST(Simulator, PerProxySeriesSumToGlobal) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 3.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(5), gen.generate(6)});
  std::uint64_t total = 0;
  for (const auto& s : m.wait_by_slot_per_proxy) total += s.total_count();
  EXPECT_EQ(total, m.wait_by_slot.total_count());
}

// ------------------------------------------------------------ observability ---

TEST(Simulator, IdenticallySeededRunsProduceIdenticalMetricsAndEvents) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 6.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 3000.0, 10));
  SimConfig cfg = small_config(3, 3000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.3);
  const std::vector<std::vector<TraceRequest>> ts{gen.generate(1), gen.generate(2),
                                                  gen.generate(3)};
  const auto a = Simulator(cfg).run(ts);
  const auto b = Simulator(cfg).run(ts);

  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.redirected_requests, b.redirected_requests);
  EXPECT_EQ(a.scheduler_consults, b.scheduler_consults);
  EXPECT_EQ(a.certified_consults, b.certified_consults);
  EXPECT_EQ(a.degraded_consults, b.degraded_consults);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
  EXPECT_DOUBLE_EQ(a.redirected_demand, b.redirected_demand);
  EXPECT_EQ(a.requests_by_slot, b.requests_by_slot);
  EXPECT_EQ(a.redirected_by_slot, b.redirected_by_slot);
  EXPECT_EQ(a.consults_by_slot, b.consults_by_slot);
  EXPECT_EQ(a.degraded_by_slot, b.degraded_by_slot);

  // The event stream is deterministic element by element: every event
  // carries domain time only (virtual seconds / solve ordinals), never
  // wall-clock, so the two runs must match exactly.
  EXPECT_EQ(a.events_overwritten, b.events_overwritten);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i << " differs";
}

TEST(Simulator, EventStreamAccountsForEveryAdmission) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 4.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.event_ring_capacity = 1 << 16;  // room for every event of the run
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(1), gen.generate(2)});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  ASSERT_EQ(m.events_overwritten, 0u) << "test run must fit in the ring";

  std::uint64_t admitted = 0, redirected = 0, consults = 0;
  for (const auto& ev : m.events) {
    switch (ev.kind) {
      case obs::EventKind::RequestAdmitted:
        ++admitted;
        EXPECT_LT(ev.actor, cfg.num_proxies);
        EXPECT_GE(ev.a, 0.0);  // wait
        EXPECT_GT(ev.b, 0.0);  // demand
        break;
      case obs::EventKind::RequestRedirected: ++redirected; break;
      case obs::EventKind::ConsultStarted: ++consults; break;
      default: break;
    }
  }
  EXPECT_EQ(admitted, m.total_requests);
  EXPECT_EQ(redirected, m.redirected_requests);
  EXPECT_EQ(consults, m.scheduler_consults);
}

TEST(Simulator, SmallEventRingOverwritesOldestButKeepsTotals) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 5.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  cfg.event_ring_capacity = 64;
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(3), gen.generate(4)});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  EXPECT_LE(m.events.size(), 64u);
  EXPECT_EQ(m.events_overwritten + m.events.size(), m.total_requests)
      << "no-scheduler run emits exactly one admission event per request";
}

TEST(Simulator, PrivateSinkIsolatesRegistryTotals) {
  obs::MetricsRegistry reg;
  SimConfig cfg = small_config(1);
  cfg.sink = obs::Sink{&reg, nullptr};
  Simulator sim(cfg);
  const auto m = sim.run({{req_at(10.0, 1.0), req_at(10.0, 1.0)}});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  EXPECT_EQ(m.total_requests, 2u);
  EXPECT_EQ(reg.counter("sim.requests.total").value(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.wait.mean_seconds").value(), m.mean_wait());
}

// ------------------------------------------------------------- event order ---

/// Config for hand-built event-order scenarios: every demand is its
/// response length in seconds and every time is dyadic, so simultaneous
/// events are exactly simultaneous.
SimConfig tie_config(std::size_t proxies) {
  SimConfig cfg = small_config(proxies);
  cfg.cost = CostModel{0.0, 1.0, 1e9};
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(proxies, 0.5);
  cfg.queue_threshold = 4.0;
  cfg.event_ring_capacity = 1 << 10;
  return cfg;
}

TraceRequest job_at(double t, std::uint64_t demand_s) {
  TraceRequest r;
  r.arrival = t;
  r.response_bytes = demand_s;
  return r;
}

/// The run's admissions, consults and redirections in stream order.
std::vector<std::string> scheduler_steps(const SimMetrics& m) {
  std::vector<std::string> steps;
  for (const auto& ev : m.events) {
    if (ev.kind != obs::EventKind::RequestAdmitted && ev.kind != obs::EventKind::ConsultStarted &&
        ev.kind != obs::EventKind::RequestRedirected)
      continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s t=%g %u>%u a=%g", obs::to_string(ev.kind), ev.time,
                  ev.actor, ev.peer, ev.a);
    steps.emplace_back(buf);
  }
  return steps;
}

TEST(Simulator, SimultaneousEventsKeepTheirOrder) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  using Steps = std::vector<std::string>;

  // Arrivals at one instant are taken by (proxy, trace index): both of
  // proxy 0's, the second of which triggers a consult, before proxy 1's.
  {
    const auto m =
        Simulator(tie_config(2)).run({{job_at(1.0, 2), job_at(1.0, 6)}, {job_at(1.0, 1)}});
    EXPECT_EQ(scheduler_steps(m),
              (Steps{"request_admitted t=1 0>0 a=0", "consult_started t=1 0>0 a=4",
                     "request_admitted t=1 1>1 a=0", "request_admitted t=3 0>0 a=2"}));
  }

  // A completion at t=2 lands on an arrival. The completion goes first:
  // the queued 4 s job starts, so the consult the arrival triggers sees
  // only the new 6 s job (overflow 6 - 2 = 4, not 10 - 2 = 8).
  {
    const auto m = Simulator(tie_config(2))
                       .run({{job_at(0.0, 2), job_at(0.5, 4), job_at(2.0, 6)}, {}});
    EXPECT_EQ(scheduler_steps(m),
              (Steps{"request_admitted t=0 0>0 a=0", "request_admitted t=2 0>0 a=1.5",
                     "consult_started t=2 0>0 a=4", "request_admitted t=6 0>0 a=4"}));
  }

  // A delayed decision lands on an arrival at t=1.5. The arrival goes
  // first, so redirection from the back of the queue moves the new 1 s
  // job rather than the 3 s job queued before it.
  {
    SimConfig cfg = tie_config(2);
    cfg.decision_latency = 1.0;
    const auto m = Simulator(cfg).run(
        {{job_at(0.0, 8), job_at(0.5, 3), job_at(0.5, 3), job_at(1.5, 1)}, {}});
    EXPECT_EQ(scheduler_steps(m),
              (Steps{"request_admitted t=0 0>0 a=0", "consult_started t=0.5 0>0 a=4",
                     "request_redirected t=1.5 0>1 a=1", "request_admitted t=1.5 1>0 a=0",
                     "request_admitted t=8 0>0 a=7.5", "request_admitted t=11 0>0 a=10.5"}));
  }
}

/// FNV-1a over the bit patterns of a run's outputs.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void f64(double x) {
    std::uint64_t v = 0;
    std::memcpy(&v, &x, sizeof v);
    u64(v);
  }
  void stats(const StreamingStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
  void series(const SlottedSeries& s) {
    for (std::size_t i = 0; i < s.slots(); ++i) stats(s.slot(i));
  }
  void counts(const std::vector<std::uint64_t>& v) {
    for (const std::uint64_t c : v) u64(c);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

TEST(Simulator, DelayedRedirectingRunMatchesItsRecordedDigest) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // Four time-shifted proxies under a compressed diurnal profile, with a
  // positive redirection cost and a decision round trip, so arrivals,
  // completions and delayed decisions interleave throughout the run.
  trace::GeneratorConfig gc;
  gc.peak_rate = 9.0;
  trace::Generator gen(gc, DiurnalProfile::berkeley_like(2400.0, 20));
  SimConfig cfg = small_config(4, 2400.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(4, 0.3);
  cfg.redirect_cost = 0.05;
  cfg.decision_latency = 1.5;
  cfg.event_ring_capacity = 1 << 17;
  std::vector<std::vector<TraceRequest>> ts;
  for (std::size_t p = 0; p < 4; ++p) ts.push_back(gen.generate(11 + p, 600.0 * p));
  const auto m = Simulator(cfg).run(ts);
  ASSERT_EQ(m.events_overwritten, 0u) << "the ring must hold the whole stream";
  ASSERT_GT(m.redirected_requests, 0u);

  Digest d;
  for (const auto& ev : m.events) {
    d.f64(ev.time);
    d.u64(static_cast<std::uint64_t>(ev.kind));
    d.u64(ev.actor);
    d.u64(ev.peer);
    d.f64(ev.a);
    d.f64(ev.b);
  }
  d.series(m.wait_by_slot);
  for (const auto& s : m.wait_by_slot_per_proxy) d.series(s);
  d.counts(m.requests_by_slot);
  d.counts(m.redirected_by_slot);
  d.counts(m.consults_by_slot);
  d.counts(m.degraded_by_slot);
  d.u64(m.total_requests);
  d.u64(m.redirected_requests);
  d.u64(m.scheduler_consults);
  d.u64(m.lp_iterations);
  d.f64(m.redirected_demand);

  // Recorded from the simulator whose event heap held every arrival; any
  // change to the order of simultaneous or near-simultaneous events moves it.
  char hex[19];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(d.value()));
  EXPECT_EQ(std::string(hex), "d9e479e55b13ae44") << m.events.size() << " events";
}

}  // namespace
}  // namespace agora::proxysim
