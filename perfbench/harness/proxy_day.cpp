// proxy_day -- the paper's ISP case study: one simulated 24 h day of ten
// cooperating proxies in the Figure 9 configuration (ring agreements of
// share 0.8 with skip 1, transitivity level 3, LP scheduler, direct
// allocator). The discrete-event simulator and trace generation do almost
// all the work; the scheduler's LP is a small share of it.
#include <algorithm>
#include <optional>

#include "agree/topology.h"
#include "measure.h"
#include "proxysim/simulator.h"
#include "report.h"
#include "spans.h"
#include "trace/generator.h"
#include "trace/profile.h"

namespace agora::perf {

namespace {

using Traces = std::vector<std::vector<trace::TraceRequest>>;

Traces generate_traces(const Params& P, std::uint64_t seed) {
  trace::GeneratorConfig gc;
  gc.peak_rate = P.num("peak_rate");
  const trace::Generator gen(gc, trace::DiurnalProfile::berkeley_like());
  const std::size_t proxies = P.count("proxies");
  const double gap = P.num("gap_s");
  // Proxy p draws from seed_base + p, as the figure harnesses do.
  const std::uint64_t seed_base = 100 * seed;
  Traces traces;
  traces.reserve(proxies);
  for (std::size_t p = 0; p < proxies; ++p)
    traces.push_back(gen.generate(seed_base + p, gap * static_cast<double>(p)));
  return traces;
}

struct DayRun {
  double wall_s = 0.0;
  proxysim::SimMetrics metrics;
};

}  // namespace

WorkloadResult run_proxy_day(const RunOptions& opts) {
  WorkloadResult r;
  r.generator_threads = 1;  // each day and each generation runs on one thread at a time
  const Params& P = opts.params;
  Tracer tracer;
  SpanLog* log = opts.trace ? tracer.add_log() : nullptr;

  // Set-up: trace generation, repeated on fresh threads; the last traces are
  // simulated.
  std::vector<double> gen_s;
  Traces traces;
  for (std::size_t k = 0; k < P.count("setup_reps"); ++k) {
    traces.clear();
    traces.shrink_to_fit();
    gen_s.push_back(on_fresh_thread([&] {
      const auto t0 = Clock::now();
      ScopedSpan span(log, "trace.generate", k);
      traces = generate_traces(P, opts.seed);
      return seconds_between(t0, Clock::now());
    }));
  }
  std::uint64_t offered = 0;
  for (const auto& t : traces) offered += t.size();

  obs::MetricsRegistry reg;
  proxysim::SimConfig cfg;
  cfg.num_proxies = P.count("proxies");
  cfg.scheduler = proxysim::SchedulerKind::Lp;
  cfg.agreements = agree::ring(cfg.num_proxies, P.num("ring_share"), P.count("ring_skip"));
  cfg.alloc_opts.transitive.max_level = P.count("transitive_level");
  cfg.sink = obs::Sink{&reg, nullptr};  // Simulator::run supplies its own event ring

  // Each day runs on its own thread (see on_fresh_thread).
  const auto run_day = [&](std::uint64_t id, SpanLog* span_log) {
    return on_fresh_thread([&] {
      proxysim::Simulator sim(cfg);
      const auto t0 = Clock::now();
      std::optional<proxysim::SimMetrics> m;
      {
        ScopedSpan span(span_log, "sim.run", 1000 + id);
        m.emplace(sim.run(traces));
      }
      return DayRun{seconds_between(t0, Clock::now()), std::move(*m)};
    });
  };

  // Untraced days until the measurement time is spent (at least one).
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<DayRun> days;
  const auto start = Clock::now();
  do {
    days.push_back(run_day(days.size(), nullptr));
  } while (seconds_between(start, Clock::now()) < untraced_s);

  const proxysim::SimMetrics& m = days.front().metrics;
  bool repeatable = true;
  for (const DayRun& d : days)
    repeatable = repeatable && d.metrics.mean_wait() == m.mean_wait() &&
                 d.metrics.redirected_requests == m.redirected_requests &&
                 d.metrics.scheduler_consults == m.scheduler_consults;
  std::uint64_t certified = 0;
  for (const DayRun& d : days) certified += d.metrics.certified_consults;
  const std::uint64_t plans = hist_count(reg, "alloc.plan.seconds");
  const double consult_p50_us = 1e6 * hist_quantile(reg, "proxysim.bridge.plan.seconds", 0.5);
  const double consult_p99_us = 1e6 * hist_quantile(reg, "proxysim.bridge.plan.seconds", 0.99);
  const double consult_mean_us =
      1e6 * hist_sum(reg, "proxysim.bridge.plan.seconds") /
      static_cast<double>(std::max<std::uint64_t>(hist_count(reg, "proxysim.bridge.plan.seconds"), 1));
  const std::uint64_t exhausted = counter_value(reg, "lp.pipeline.exhausted");

  r.check("every request served exactly once",
          m.total_requests == offered && m.wait_overall.count() == offered,
          std::to_string(m.wait_overall.count()) + " served of " + std::to_string(offered));
  r.check("zero uncertified grants", certified == plans,
          std::to_string(plans - std::min(plans, certified)) + " uncertified of " +
              std::to_string(plans));
  r.check("repeated days are identical", repeatable, std::to_string(days.size()) + " days");
  r.check("solve chain never exhausted", exhausted == 0, std::to_string(exhausted) + " exhausted");
  if (m.solver_fallbacks > 0)
    r.notes.push_back("solver fallbacks per day: " + std::to_string(m.solver_fallbacks));
  for (const DayRun& d : days) {
    r.attempted += d.metrics.total_requests;
    r.failed += d.metrics.total_requests - std::min<std::uint64_t>(d.metrics.total_requests,
                                                                   d.metrics.wait_overall.count());
  }
  r.failed += plans - std::min(plans, certified);

  std::vector<double> walls;
  for (const DayRun& d : days) walls.push_back(d.wall_s);
  const double day_s = median(walls);
  const double setup = median(gen_s);
  const double rss = peak_rss_mb();
  const double req_per_s = static_cast<double>(m.total_requests) / day_s;
  r.e2e("setup_s", setup, "s");
  r.e2e("peak_rss_mb", rss, "MB");
  r.e2e("throughput_per_s", req_per_s, "1/s");
  r.e2e("objective", m.mean_wait(), "obj");

  r.figure("sim_requests_per_s", req_per_s, "1/s");
  r.figure("sim_mean_wait_s", m.mean_wait(), "s");
  r.figure("sim_peak_wait_s", m.peak_slot_wait(), "s");
  r.figure("sim_requests", static_cast<double>(m.total_requests), "count");
  r.figure("scheduler_consults", static_cast<double>(m.scheduler_consults), "count");
  r.figure("consult_p50_us", consult_p50_us, "us");
  r.figure("consult_p99_us", consult_p99_us, "us");
  r.figure("consult_mean_us", consult_mean_us, "us");
  r.figure("days_simulated", static_cast<double>(days.size()), "count");
  r.figure("setup_s", setup, "s");
  r.figure("peak_rss_mb", rss, "MB");

  if (opts.trace) {
    reg.reset();
    const DayRun traced = run_day(days.size(), log);
    const proxysim::SimMetrics& tm = traced.metrics;
    const double plan_sum = hist_sum(reg, "proxysim.bridge.plan.seconds");
    const std::uint64_t bridge_plans = hist_count(reg, "proxysim.bridge.plan.seconds");
    const RegistryView v = read_registry(reg);
    layer_registry(r, v, counter_value(reg, "alloc.fastpath.granted"));
    // The simulator's allocator is not reachable from here, so the solve
    // chain's health comes from the registry (Bland pivots are not exported).
    std::uint64_t attempts = 0;
    for (const char* stage : {"warm-revised", "cold-revised", "tableau", "brute-force"})
      attempts += counter_value(reg, std::string("lp.pipeline.stage.") + stage + ".attempts");
    r.layer("lp.fallbacks",
            static_cast<double>(attempts - counter_value(reg, "lp.pipeline.solves")), "count");
    r.layer("lp.exhausted", static_cast<double>(counter_value(reg, "lp.pipeline.exhausted")),
            "count");
    layer_transitive(r, cfg.agreements, cfg.alloc_opts.transitive);
    r.layer("trace.gen_s", setup, "s");
    r.layer("proxysim.run_s", traced.wall_s, "s");
    r.layer("proxysim.scheduler_share", plan_sum / traced.wall_s, "ratio");
    r.layer("proxysim.consults", static_cast<double>(tm.scheduler_consults), "count");
    r.layer("proxysim.lp_pivots", static_cast<double>(tm.lp_iterations), "count");
    r.layer("proxysim.redirected_fraction", tm.redirected_fraction(), "ratio");
    attribute_consult_path(
        r, 1e6 * plan_sum / static_cast<double>(std::max<std::uint64_t>(bridge_plans, 1)),
        bridge_plans, v.alloc_s, v.lp_s);
    r.layer("trace.overhead_rel", traced.wall_s / day_s - 1.0, "ratio");
    r.attempted += tm.total_requests;
    layer_spans(r, tracer, opts.trace_out);
  }
  return r;
}

}  // namespace agora::perf
