// admit_churn -- in-process admission under capacity churn.
//
// Two closed-loop tenant threads drive one EnforcementEngine (threads=2,
// plan cache on) over the 64-participant island economy. Each tenant owns
// the islands of one shard and draws Zipf request shapes over its own
// participants. A satisfied consult is committed with apply() with a fixed
// probability and released after a hold counted in the tenant's own
// operations, so every commit publishes a new epoch and the plan cache is
// measured under invalidation. Because the tenants are disjoint, an apply()
// refusal is a bug, not contention.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <thread>

#include "economies.h"
#include "engine/engine.h"
#include "measure.h"
#include "report.h"
#include "spans.h"
#include "util/rng.h"

namespace agora::perf {

namespace {

/// One tenant per engine shard, each owning four of the eight islands.
constexpr std::size_t kTenants = 2;

/// Throughput is counted per window of this length, and the run reports the
/// median window: the host's CPUs slow down for seconds at a time, and the
/// median over windows leaves such a stretch out where a whole-run mean
/// would take it in.
constexpr double kWindowS = 1.0;

struct Hold {
  std::uint64_t release_at = 0;  ///< tenant operation count
  std::vector<double> draw;
  bool operator>(const Hold& o) const { return release_at > o.release_at; }
};

struct PhaseStats {
  LatencyHistogram consult_us;
  LatencyHistogram commit_us;
  std::uint64_t consults = 0;
  std::uint64_t granted = 0;
  std::uint64_t commits = 0;
  std::uint64_t releases = 0;
  std::uint64_t uncertified = 0;
  std::uint64_t refused = 0;
  double theta_sum = 0.0;
  double wall_s = 0.0;
  std::vector<std::uint64_t> window_consults;  ///< consults begun in each window

  /// Median consults per second over the windows that lie wholly inside the
  /// phase; the whole-phase rate when the phase is shorter than a window.
  double median_window_rate(double seconds) const {
    const auto full = static_cast<std::size_t>(seconds / kWindowS);
    if (full == 0) return static_cast<double>(consults) / wall_s;
    std::vector<double> rates;
    for (std::size_t w = 0; w < full; ++w)
      rates.push_back(static_cast<double>(window_consults[w]) / kWindowS);
    return median(rates);
  }

  void merge(const PhaseStats& o) {
    window_consults.resize(std::max(window_consults.size(), o.window_consults.size()), 0);
    for (std::size_t w = 0; w < o.window_consults.size(); ++w)
      window_consults[w] += o.window_consults[w];
    consult_us.merge(o.consult_us);
    commit_us.merge(o.commit_us);
    consults += o.consults;
    granted += o.granted;
    commits += o.commits;
    releases += o.releases;
    uncertified += o.uncertified;
    refused += o.refused;
    theta_sum += o.theta_sum;
  }
};

struct Tenant {
  std::uint64_t index = 0;
  std::vector<std::size_t> members;  ///< global participant ids
  std::unique_ptr<ShapeStream> shapes;
  Pcg32 rng;
  std::priority_queue<Hold, std::vector<Hold>, std::greater<>> holds;
  std::uint64_t ops = 0;
  std::string error;  ///< first exception seen by the tenant thread
};

struct ChurnParams {
  double commit_prob = 0.25;
  double hold_mean_ops = 100.0;
};

void release_hold(engine::EnforcementEngine& eng, const Hold& h, PhaseStats& s,
                  SpanLog* log, std::uint64_t req, std::uint32_t parent) {
  const auto t0 = Clock::now();
  {
    ScopedSpan span(log, "engine.release", req, parent);
    eng.release(h.draw);
  }
  s.commit_us.add(micros_between(t0, Clock::now()));
  ++s.releases;
}

/// One tenant operation: release the holds that fell due, then one consult,
/// committed with probability commit_prob when satisfied.
void step(engine::EnforcementEngine& eng, Tenant& t, const ChurnParams& p, PhaseStats& s,
          SpanLog* log) {
  const std::uint64_t req = (t.index << 48) | t.ops;
  ScopedSpan op(log, "tenant.op", req);
  while (!t.holds.empty() && t.holds.top().release_at <= t.ops) {
    Hold h = t.holds.top();
    t.holds.pop();
    release_hold(eng, h, s, log, req, op.id());
  }
  const trace::RequestShape shape = t.shapes->next();
  const std::size_t a = t.members[shape.participant];
  const auto t0 = Clock::now();
  alloc::AllocationPlan plan;
  {
    ScopedSpan span(log, "engine.consult", req, op.id());
    plan = eng.consult(a, shape.amount);
  }
  s.consult_us.add(micros_between(t0, Clock::now()));
  ++s.consults;
  ++t.ops;
  const bool commit = t.rng.next_double() < p.commit_prob;
  if (!plan.satisfied()) return;
  ++s.granted;
  s.theta_sum += plan.theta;
  if (!plan.certified) {
    ++s.uncertified;
    return;
  }
  if (!commit) return;
  const auto c0 = Clock::now();
  try {
    ScopedSpan span(log, "engine.apply", req, op.id());
    eng.apply(plan);
  } catch (const std::exception&) {
    ++s.refused;
    return;
  }
  s.commit_us.add(micros_between(c0, Clock::now()));
  ++s.commits;
  const auto hold = static_cast<std::uint64_t>(std::ceil(t.rng.exponential(1.0 / p.hold_mean_ops)));
  t.holds.push(Hold{t.ops + std::max<std::uint64_t>(hold, 1), std::move(plan.draw)});
}

/// Run every tenant for `seconds` on its own thread.
PhaseStats run_phase(engine::EnforcementEngine& eng, std::vector<Tenant>& tenants,
                     const ChurnParams& p, double seconds, Tracer* tracer) {
  std::vector<PhaseStats> per(tenants.size());
  std::vector<SpanLog*> logs(tenants.size(), nullptr);
  if (tracer)
    for (auto& l : logs) l = tracer->add_log();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      PhaseStats& s = per[i];
      s.window_consults.assign(static_cast<std::size_t>(std::ceil(seconds / kWindowS)) + 1, 0);
      try {
        for (auto now = Clock::now(); now < end; now = Clock::now()) {
          const auto w = static_cast<std::size_t>(seconds_between(start, now) / kWindowS);
          const std::uint64_t before = s.consults;
          step(eng, tenants[i], p, s, logs[i]);
          s.window_consults[w] += s.consults - before;
        }
      } catch (const std::exception& e) {
        tenants[i].error = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  PhaseStats all;
  all.wall_s = seconds_between(start, Clock::now());
  for (const PhaseStats& s : per) all.merge(s);
  return all;
}

std::vector<Tenant> make_tenants(const engine::EnforcementEngine& eng, const Params& params,
                                 std::uint64_t seed) {
  std::vector<Tenant> tenants(eng.num_shards());
  for (std::size_t g = 0; g < kIslands; ++g) {
    Tenant& t = tenants[eng.shard_of(g * kPerIsland)];
    for (std::size_t i = g * kPerIsland; i < (g + 1) * kPerIsland; ++i) t.members.push_back(i);
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = tenants[i];
    t.index = i;
    t.shapes = std::make_unique<ShapeStream>(params, t.members.size(), i,
                                             seed * 1000003ULL + i);
    t.rng = Pcg32(seed * 7919ULL + i, 0x5eedULL + i);
  }
  return tenants;
}

struct EngineBaseline {
  engine::EngineStats stats;
  lp::PipelineStats pipeline;
};

EngineBaseline baseline(const engine::EnforcementEngine& eng) {
  return {eng.stats(), *eng.solver_stats()};
}

}  // namespace

WorkloadResult run_admit_churn(const RunOptions& opts) {
  WorkloadResult r;
  const Params& P = opts.params;
  ChurnParams churn;
  churn.commit_prob = P.num("commit_prob");
  churn.hold_mean_ops = P.num("hold_mean_ops");

  obs::MetricsRegistry reg;
  obs::EventRing ring;
  engine::EngineOptions eopts;
  eopts.threads = P.count("engine_threads");
  eopts.plan_cache = true;
  eopts.sink = obs::Sink{&reg, &ring};
  eopts.alloc.sink = eopts.sink;

  // Set-up: economy + engine construction (partition, transitive closure,
  // per-shard allocators), repeated on fresh threads; the last engine is the
  // one measured.
  std::vector<double> setup_s;
  std::unique_ptr<engine::EnforcementEngine> eng;
  agree::AgreementSystem sys;
  for (std::size_t k = 0; k < P.count("setup_reps"); ++k) {
    eng.reset();
    setup_s.push_back(on_fresh_thread([&] {
      const auto t0 = Clock::now();
      sys = island_economy();
      eng = std::make_unique<engine::EnforcementEngine>(sys, eopts);
      std::vector<Tenant> probe = make_tenants(*eng, P, opts.seed);
      return seconds_between(t0, Clock::now());
    }));
  }
  std::vector<Tenant> tenants = make_tenants(*eng, P, opts.seed);
  r.check("engine runs one shard per tenant of four islands",
          tenants.size() == kTenants &&
              std::all_of(tenants.begin(), tenants.end(),
                          [](const Tenant& t) {
                            return t.members.size() == kIslands * kPerIsland / kTenants;
                          }),
          std::to_string(tenants.size()) + " shards");
  r.generator_threads = tenants.size();
  r.engine_threads = eopts.threads;

  // Untraced measurement (the whole run, or its first half when traced).
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const engine::EngineStats load_before = eng->stats();
  PhaseStats untraced = run_phase(*eng, tenants, churn, untraced_s, nullptr);
  const EngineDelta load = engine_delta(load_before, eng->stats());

  PhaseStats traced;
  Tracer tracer;
  EngineBaseline before;
  if (opts.trace) {
    reg.reset();
    before = baseline(*eng);
    traced = run_phase(*eng, tenants, churn, opts.seconds / 2, &tracer);
  }
  const EngineBaseline after = baseline(*eng);

  // Drain every hold, then check conservation: each capacity back at its
  // initial value, so nothing was granted twice or leaked.
  PhaseStats drain;
  for (Tenant& t : tenants) {
    while (!t.holds.empty()) {
      release_hold(*eng, t.holds.top(), drain, nullptr, 0, 0);
      t.holds.pop();
    }
  }
  const auto snap = eng->snapshot();
  double worst = 0.0;
  for (std::size_t i = 0; i < sys.size(); ++i)
    worst = std::max(worst, std::fabs(snap->capacity[i] - sys.capacity[i]) /
                                (1.0 + sys.capacity[i]));

  PhaseStats total = untraced;
  total.merge(traced);
  total.merge(drain);
  std::string errors;
  for (const Tenant& t : tenants) errors += t.error;
  r.check("tenant threads ran without exceptions", errors.empty(), errors);
  r.check("zero uncertified grants", total.uncertified == 0,
          std::to_string(total.uncertified) + " uncertified");
  r.check("every apply() accepted", total.refused == 0,
          std::to_string(total.refused) + " refused");
  r.check("capacity conserved after all holds released", worst <= 1e-6,
          "max relative drift " + std::to_string(worst));
  check_solve_chain(r, after.pipeline);
  r.attempted = total.consults + total.commits + total.releases + total.refused;
  r.failed += total.uncertified + total.refused;

  // End-to-end figures from the untraced measurement.
  PercentileReport consult = report_percentiles(untraced.consult_us);
  PercentileReport commit = report_percentiles(untraced.commit_us);
  const double decisions_per_s = untraced.median_window_rate(untraced_s);
  const double grant_rate = static_cast<double>(untraced.granted) / static_cast<double>(untraced.consults);
  const double theta_mean = untraced.theta_sum / static_cast<double>(std::max<std::uint64_t>(untraced.granted, 1));
  const double setup = median(setup_s);
  const double rss = peak_rss_mb();
  r.e2e("setup_s", setup, "s");
  r.e2e("peak_rss_mb", rss, "MB");
  r.e2e("throughput_per_s", decisions_per_s, "1/s");
  r.e2e("objective", theta_mean, "obj");

  r.figure("decisions_per_s", decisions_per_s, "1/s");
  r.figure("consult_p50_us", consult.p50, "us");
  r.figure("consult_p99_us", consult.p99, "us");
  r.figure("consult_mean_us", consult.mean, "us");
  r.figure("consult_top_percentile", 100.0 * consult.top_q, "pct");
  r.figure("consult_top_us", consult.top, "us");
  r.figure("consult_samples", static_cast<double>(consult.count), "count");
  r.figure("commit_p50_us", commit.p50, "us");
  r.figure("commit_p99_us", commit.p99, "us");
  r.figure("commit_samples", static_cast<double>(commit.count), "count");
  r.figure("grant_rate", grant_rate, "ratio");
  r.figure("plan_cache_hit_rate", load.hit_rate, "ratio");
  r.figure("plan_cache_stale_rate", load.stale_rate, "ratio");
  r.figure("theta_mean", theta_mean, "theta");
  r.figure("setup_s", setup, "s");
  r.figure("peak_rss_mb", rss, "MB");
  if (!consult.p99_supported) r.notes.push_back("consult p99 has fewer than 10 samples beyond it");

  if (opts.trace) {
    PercentileReport tc = report_percentiles(traced.consult_us);
    PercentileReport tm = report_percentiles(traced.commit_us);
    r.layer("engine.consult_p50_us", tc.p50, "us");
    r.layer("engine.commit_p50_us", tm.p50, "us");
    const EngineDelta ed = engine_delta(before.stats, after.stats);
    r.layer("engine.plan_cache.hit_rate", ed.hit_rate, "ratio");
    r.layer("engine.plan_cache.stale_rate", ed.stale_rate, "ratio");
    r.layer("engine.coalesced_share", ed.coalesced_share, "ratio");
    r.layer("engine.epochs", static_cast<double>(ed.epochs), "count");
    const RegistryView v = read_registry(reg);
    layer_registry(r, v, after.stats.fastpath_granted - before.stats.fastpath_granted);
    layer_solver(r, before.pipeline, after.pipeline);
    layer_transitive(r, sys.relative, eopts.alloc.transitive);
    attribute_consult_path(r, tc.mean, traced.consults, v.alloc_s, v.lp_s);
    r.layer("trace.overhead_rel", tc.p50 / consult.p50 - 1.0, "ratio");
    layer_spans(r, tracer, opts.trace_out);
  }
  return r;
}

}  // namespace agora::perf
