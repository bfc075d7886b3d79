// serve_federated -- admission over the wire on a federated engine, under
// periodic availability reports.
//
// An in-process net::AgoraService on 127.0.0.1 fronts an EnforcementEngine
// (threads=2, plan cache on, federation on with its default options) over
// the bridged single-component economy. Two net::Client connections send
// Zipf consults on a seeded Poisson schedule (an open loop: latency is timed
// from each request's due time), and a reporter thread calls
// set_capacities() once per report period with seeded per-capacity jitter,
// as the paper's LRMs report availability. The fixed cadence means a faster
// report never changes how often the plan cache is invalidated.
//
// The federated decision's distance from the global optimum (theta gap) is
// measured outside the timed run, in a deterministic single-caller pass with
// no wire (see oracle.h).
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "economies.h"
#include "engine/engine.h"
#include "measure.h"
#include "net/client.h"
#include "net/service.h"
#include "oracle.h"
#include "report.h"
#include "spans.h"
#include "util/rng.h"

namespace agora::perf {

namespace {

engine::EngineOptions engine_options(const Params& P, obs::Sink sink) {
  engine::EngineOptions o;
  o.threads = P.count("engine_threads");
  o.plan_cache = true;
  o.federation.enabled = true;
  o.alloc.transitive.max_level = P.count("transitive_level");
  o.sink = sink;
  o.alloc.sink = sink;
  return o;
}

/// The k-th availability report: every base capacity scaled by a seeded
/// factor in [1 - jitter, 1 + jitter].
std::vector<double> report_vector(const std::vector<double>& base, double jitter,
                                  std::uint64_t seed, std::uint64_t k) {
  Pcg32 rng(seed * 104729ULL + k, 0xcafeULL);
  std::vector<double> v(base.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    v[i] = base[i] * (1.0 + jitter * (2.0 * rng.next_double() - 1.0));
  return v;
}

/// Everything one open-loop phase sends, generated from the seed up front.
struct PhaseInputs {
  std::vector<std::vector<double>> due;                 ///< per client, seconds
  std::vector<std::vector<trace::RequestShape>> shapes;  ///< per client
  std::vector<double> report_due;                       ///< seconds
  std::vector<std::vector<double>> reports;
};

PhaseInputs make_inputs(const Params& P, const std::vector<double>& base, std::uint64_t seed,
                        std::uint64_t phase, double seconds) {
  PhaseInputs in;
  const std::size_t clients = P.count("clients");
  const double rate = P.num("offered_rate") / static_cast<double>(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::uint64_t s = seed * 1000003ULL + phase * 101ULL + c;
    in.due.push_back(poisson_schedule(rate, seconds, s));
    ShapeStream gen(P, kIslands * kPerIsland, 0, s);
    std::vector<trace::RequestShape> shapes(in.due.back().size());
    for (auto& sh : shapes) sh = gen.next();
    in.shapes.push_back(std::move(shapes));
  }
  const double period = P.num("report_period_s");
  for (std::uint64_t k = 0; (static_cast<double>(k) + 0.5) * period < seconds; ++k) {
    in.report_due.push_back((static_cast<double>(k) + 0.5) * period);
    in.reports.push_back(report_vector(base, P.num("capacity_jitter"), seed, phase * 1000 + k));
  }
  return in;
}

struct LoadStats {
  LatencyHistogram latency_us;  ///< due time -> reply
  LatencyHistogram late_us;     ///< how late each request was sent
  std::vector<double> report_due_ms;
  std::vector<double> report_call_ms;
  std::uint64_t scheduled = 0;
  std::uint64_t resolved = 0;
  std::uint64_t goodput = 0;
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  std::uint64_t uncertified = 0;
  std::uint64_t shed = 0;
  std::uint64_t late = 0;
  std::uint64_t transport = 0;
  std::string error;

  void merge(const LoadStats& o) {
    latency_us.merge(o.latency_us);
    late_us.merge(o.late_us);
    report_due_ms.insert(report_due_ms.end(), o.report_due_ms.begin(), o.report_due_ms.end());
    report_call_ms.insert(report_call_ms.end(), o.report_call_ms.begin(), o.report_call_ms.end());
    scheduled += o.scheduled;
    resolved += o.resolved;
    goodput += o.goodput;
    granted += o.granted;
    denied += o.denied;
    uncertified += o.uncertified;
    shed += o.shed;
    late += o.late;
    transport += o.transport;
    if (error.empty()) error = o.error;
  }
  std::uint64_t failed() const { return uncertified + shed + late + transport; }
};

void classify(const net::ConsultOutcome& out, double latency_us, double deadline_us,
              LoadStats& s) {
  ++s.resolved;
  bool decided = false;
  switch (out.status.code()) {
    case StatusCode::Ok:
      if (out.reply.has_plan && out.reply.certified) {
        ++s.granted;
        decided = true;
      } else {
        ++s.uncertified;
      }
      break;
    case StatusCode::Insufficient:
    case StatusCode::Denied:
      ++s.denied;
      decided = true;
      break;
    case StatusCode::Unavailable:
    case StatusCode::DeadlineExceeded:
      ++s.shed;
      break;
    default:
      ++s.transport;
      break;
  }
  if (!decided) return;
  if (latency_us > deadline_us) {
    ++s.late;
    return;
  }
  ++s.goodput;
}

/// One open-loop phase: a thread per client plus the reporter thread.
LoadStats run_load(engine::EnforcementEngine& eng,
                   std::vector<std::unique_ptr<net::Client>>& clients, const PhaseInputs& in,
                   int deadline_ms, double seconds, Tracer* tracer) {
  const std::size_t nc = clients.size();
  std::vector<LoadStats> per(nc + 1);
  std::vector<SpanLog*> logs(nc + 1, nullptr);
  if (tracer)
    for (auto& l : logs) l = tracer->add_log();
  const double deadline_us = 1e3 * deadline_ms;
  // Requests still unsent this long after the window are abandoned (and
  // reported unresolved) so an overloaded run still ends.
  const double grace_s = 5.0;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto cutoff = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds + grace_s));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      tighten_timer_slack();
      LoadStats& s = per[c];
      s.scheduled = in.due[c].size();
      OpenLoopPacer pacer(start, in.due[c]);
      Clock::time_point due;
      try {
        while (pacer.next(due)) {
          if (Clock::now() > cutoff) break;
          const trace::RequestShape& sh = in.shapes[c][pacer.released() - 1];
          const std::uint64_t req = (std::uint64_t{c + 1} << 40) | pacer.released();
          ScopedSpan root(logs[c], "client.request", req);
          net::ConsultOutcome out;
          {
            ScopedSpan span(logs[c], "net.consult", req, root.id());
            out = clients[c]->consult(static_cast<std::uint32_t>(sh.participant), sh.amount,
                                      deadline_ms);
          }
          const double latency_us = micros_between(due, Clock::now());
          s.latency_us.add(latency_us);
          classify(out, latency_us, deadline_us, s);
        }
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      s.late_us = pacer.lateness();
    });
  }
  threads.emplace_back([&] {
    tighten_timer_slack();
    LoadStats& s = per[nc];
    OpenLoopPacer pacer(start, in.report_due);
    Clock::time_point due;
    // Reports slower than the cadence fall behind it; those still unsent
    // when the window closes are dropped, so slow reports cannot stretch the
    // run.
    const auto window_end = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    try {
      while (pacer.next(due) && Clock::now() < window_end) {
        const std::vector<double>& v = in.reports[pacer.released() - 1];
        ScopedSpan root(logs[nc], "reporter.report", pacer.released());
        const auto t0 = Clock::now();
        {
          ScopedSpan span(logs[nc], "engine.set_capacities", pacer.released(), root.id());
          eng.set_capacities(std::span<const double>(v));
        }
        const auto done = Clock::now();
        s.report_due_ms.push_back(1e-3 * micros_between(due, done));
        s.report_call_ms.push_back(1e-3 * micros_between(t0, done));
      }
    } catch (const std::exception& e) {
      s.error = e.what();
    }
  });
  for (auto& t : threads) t.join();
  LoadStats all;
  for (const LoadStats& s : per) all.merge(s);
  return all;
}

/// The deterministic theta-gap pass: one caller, no wire, a report after a
/// fixed number of consults, every grant compared against the oracle.
struct GapPass {
  double mean_gap_rel = 0.0;
  double max_gap_rel = 0.0;
  std::uint64_t grants = 0;
  std::uint64_t consults = 0;
  std::vector<double> report_ms;  ///< set_capacities() with one caller and no load
};

GapPass theta_gap_pass(const Params& P, std::uint64_t seed) {
  const agree::AgreementSystem sys = bridged_economy();
  const engine::EngineOptions eopts = engine_options(P, obs::Sink::none());
  engine::EnforcementEngine eng(sys, eopts);
  ThetaGapOracle oracle(sys, eopts.alloc.transitive);
  ShapeStream gen(P, sys.size(), 0, seed * 31ULL + 7);
  GapPass g;
  double sum = 0.0;
  for (std::size_t round = 0; round < P.count("gap_pass_rounds"); ++round) {
    for (std::size_t k = 0; k < P.count("gap_pass_consults"); ++k) {
      const trace::RequestShape sh = gen.next();
      const alloc::AllocationPlan plan = eng.consult(sh.participant, sh.amount);
      ++g.consults;
      if (const auto gap = oracle.gap_rel(sh.participant, sh.amount, plan)) {
        ++g.grants;
        sum += *gap;
        g.max_gap_rel = std::max(g.max_gap_rel, *gap);
      }
    }
    const std::vector<double> v =
        report_vector(sys.capacity, P.num("capacity_jitter"), seed, 900000 + round);
    const auto t0 = Clock::now();
    eng.set_capacities(std::span<const double>(v));
    g.report_ms.push_back(1e-3 * micros_between(t0, Clock::now()));
    oracle.set_capacities(std::span<const double>(v));
  }
  g.mean_gap_rel = g.grants > 0 ? sum / static_cast<double>(g.grants) : 0.0;
  return g;
}

struct Stack {
  std::unique_ptr<engine::EnforcementEngine> eng;
  std::unique_ptr<net::AgoraService> svc;
  std::vector<std::unique_ptr<net::Client>> clients;

  void reset() {
    clients.clear();
    if (svc) svc->stop();
    svc.reset();
    eng.reset();
  }
};

}  // namespace

WorkloadResult run_serve_federated(const RunOptions& opts) {
  WorkloadResult r;
  const Params& P = opts.params;
  obs::MetricsRegistry reg;
  obs::EventRing ring;
  const obs::Sink sink{&reg, &ring};
  const engine::EngineOptions eopts = engine_options(P, sink);
  const int deadline_ms = static_cast<int>(P.count("deadline_ms"));

  // Set-up: engine construction (partition, transitive closure, initial
  // settlement), service start and client connect, repeated on fresh threads.
  std::vector<double> setup_s;
  Stack st;
  agree::AgreementSystem sys;
  for (std::size_t k = 0; k < P.count("setup_reps"); ++k) {
    st.reset();
    setup_s.push_back(on_fresh_thread([&] {
      const auto t0 = Clock::now();
      sys = bridged_economy();
      st.eng = std::make_unique<engine::EnforcementEngine>(sys, eopts);
      net::ServiceOptions so;
      so.sink = sink;
      st.svc = std::make_unique<net::AgoraService>(*st.eng, so);
      const Status started = st.svc->start();
      AGORA_REQUIRE(started.ok(), "service did not start: " + started.to_string());
      for (std::size_t c = 0; c < P.count("clients"); ++c) {
        net::ClientOptions co;
        co.endpoints = {net::Endpoint{"127.0.0.1", st.svc->port()}};
        co.seed = opts.seed * 17 + c;
        co.sink = sink;
        st.clients.push_back(std::make_unique<net::Client>(co));
        const Status ping = st.clients.back()->ping();
        AGORA_REQUIRE(ping.ok(), "client could not connect: " + ping.to_string());
      }
      return seconds_between(t0, Clock::now());
    }));
  }
  r.check("federated split in use", st.eng->federated(),
          std::to_string(st.eng->num_shards()) + " shards");
  r.generator_threads = st.clients.size() + 1;  // the clients and the reporter
  r.engine_threads = eopts.threads + 1;         // the workers and the service loop

  // Untraced open loop (the whole run, or its first half when traced).
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const PhaseInputs in0 = make_inputs(P, sys.capacity, opts.seed, 0, untraced_s);
  const engine::EngineStats load_before = st.eng->stats();
  LoadStats untraced = run_load(*st.eng, st.clients, in0, deadline_ms, untraced_s, nullptr);
  const EngineDelta load = engine_delta(load_before, st.eng->stats());

  LoadStats traced;
  Tracer tracer;
  engine::EngineStats before;
  lp::PipelineStats pipe_before;
  if (opts.trace) {
    reg.reset();
    before = st.eng->stats();
    pipe_before = *st.eng->solver_stats();
    const PhaseInputs in1 = make_inputs(P, sys.capacity, opts.seed, 1, opts.seconds / 2);
    traced = run_load(*st.eng, st.clients, in1, deadline_ms, opts.seconds / 2, &tracer);
  }
  // Registry figures of the traced load, read before the wire phase resets it.
  const RegistryView traced_reg = read_registry(reg);
  const engine::EngineStats after = st.eng->stats();
  const lp::PipelineStats pipe_after = *st.eng->solver_stats();

  LoadStats total = untraced;
  total.merge(traced);
  r.check("load threads ran without exceptions", total.error.empty(), total.error);
  r.check("every scheduled consult resolved", total.resolved == total.scheduled,
          std::to_string(total.resolved) + " of " + std::to_string(total.scheduled));
  r.check("zero uncertified grants", total.uncertified == 0,
          std::to_string(total.uncertified) + " uncertified");
  check_solve_chain(r, pipe_after);
  if (total.shed + total.late + total.transport > 0)
    r.notes.push_back("shed " + std::to_string(total.shed) + ", late " +
                      std::to_string(total.late) + ", transport errors " +
                      std::to_string(total.transport));
  r.attempted = total.scheduled + total.report_call_ms.size();
  r.failed += total.failed() + (total.scheduled - total.resolved);

  // The wire-overhead phase (traced run only): the same shapes, first
  // in-process through submit(), then closed-loop over one connection.
  std::vector<double> submit_us, wire_us;
  RegistryView submit_reg;
  if (opts.trace) {
    SpanLog* log = tracer.add_log();
    const std::vector<trace::RequestShape>& shapes = in0.shapes[0];
    const std::size_t m = std::min<std::size_t>(P.count("wire_phase_consults"), shapes.size());
    reg.reset();
    for (std::size_t i = 0; i < m; ++i) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(log, "engine.submit", (std::uint64_t{9} << 40) | i);
        (void)st.eng->submit(shapes[i].participant, shapes[i].amount).get();
      }
      submit_us.push_back(micros_between(t0, Clock::now()));
    }
    submit_reg = read_registry(reg);
    for (std::size_t i = 0; i < m; ++i) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(log, "net.consult", (std::uint64_t{10} << 40) | i);
        (void)st.clients[0]->consult(static_cast<std::uint32_t>(shapes[i].participant),
                                     shapes[i].amount, deadline_ms);
      }
      wire_us.push_back(micros_between(t0, Clock::now()));
    }
  }
  const net::ServiceStats svc_stats = st.svc->stats();
  net::ClientStats cstats;
  for (const auto& c : st.clients) {
    cstats.retries += c->stats().retries;
    cstats.reconnects += c->stats().reconnects;
  }
  st.clients.clear();
  st.svc->stop();
  const net::ServiceStats final_stats = st.svc->stats();
  r.check("service answered every consult it admitted",
          final_stats.consults == final_stats.answered,
          std::to_string(final_stats.answered) + " of " + std::to_string(final_stats.consults));

  // End-to-end figures from the untraced open loop.
  PercentileReport lat = report_percentiles(untraced.latency_us);
  PercentileReport rep = report_percentiles(untraced.report_due_ms);
  PercentileReport late = report_percentiles(untraced.late_us);
  const double goodput_rps = static_cast<double>(untraced.goodput) / untraced_s;
  const double setup = median(setup_s);
  const double rss = peak_rss_mb();
  r.e2e("setup_s", setup, "s");
  r.e2e("peak_rss_mb", rss, "MB");
  r.e2e("throughput_per_s", goodput_rps, "1/s");

  r.figure("goodput_rps", goodput_rps, "1/s");
  r.figure("offered_rps", static_cast<double>(untraced.scheduled) / untraced_s, "1/s");
  r.figure("consult_p50_us", lat.p50, "us");
  r.figure("consult_p99_us", lat.p99, "us");
  r.figure("consult_mean_us", lat.mean, "us");
  r.figure("consult_top_percentile", 100.0 * lat.top_q, "pct");
  r.figure("consult_top_us", lat.top, "us");
  r.figure("consult_samples", static_cast<double>(lat.count), "count");
  r.figure("grant_rate",
           static_cast<double>(untraced.granted) /
               static_cast<double>(std::max<std::uint64_t>(untraced.granted + untraced.denied, 1)),
           "ratio");
  r.figure("plan_cache_hit_rate", load.hit_rate, "ratio");
  r.figure("report_p50_ms", rep.p50, "ms");
  r.figure("report_call_p50_ms", median(untraced.report_call_ms), "ms");
  r.figure("report_call_max_ms",
           untraced.report_call_ms.empty()
               ? 0.0
               : *std::max_element(untraced.report_call_ms.begin(), untraced.report_call_ms.end()),
           "ms");
  r.figure("report_samples", static_cast<double>(rep.count), "count");
  if (!rep.supported)
    r.notes.push_back("report_p50_ms is the median of only " + std::to_string(rep.count) +
                      " reports (a median needs 20 to have 10 beyond it)");
  r.figure("gen_late_p99_us", late.p99, "us");
  r.figure("setup_s", setup, "s");
  r.figure("peak_rss_mb", rss, "MB");

  if (!opts.trace) {
    const GapPass gap = theta_gap_pass(P, opts.seed);
    r.e2e("objective", gap.mean_gap_rel, "obj");
    r.figure("theta_gap_rel", gap.mean_gap_rel, "ratio");
    r.figure("theta_gap_max_rel", gap.max_gap_rel, "ratio");
    r.figure("theta_gap_grants", static_cast<double>(gap.grants), "count");
    r.figure("gap_pass_report_ms", median(gap.report_ms), "ms");
  } else {
    PercentileReport tl = report_percentiles(traced.latency_us);
    // Reports are few, so engine.report_ms takes those of both halves.
    std::vector<double> report_call_ms = total.report_call_ms;
    PercentileReport treport = report_percentiles(report_call_ms);
    PercentileReport tlate = report_percentiles(traced.late_us);
    PercentileReport sub = report_percentiles(submit_us);
    PercentileReport wire = report_percentiles(wire_us);
    r.layer("engine.consult_p50_us", sub.p50, "us");
    r.layer("engine.report_ms", treport.p50, "ms");
    r.figure("report_call_samples", static_cast<double>(treport.count), "count");
    if (!treport.supported)
      r.notes.push_back("engine.report_ms is the median of only " +
                        std::to_string(treport.count) + " reports");
    const EngineDelta ed = engine_delta(before, after);
    r.layer("engine.plan_cache.hit_rate", ed.hit_rate, "ratio");
    r.layer("engine.plan_cache.stale_rate", ed.stale_rate, "ratio");
    r.layer("engine.coalesced_share", ed.coalesced_share, "ratio");
    r.layer("engine.epochs", static_cast<double>(ed.epochs), "count");
    r.layer("engine.federation.gap_probes",
            static_cast<double>(after.federation.gap_probes - before.federation.gap_probes), "count");
    r.layer("engine.federation.max_gap_rel", after.federation.max_gap_rel, "ratio");
    layer_registry(r, traced_reg, after.fastpath_granted - before.fastpath_granted);
    layer_solver(r, pipe_before, pipe_after);
    layer_transitive(r, sys.relative, eopts.alloc.transitive);
    r.layer("net.wire_overhead_p50_us", wire.p50 - sub.p50, "us");
    r.layer("net.bytes_per_consult",
            static_cast<double>(final_stats.bytes_rx + final_stats.bytes_tx) /
                static_cast<double>(std::max<std::uint64_t>(final_stats.consults, 1)),
            "bytes");
    r.layer("net.peak_queue", static_cast<double>(svc_stats.peak_queue), "count");
    r.layer("net.peak_inflight", static_cast<double>(svc_stats.peak_inflight), "count");
    r.layer("net.shed",
            static_cast<double>(final_stats.shed_queue + final_stats.shed_deadline +
                                final_stats.shed_drain + final_stats.late_drop),
            "count");
    r.layer("net.client_retries", static_cast<double>(cstats.retries), "count");
    r.layer("net.reconnects", static_cast<double>(cstats.reconnects), "count");
    r.layer("gen.late_p99_us", tlate.p99, "us");
    attribute_consult_path(r, wire.mean, submit_us.size(), submit_reg.alloc_s, submit_reg.lp_s,
                           wire.mean - sub.mean);
    r.layer("trace.overhead_rel", tl.p50 / lat.p50 - 1.0, "ratio");
    layer_spans(r, tracer, opts.trace_out);
  }
  st.reset();
  return r;
}

}  // namespace agora::perf
