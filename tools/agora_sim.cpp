// agora_sim -- command-line driver for the ISP proxy case-study simulator.
//
// Runs an arbitrary configuration of the paper's scenario and prints the
// per-hour waiting-time series plus a summary; optionally writes the full
// 10-minute-slot series as CSV.
//
// Examples:
//   agora_sim --proxies=10 --topology=complete --share=0.1 --gap-hours=1
//   agora_sim --topology=ring --share=0.8 --skip=3 --level=1
//   agora_sim --scheduler=endpoint --topology=decay
//   agora_sim --scheduler=none --peak-rate=12 --capacity=1.3
//
// With --grm-replicas >= 1 the tool instead runs the RMS service mode: a
// quorum-replicated GRM (DESIGN.md §12) with one LRM per site and a
// failover-aware client, driven by a seeded synthetic workload over the
// virtual-time message bus. Fault injection is optional:
//   agora_sim --grm-replicas=3 --rms-requests=200
//   agora_sim --grm-replicas=3 --rms-crash-leader=1 --rms-drop=0.05
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "agree/topology.h"
#include "obs/export.h"
#include "proxysim/simulator.h"
#include "rms/bus.h"
#include "rms/client.h"
#include "rms/grm.h"
#include "rms/lrm.h"
#include "rms/replica/group.h"
#include "trace/generator.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace agora;

namespace {

/// RMS service mode: replicated GRM + per-site LRMs + failover client.
int run_rms_service(const Flags& flags) {
  // Counts are range-checked while still signed: a negative value cast to
  // an unsigned count would wrap past the check.
  if (flags.get_int("rms-sites") < 1) flags.usage_error("--rms-sites must be >= 1");
  if (flags.get_int("rms-requests") < 0) flags.usage_error("--rms-requests must be >= 0");
  const auto replicas = static_cast<std::size_t>(flags.get_int("grm-replicas"));
  const auto sites = static_cast<std::size_t>(flags.get_int("rms-sites"));
  const auto requests = static_cast<std::uint64_t>(flags.get_int("rms-requests"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double share = flags.get_double("share");
  const double drop = flags.get_double("rms-drop");
  const bool crash_leader = flags.get_int("rms-crash-leader") != 0;
  if (!(drop >= 0.0 && drop < 1.0)) flags.usage_error("--rms-drop must be in [0, 1)");

  // One resource; site s has capacity 5 * (s + 1), every pair shares `share`.
  agree::AgreementSystem sys(sites);
  for (std::size_t s = 0; s < sites; ++s) sys.capacity[s] = 5.0 * static_cast<double>(s + 1);
  for (std::size_t a = 0; a < sites; ++a)
    for (std::size_t b = 0; b < sites; ++b)
      if (a != b) sys.relative(a, b) = share;

  rms::GrmOptions gopt;
  gopt.reserve_attempts = 4;
  gopt.reserve_backoff = 0.1;
  gopt.reserve_jitter = 0.25;
  gopt.replication.replicas = replicas;
  gopt.replication.seed = seed;
  rms::ClientOptions copt;
  copt.max_attempts = 10;
  copt.retry_backoff = 0.2;
  copt.backoff_cap = 1.0;
  copt.retry_jitter = 0.25;
  copt.deadline = 30.0;
  copt.send_latency = 0.01;

  rms::MessageBus bus;
  rms::replica::ReplicatedGrm grp(bus, {sys}, {}, 0.01, gopt);
  std::vector<std::unique_ptr<rms::Lrm>> lrms;
  for (std::size_t s = 0; s < sites; ++s) {
    lrms.push_back(std::make_unique<rms::Lrm>(
        bus, std::vector<double>{5.0 * static_cast<double>(s + 1)}, 0.01));
    grp.register_lrm(s, lrms[s]->endpoint());
    lrms[s]->attach(grp.ingress(s), s);
  }
  grp.start();
  rms::RequestClient client(bus, grp.endpoints(), copt);
  bus.run_until(5.0);

  rms::FaultPlan plan;
  if (drop > 0.0) {
    plan.default_link.drop = drop;
    plan.seed = seed;
  }
  const double crash_at = 10.0;
  if (crash_leader) {
    if (const auto leader = grp.leader())
      plan.crashes.push_back(
          rms::CrashWindow{grp.node(*leader).endpoint(), crash_at, crash_at + 10.0});
  }
  bus.set_fault_plan(plan);

  std::printf("rms service: %zu replicas, %zu sites, %llu requests, drop=%.2f%s\n",
              replicas, sites, static_cast<unsigned long long>(requests), drop,
              crash_leader ? ", leader crash at t=10" : "");
  Pcg32 workload(seed);
  for (std::uint64_t id = 1; id <= requests; ++id) {
    rms::AllocationRequest req;
    req.request_id = id;
    req.principal = workload.uniform_u32(static_cast<std::uint32_t>(sites));
    req.amounts = {workload.uniform(0.3, 1.5)};
    req.duration = workload.uniform(0.5, 2.0);
    client.submit(req);
    bus.run_until(bus.now() + 0.25);
  }
  bus.run_until(bus.now() + 8.0);
  bus.set_fault_plan(rms::FaultPlan{});   // heal, then settle before quiesce
  bus.run_until(bus.now() + 5.0);
  grp.stop();
  bus.run_until_idle();

  std::uint64_t granted = 0;
  double lat_sum = 0.0;
  double first_grant_after = std::numeric_limits<double>::infinity();
  for (const auto& out : client.outcomes()) {
    if (!out.reply.granted) continue;
    ++granted;
    lat_sum += out.latency();
    if (out.resolved_at >= crash_at)
      first_grant_after = std::min(first_grant_after, out.resolved_at);
  }
  const auto st = grp.stats();
  std::printf(
      "granted %llu/%llu | mean latency %.4f vt-s | retries %llu | redirects %llu | "
      "failovers %llu | deadline denials %llu\n",
      static_cast<unsigned long long>(granted), static_cast<unsigned long long>(requests),
      granted ? lat_sum / static_cast<double>(granted) : 0.0,
      static_cast<unsigned long long>(client.retries()),
      static_cast<unsigned long long>(client.redirects()),
      static_cast<unsigned long long>(client.failovers()),
      static_cast<unsigned long long>(client.deadline_denials()));
  std::printf("raft: elections %llu | restarts %llu | snapshots %llu | converged %s\n",
              static_cast<unsigned long long>(st.elections_won),
              static_cast<unsigned long long>(st.restarts),
              static_cast<unsigned long long>(st.snapshots_installed),
              grp.converged() ? "yes" : "NO");
  if (crash_leader && std::isfinite(first_grant_after))
    std::printf("post-crash unavailability %.3f vt-s\n", first_grant_after - crash_at);
  return grp.converged() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_int("proxies", "10", "number of ISP proxies");
  flags.define_double("gap-hours", "1", "time-zone skew between adjacent proxies (hours)");
  flags.define_double("peak-rate", "9.5", "requests/second at the diurnal peak");
  flags.define_int("seed", "100", "base RNG seed (proxy p uses seed+p)");
  flags.define("scheduler", "lp", "lp | endpoint | none");
  flags.define("topology", "complete", "complete | ring | decay | sparse");
  flags.define_double("share", "0.1", "per-agreement relative share");
  flags.define_int("skip", "1", "ring topology: neighbor distance");
  flags.define_int("degree", "3", "sparse topology: agreements per proxy");
  flags.define_int("level", "0", "transitivity level (0 = full closure)");
  flags.define_double("redirect-cost", "0", "fixed overhead per redirected request (s)");
  flags.define_double("capacity", "1", "processing-power multiplier for every proxy");
  flags.define_double("threshold", "5", "queued seconds that trigger a scheduler consult");
  flags.define_double("cooldown", "5", "minimum seconds between consults per proxy");
  flags.define_double("window", "600", "scheduling epoch for spare-capacity reports (s)");
  flags.define_double("zipf", "0",
                      "Zipf(s) response-popularity exponent: responses drawn from a fixed "
                      "512-object catalog with Zipf-ranked popularity; 0 = fresh "
                      "lognormal/Pareto length per request");
  flags.define_int("grm-replicas", "0",
               "0 = proxy simulator (default); >= 1 switches to the RMS service mode: "
               "a quorum-replicated GRM with this many replicas plus per-site LRMs");
  flags.define_int("rms-sites", "2", "RMS mode: number of sites/LRMs");
  flags.define_int("rms-requests", "100", "RMS mode: synthetic allocation requests");
  flags.define_double("rms-drop", "0", "RMS mode: per-link message drop probability");
  flags.define_int("rms-crash-leader", "0", "RMS mode: 1 = crash the leader at t=10 for 10 s");
  flags.define("csv", "", "write the full 10-minute-slot series to this CSV file");
  flags.define("metrics-out", "",
               "write an observability snapshot (registry metrics + trace events) to this "
               "file; .csv extension selects CSV, anything else JSON lines");

  flags.parse_or_exit(argc, argv,
                      "agora_sim: web-proxy sharing-agreement simulator "
                      "(Zhao & Karamcheti, SC 2000)");

  try {
    if (flags.get_int("grm-replicas") >= 1) return run_rms_service(flags);
    if (flags.get_int("proxies") < 1) flags.usage_error("--proxies must be >= 1");
    const auto n = static_cast<std::size_t>(flags.get_int("proxies"));
    const double share = flags.get_double("share");

    proxysim::SimConfig cfg;
    cfg.num_proxies = n;
    cfg.redirect_cost = flags.get_double("redirect-cost");
    cfg.queue_threshold = flags.get_double("threshold");
    cfg.consult_cooldown = flags.get_double("cooldown");
    cfg.planning_window = flags.get_double("window");
    cfg.power.assign(n, flags.get_double("capacity"));

    const std::string sched = flags.get("scheduler");
    if (sched == "lp") cfg.scheduler = proxysim::SchedulerKind::Lp;
    else if (sched == "endpoint") cfg.scheduler = proxysim::SchedulerKind::Endpoint;
    else if (sched == "none") cfg.scheduler = proxysim::SchedulerKind::None;
    else flags.usage_error("unknown --scheduler: " + sched);

    const std::string topo = flags.get("topology");
    if (cfg.scheduler != proxysim::SchedulerKind::None) {
      const std::int64_t skip = flags.get_int("skip");
      const std::int64_t degree = flags.get_int("degree");
      if (topo == "ring" && (skip < 1 || skip >= flags.get_int("proxies")))
        flags.usage_error("--skip must be in [1, --proxies)");
      if (topo == "sparse" && (degree < 0 || degree >= flags.get_int("proxies")))
        flags.usage_error("--degree must be in [0, --proxies)");
      if (topo == "complete") cfg.agreements = agree::complete_graph(n, share);
      else if (topo == "ring")
        cfg.agreements = agree::ring(n, share, static_cast<std::size_t>(skip));
      else if (topo == "decay")
        cfg.agreements = agree::distance_decay(n, {2 * share, share, share / 2, share / 4});
      else if (topo == "sparse")
        cfg.agreements = agree::sparse_random(
            n, static_cast<std::size_t>(degree), share,
            static_cast<std::uint64_t>(flags.get_int("seed")));
      else flags.usage_error("unknown --topology: " + topo);
    }
    if (flags.get_int("level") < 0) flags.usage_error("--level must be >= 0");
    const auto level = static_cast<std::size_t>(flags.get_int("level"));
    if (level > 0) cfg.alloc_opts.transitive.max_level = level;

    trace::GeneratorConfig gc;
    gc.peak_rate = flags.get_double("peak-rate");
    gc.zipf_s = flags.get_double("zipf");
    const trace::Generator gen(gc, trace::DiurnalProfile::berkeley_like());
    std::vector<std::vector<trace::TraceRequest>> traces;
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const double gap = flags.get_double("gap-hours") * 3600.0;
    for (std::size_t p = 0; p < n; ++p)
      traces.push_back(gen.generate(seed + p, gap * static_cast<double>(p)));

    std::printf("simulating %zu proxies, scheduler=%s, topology=%s ...\n", n, sched.c_str(),
                topo.c_str());
    proxysim::Simulator sim(cfg);
    const proxysim::SimMetrics m = sim.run(traces);

    std::printf("\n%-5s %12s\n", "hour", "avg wait (s)");
    for (std::size_t h = 0; h < 24; ++h) {
      StreamingStats acc;
      for (std::size_t s = h * 6; s < (h + 1) * 6 && s < m.wait_by_slot.slots(); ++s)
        acc.merge(m.wait_by_slot.slot(s));
      std::printf("%-5zu %12.3f\n", h, acc.mean());
    }
    std::printf(
        "\nrequests %llu | mean wait %.3f s | p50/p95/p99 %.2f/%.2f/%.2f s | "
        "peak-slot wait %.2f s |\nredirected %.2f%% | consults %llu | LP iterations %llu\n",
        static_cast<unsigned long long>(m.total_requests), m.mean_wait(),
        m.wait_quantile(0.50), m.wait_quantile(0.95), m.wait_quantile(0.99),
        m.peak_slot_wait(), 100.0 * m.redirected_fraction(),
        static_cast<unsigned long long>(m.scheduler_consults),
        static_cast<unsigned long long>(m.lp_iterations));

    const std::string csv = flags.get("csv");
    if (!csv.empty()) {
      Table t({"slot_mid_s", "requests", "avg_wait_s", "redirected"});
      for (std::size_t s = 0; s < m.wait_by_slot.slots(); ++s)
        t.add_row({m.wait_by_slot.slot_mid(s), static_cast<double>(m.requests_by_slot[s]),
                   m.wait_by_slot.slot(s).mean(), static_cast<double>(m.redirected_by_slot[s])});
      t.save_csv(csv);
      std::printf("wrote %s\n", csv.c_str());
    }

    const std::string metrics_out = flags.get("metrics-out");
    if (!metrics_out.empty()) {
      // Registry totals from the global sink; the run's own event stream
      // comes from SimMetrics (the per-run ring), not the global ring.
      obs::Sink snap = obs::Sink::global();
      snap.events = nullptr;
      obs::write_snapshot(metrics_out, snap, m.events);
      std::printf("wrote %s (%zu metrics-visible events, %llu overwritten)\n",
                  metrics_out.c_str(), m.events.size(),
                  static_cast<unsigned long long>(m.events_overwritten));
    }
    return 0;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
}
