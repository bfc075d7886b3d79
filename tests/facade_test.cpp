// The public-API contract test: this file drives every supported decision
// backend -- the flat LP Allocator, the HierarchicalAllocator and the
// sharded EnforcementEngine -- through <agora/agora.h> and the
// alloc::AllocatorBase interface alone. If a facade re-export goes missing
// or a backend drifts off the interface, this translation unit stops
// compiling. The other includes are rms headers, which the facade does not
// re-export: the stats/registry agreement test below runs every layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "agora/agora.h"
#include "rms/bus.h"
#include "rms/client.h"
#include "rms/grm.h"
#include "rms/lrm.h"
#include "rms/replica/group.h"

namespace agora {
namespace {

agree::AgreementSystem demo_system() {
  agree::AgreementSystem sys(4);
  sys.capacity = {10.0, 10.0, 10.0, 10.0};
  sys.relative = agree::complete_graph(4, 0.3);
  return sys;
}

/// Exercise one backend purely through the interface: allocate, apply,
/// release, set_capacities, availability and solver telemetry.
void drive(alloc::AllocatorBase& backend) {
  ASSERT_EQ(backend.size(), 4u);
  const double before = backend.available_to(1);
  EXPECT_GT(before, 0.0);

  const alloc::AllocationPlan plan = backend.allocate(1, 2.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_EQ(to_status(plan.status).code(), StatusCode::Ok);

  backend.apply(plan);
  EXPECT_LT(backend.available_to(1), before);
  backend.release(plan.draw);
  EXPECT_NEAR(backend.available_to(1), before, 1e-6);

  const std::vector<double> caps(backend.size(), 8.0);
  backend.set_capacities(std::span<const double>(caps));
  for (std::size_t i = 0; i < backend.size(); ++i)
    EXPECT_NEAR(backend.system().capacity[i], 8.0, 1e-12);

  // Telemetry is reachable through the interface. (The count may be zero:
  // the hierarchical backend's intra-group fast path decides small
  // requests without running the certified LP pipeline.)
  const std::optional<lp::PipelineStats> stats = backend.solver_stats();
  if (stats.has_value()) {
    EXPECT_GE(stats->solves + 1, 1u);
  }
}

TEST(Facade, EveryBackendRunsThroughAllocatorBase) {
  std::vector<std::unique_ptr<alloc::AllocatorBase>> backends;
  backends.push_back(std::make_unique<alloc::Allocator>(demo_system()));
  backends.push_back(
      std::make_unique<alloc::HierarchicalAllocator>(demo_system(),
                                                     std::vector<std::size_t>{0, 0, 1, 1}));
  engine::EngineOptions eopts;
  eopts.threads = 2;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  backends.push_back(std::make_unique<engine::EnforcementEngine>(demo_system(), eopts));
  for (auto& backend : backends) drive(*backend);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> availability(const alloc::AllocatorBase& backend) {
  std::vector<double> out(backend.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = backend.available_to(i);
  return out;
}

/// The flat Allocator, the HierarchicalAllocator over `groups`, and engines
/// on one and two shards: every backend that writes capacity.
std::vector<std::unique_ptr<alloc::AllocatorBase>> write_backends(
    const agree::AgreementSystem& sys, const std::vector<std::size_t>& groups) {
  std::vector<std::unique_ptr<alloc::AllocatorBase>> backends;
  backends.push_back(std::make_unique<alloc::Allocator>(sys));
  backends.push_back(std::make_unique<alloc::HierarchicalAllocator>(sys, groups));
  for (const std::size_t threads : {1, 2}) {
    engine::EngineOptions eopts;
    eopts.threads = threads;
    eopts.sink = obs::Sink::none();
    eopts.alloc.sink = obs::Sink::none();
    backends.push_back(std::make_unique<engine::EnforcementEngine>(sys, eopts));
  }
  return backends;
}

TEST(Facade, EveryBackendRefusesMalformedWritesUnchanged) {
  agree::AgreementSystem sys = demo_system();
  sys.capacity = {10.0, 11.0, 12.0, 13.0};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (auto& backend : write_backends(sys, {0, 0, 1, 1})) {
    const alloc::AllocationPlan plan = backend->allocate(1, 2.0);
    ASSERT_TRUE(plan.satisfied());
    const std::vector<double> capacity = backend->system().capacity;
    const std::vector<double> available = availability(*backend);
    const auto expect_unchanged = [&](const char* write) {
      EXPECT_TRUE(bitwise_equal(backend->system().capacity, capacity)) << write;
      EXPECT_TRUE(bitwise_equal(availability(*backend), available)) << write;
    };
    const auto drawing = [&](double d) {
      alloc::AllocationPlan bad = plan;
      bad.draw[0] = d;
      return bad;
    };

    EXPECT_THROW(backend->apply(drawing(-5.0)), PreconditionError);
    expect_unchanged("negative draw");
    EXPECT_THROW(backend->apply(drawing(kNan)), PreconditionError);
    expect_unchanged("NaN draw");
    EXPECT_THROW(backend->apply(drawing(-kInf)), PreconditionError);
    expect_unchanged("-inf draw");
    EXPECT_THROW(backend->apply(drawing(capacity[0] + 1.0)), PreconditionError);
    expect_unchanged("draw above capacity");
    EXPECT_THROW(backend->release({1.0, -1.0, 0.0, 0.0}), PreconditionError);
    expect_unchanged("negative release");
    EXPECT_THROW(backend->release({kInf, 0.0, 0.0, 0.0}), PreconditionError);
    expect_unchanged("+inf release");
    std::vector<double> caps = capacity;
    caps[2] = kNan;
    EXPECT_THROW(backend->set_capacities(caps), PreconditionError);
    expect_unchanged("NaN capacity");
  }
}

/// `islands` complete-graph islands of `per` participants (share 0.2,
/// capacities 10 .. 10 + per - 1) with no agreement between islands.
agree::AgreementSystem island_economy(std::size_t islands, std::size_t per) {
  agree::AgreementSystem sys(islands * per);
  for (std::size_t i = 0; i < sys.size(); ++i)
    sys.capacity[i] = 10.0 + static_cast<double>(i % per);
  for (std::size_t g = 0; g < islands; ++g)
    for (std::size_t i = g * per; i < (g + 1) * per; ++i)
      for (std::size_t j = g * per; j < (g + 1) * per; ++j)
        if (i != j) sys.relative(i, j) = 0.2;
  return sys;
}

TEST(Facade, EveryBackendCommitsTheSameCapacities) {
  // A seeded conservation stream: plans from the direct Allocator, each
  // applied with p = 0.25 and released after a sampled hold, and a fresh
  // report through set_capacities every 50 writes. Every backend turns each
  // write into its next capacities by the same rule, so their capacities
  // stay bitwise equal, and a released hold gives back exactly its draw.
  constexpr std::size_t kIslands = 8, kPer = 8;
  const agree::AgreementSystem sys = island_economy(kIslands, kPer);
  std::vector<std::size_t> groups(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) groups[i] = i / kPer;
  const auto backends = write_backends(sys, groups);
  alloc::AllocatorBase& planner = *backends[0];

  std::mt19937_64 rng(19);
  std::uniform_int_distribution<std::size_t> who(0, sys.size() - 1);
  std::uniform_real_distribution<double> frac(0.05, 0.9);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> hold_steps(1, 40);

  std::vector<double> start = sys.capacity;
  std::size_t writes = 0;
  const auto same_everywhere = [&] {
    const std::vector<double>& c = backends[0]->system().capacity;
    for (std::size_t b = 1; b < backends.size(); ++b)
      if (!bitwise_equal(backends[b]->system().capacity, c)) return false;
    return std::all_of(c.begin(), c.end(), [](double v) { return v >= 0.0; });
  };
  const auto report_every_50 = [&] {
    if (++writes % 50 != 0) return;
    // Every capacity grows by a sampled amount, and so does the level a
    // fully released economy returns to.
    std::vector<double> caps = planner.system().capacity;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const double up = unit(rng);
      caps[i] += up;
      start[i] += up;
    }
    for (auto& b : backends) b->set_capacities(caps);
  };

  struct Hold {
    std::size_t due = 0;
    std::vector<double> draw;
  };
  std::vector<Hold> holds;
  std::size_t applied = 0;
  for (std::size_t step = 0; step < 2000; ++step) {
    for (std::size_t h = 0; h < holds.size();) {
      if (holds[h].due > step) {
        ++h;
        continue;
      }
      for (auto& b : backends) b->release(holds[h].draw);
      ASSERT_TRUE(same_everywhere()) << "release at step " << step;
      report_every_50();
      ASSERT_TRUE(same_everywhere()) << "report at step " << step;
      holds.erase(holds.begin() + static_cast<std::ptrdiff_t>(h));
    }
    const std::size_t a = who(rng);
    const alloc::AllocationPlan plan = planner.allocate(a, frac(rng) * planner.available_to(a));
    if (!plan.satisfied() || unit(rng) >= 0.25) continue;
    for (auto& b : backends) b->apply(plan);
    ++applied;
    ASSERT_TRUE(same_everywhere()) << "apply at step " << step;
    report_every_50();
    ASSERT_TRUE(same_everywhere()) << "report at step " << step;
    holds.push_back(Hold{step + hold_steps(rng), plan.draw});
  }
  EXPECT_GT(applied, 200u);
  EXPECT_GT(writes, 400u);

  for (const Hold& h : holds)
    for (auto& b : backends) b->release(h.draw);
  ASSERT_TRUE(same_everywhere());
  const std::vector<double>& end = backends[0]->system().capacity;
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_NEAR(end[i], start[i], 1e-9 * (1.0 + start[i])) << "participant " << i;
}

TEST(Facade, ExpressionToAllocationRoundTrip) {
  // The quickstart flow, through the facade: economy -> valuation ->
  // matrices -> transitive availability -> one LP allocation.
  core::Economy economy;
  const auto disk = economy.add_resource_type("disk", "TB");
  const auto a = economy.add_principal("A", 1000.0);
  const auto b = economy.add_principal("B", 100.0);
  economy.fund_with_resource(economy.default_currency(a), disk, 10.0);
  economy.issue_relative(economy.default_currency(a), economy.default_currency(b), 500.0, disk,
                         core::SharingMode::Sharing);

  const core::Valuation val = core::value_economy(economy);
  EXPECT_GT(val.currency_value(economy.default_currency(b), disk), 0.0);

  const agree::AgreementSystem sys = agree::from_economy(economy, disk);
  const agree::CapacityReport rep = agree::compute_capacities(sys);
  EXPECT_GT(rep.capacity[1], 0.0);  // B reaches A's disk transitively

  const std::unique_ptr<alloc::AllocatorBase> backend =
      std::make_unique<alloc::Allocator>(sys);
  const alloc::AllocationPlan plan = backend->allocate(1, 3.0);
  EXPECT_TRUE(plan.satisfied());
}

// A stats() field and the registry counter its count feeds must read the
// same. With the observability layer compiled out the struct still counts
// and the registry reads 0.
class PairCheck {
 public:
  explicit PairCheck(obs::MetricsRegistry& reg) : reg_(reg) {}

  /// `nonzero`: the scenario is built so this count cannot stay 0, which
  /// keeps an equality of two zeros from passing for a count that never ran.
  void operator()(std::string_view name, std::uint64_t in_stats, bool nonzero = true) {
    const std::uint64_t in_registry = reg_.counter(name).value();
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(in_registry, in_stats) << name;
    } else {
      EXPECT_EQ(in_registry, 0u) << name;
    }
    if (nonzero) {
      EXPECT_GT(in_stats, 0u) << name;
    }
  }

 private:
  obs::MetricsRegistry& reg_;
};

TEST(Facade, StatsAndRegistryCountEachEventOnce) {
  // --- A federated 2-shard engine with the plan cache, fronted by the wire
  // service and a failover-aware client.
  obs::MetricsRegistry engine_reg, service_reg, client_reg;
  const obs::Sink engine_sink{&engine_reg, nullptr};
  agree::AgreementSystem sys(8);
  sys.capacity.assign(8, 10.0);
  sys.relative = agree::complete_graph(8, 0.1);
  engine::EngineOptions eopts;
  eopts.threads = 2;
  eopts.plan_cache = true;
  eopts.federation.enabled = true;
  eopts.sink = engine_sink;
  eopts.alloc.sink = engine_sink;
  engine::EnforcementEngine eng(sys, eopts);
  ASSERT_TRUE(eng.federated());
  for (std::size_t a = 0; a < 8; ++a) {
    ASSERT_TRUE(eng.consult(a, 0.5).satisfied());  // the LP, then cached
    ASSERT_TRUE(eng.consult(a, 0.5).satisfied());
    ASSERT_TRUE(eng.consult(a, 8.0).satisfied());
    EXPECT_FALSE(eng.consult(a, 1000.0).satisfied());  // a cached denial
    EXPECT_FALSE(eng.consult(a, 1000.0).satisfied());
  }
  const alloc::AllocationPlan held = eng.consult(3, 2.0);
  ASSERT_TRUE(held.satisfied());
  eng.apply(held);  // a settlement: gap probes, a new epoch
  ASSERT_TRUE(eng.consult(3, 0.5).satisfied());  // the 0.5 entry is stale

  net::ServiceOptions sopts;
  sopts.sink = obs::Sink{&service_reg, nullptr};
  net::AgoraService service(eng, sopts);
  ASSERT_TRUE(service.start().ok());
  // A first endpoint whose service is gone: the client fails over.
  net::ServiceOptions gone_opts;
  gone_opts.sink = obs::Sink::none();
  net::AgoraService gone(eng, gone_opts);
  ASSERT_TRUE(gone.start().ok());
  const std::uint16_t gone_port = gone.port();
  gone.stop();
  net::ClientOptions copts;
  copts.endpoints = {net::Endpoint{"", gone_port}, net::Endpoint{"", service.port()}};
  copts.sink = obs::Sink{&client_reg, nullptr};
  net::ClientStats cstats;
  {
    net::Client client(copts);
    for (std::uint32_t i = 0; i < 12; ++i)
      EXPECT_TRUE(client.consult(i % 8, 0.25 + 0.5 * (i % 3), 5000).status.ok());
    cstats = client.stats();
  }
  service.stop();
  eng.release(held.draw);

  PairCheck engine_pair(engine_reg);
  const engine::EngineStats es = eng.stats();
  engine_pair("engine.epochs", es.epoch);
  engine_pair("engine.plan_cache.misses", es.plan_cache.misses);
  engine_pair("engine.plan_cache.stale", es.plan_cache.stale);
  engine_pair("engine.federation.gap_probes", es.federation.gap_probes);
  const lp::PipelineStats ps = *eng.solver_stats();
  engine_pair("lp.pipeline.solves", ps.solves);
  engine_pair("lp.pipeline.certified", ps.certified);
  engine_pair("lp.pipeline.exhausted", ps.exhausted, false);
  for (int i = 0; i < lp::kPipelineStages; ++i) {
    const auto stage = static_cast<lp::PipelineStage>(i);
    const std::string prefix = std::string("lp.pipeline.stage.") + lp::to_string(stage);
    engine_pair(prefix + ".attempts", ps.attempts[i], stage != lp::PipelineStage::BruteForce);
    engine_pair(prefix + ".cert_failures", ps.failures[i], false);
  }

  PairCheck service_pair(service_reg);
  const net::ServiceStats ss = service.stats();
  service_pair("net.server.conns.accepted", ss.accepted);
  service_pair("net.server.conns.rejected", ss.rejected, false);
  service_pair("net.server.conns.closed", ss.closed);
  service_pair("net.server.frames.rx", ss.frames_rx);
  service_pair("net.server.frames.tx", ss.frames_tx);
  service_pair("net.server.bytes.rx", ss.bytes_rx);
  service_pair("net.server.bytes.tx", ss.bytes_tx);
  service_pair("net.server.malformed", ss.malformed, false);
  service_pair("net.server.consults", ss.consults);
  service_pair("net.server.answered", ss.answered);
  service_pair("net.server.shed.queue", ss.shed_queue, false);
  service_pair("net.server.shed.drain", ss.shed_drain, false);
  service_pair("net.server.shed.deadline", ss.shed_deadline, false);
  service_pair("net.server.late_drop", ss.late_drop, false);
  service_pair("net.server.idle_closed", ss.idle_closed, false);
  service_pair("net.server.stall_closed", ss.stall_closed, false);
  service_pair("net.server.goaway", ss.goaway_sent, false);

  PairCheck client_pair(client_reg);
  client_pair("net.client.requests", cstats.requests);
  client_pair("net.client.retries", cstats.retries);
  client_pair("net.client.failovers", cstats.failovers);
  client_pair("net.client.timeouts", cstats.timeouts, false);

  // --- A GRM with two LRM sites on a bus that drops and duplicates, and a
  // retrying client.
  obs::MetricsRegistry rms_reg;
  const obs::Sink rms_sink{&rms_reg, nullptr};
  rms::MessageBus bus;
  bus.set_sink(rms_sink);
  agree::AgreementSystem cpu(2);
  cpu.capacity = {5.0, 10.0};
  cpu.relative(1, 0) = 0.5;
  alloc::AllocatorOptions gaopts;
  gaopts.sink = obs::Sink::none();
  rms::GrmOptions gopts;
  gopts.sink = rms_sink;
  gopts.reserve_attempts = 6;
  gopts.reserve_backoff = 0.1;
  gopts.decided_cache_capacity = 4;
  rms::Grm grm(bus, {cpu}, gaopts, /*decision_latency=*/0.01, gopts);
  rms::Lrm lrm0(bus, {5.0}, 0.01), lrm1(bus, {10.0}, 0.01);
  grm.register_lrm(0, lrm0.endpoint());
  grm.register_lrm(1, lrm1.endpoint());
  lrm0.attach(grm.endpoint(), 0);
  lrm1.attach(grm.endpoint(), 1);
  bus.run_until_idle();
  rms::FaultPlan plan;
  plan.seed = 7;
  plan.default_link.drop = 0.2;
  plan.default_link.duplicate = 0.2;
  bus.set_fault_plan(plan);
  rms::ClientOptions rcopts;
  rcopts.max_attempts = 8;
  rcopts.retry_backoff = 0.2;
  rcopts.backoff_cap = 2.0;
  rcopts.deadline = 30.0;
  rcopts.send_latency = 0.01;
  rcopts.sink = rms_sink;
  rms::RequestClient rclient(bus, grm.endpoint(), rcopts);
  Pcg32 rng(42);
  for (std::uint64_t id = 1; id <= 60; ++id) {
    rms::AllocationRequest req;
    req.request_id = id;
    req.principal = rng.uniform_u32(2);
    req.amounts = {rng.uniform(0.5, 3.0)};
    req.duration = rng.uniform(0.5, 3.0);
    rclient.submit(req);
    bus.run_until(bus.now() + 0.5);
  }
  bus.run_until_idle();

  PairCheck rms_pair(rms_reg);
  rms_pair("rms.bus.delivered", bus.delivered());
  rms_pair("rms.bus.dropped", bus.dropped());
  rms_pair("rms.bus.duplicated", bus.duplicated());
  rms_pair("rms.bus.lost_crash", bus.lost_to_crash(), false);
  rms_pair("rms.bus.lost_partition", bus.lost_to_partition(), false);
  rms_pair("rms.grm.decisions", grm.decisions());
  rms_pair("rms.grm.grants", grm.grants());
  rms_pair("rms.grm.stale_masked", grm.stale_masked(), false);
  rms_pair("rms.grm.duplicate_requests", grm.duplicate_requests());
  rms_pair("rms.grm.stale_reports", grm.stale_reports(), false);
  rms_pair("rms.grm.resyncs", grm.resyncs(), false);
  rms_pair("rms.grm.decided_evictions", grm.decided_evictions());
  rms_pair("rms.grm.forwards", grm.forwards(), false);
  rms_pair("rms.grm.reserve_retries", grm.reserve_retries());
  rms_pair("rms.grm.reserve_failures", grm.reserve_failures(), false);
  rms_pair("rms.client.retries", rclient.retries());
  rms_pair("rms.client.deadline_denials", rclient.deadline_denials(), false);
  rms_pair("rms.client.duplicate_replies", rclient.duplicate_replies());
  rms_pair("rms.client.redirects", rclient.redirects(), false);
  rms_pair("rms.client.failovers", rclient.failovers(), false);

  // --- Three GRM replicas: elections, and a client that first asks a
  // follower and is redirected.
  obs::MetricsRegistry raft_reg;
  rms::MessageBus raft_bus;
  raft_bus.set_sink(obs::Sink{&raft_reg, nullptr});
  rms::GrmOptions ropts;
  ropts.sink = obs::Sink{&raft_reg, nullptr};
  ropts.replication.replicas = 3;
  rms::replica::ReplicatedGrm grp(raft_bus, {cpu}, gaopts, 0.01, ropts);
  rms::Lrm site0(raft_bus, {5.0}, 0.01), site1(raft_bus, {10.0}, 0.01);
  grp.register_lrm(0, site0.endpoint());
  grp.register_lrm(1, site1.endpoint());
  site0.attach(grp.ingress(0), 0);
  site1.attach(grp.ingress(1), 1);
  grp.start();
  raft_bus.run_until(5.0);
  const std::optional<std::size_t> leader = grp.leader();
  ASSERT_TRUE(leader.has_value());
  std::vector<rms::EndpointId> targets = grp.endpoints();
  std::rotate(targets.begin(), targets.begin() + static_cast<std::ptrdiff_t>((*leader + 1) % 3),
              targets.end());
  rms::ClientOptions follower_first;
  follower_first.max_attempts = 8;
  follower_first.deadline = 60.0;
  follower_first.sink = obs::Sink::none();
  rms::RequestClient rc(raft_bus, targets, follower_first);
  rms::AllocationRequest req;
  req.request_id = 1;
  req.principal = 0;
  req.amounts = {1.0};
  rc.submit(req);
  raft_bus.run_until(15.0);
  grp.stop();
  raft_bus.run_until_idle();
  EXPECT_TRUE(rc.resolved(1));

  PairCheck raft_pair(raft_reg);
  const rms::replica::RaftStats rs = grp.stats();
  raft_pair("rms.replica.elections", rs.elections_started);
  raft_pair("rms.replica.redirects", rs.redirects);
}

}  // namespace
}  // namespace agora
