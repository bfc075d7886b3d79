// Tests for the sharded enforcement engine (DESIGN.md §11): partitioning,
// threads=1 decision identity against the direct Allocator path (including
// byte-identical trace-event streams), component-exact sharded decisions,
// concurrent applies that can never grant the same capacity twice, the
// unified Status surface of submit(), snapshot epochs and which shards a
// mutation touches, per-shard FIFO across submit() and blocking calls, and
// certification inheritance.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "agree/topology.h"
#include "engine/engine.h"
#include "engine/partition.h"
#include "obs/event_ring.h"
#include "util/error.h"

namespace agora::engine {
namespace {

/// `islands` complete-graph economies of `per` participants each, glued
/// into one AgreementSystem with zero cross-island agreements.
agree::AgreementSystem island_economy(std::size_t islands, std::size_t per, double share,
                                      double cap = 10.0) {
  const std::size_t n = islands * per;
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = cap + static_cast<double>(i % per);
  for (std::size_t g = 0; g < islands; ++g)
    for (std::size_t i = 0; i < per; ++i)
      for (std::size_t j = 0; j < per; ++j)
        if (i != j) sys.relative(g * per + i, g * per + j) = share;
  return sys;
}

agree::AgreementSystem connected_economy(std::size_t n, double share) {
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 5.0 + static_cast<double>(i);
  sys.relative = agree::complete_graph(n, share);
  return sys;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Field-by-field, bit-exact plan comparison (the threads=1 guarantee).
void expect_identical(const alloc::AllocationPlan& e, const alloc::AllocationPlan& d) {
  EXPECT_EQ(e.status, d.status);
  EXPECT_TRUE(bitwise_equal(e.draw, d.draw));
  EXPECT_EQ(e.theta, d.theta);
  EXPECT_EQ(e.lp_iterations, d.lp_iterations);
  EXPECT_EQ(e.exact_mode_fell_back, d.exact_mode_fell_back);
  EXPECT_EQ(e.certified, d.certified);
  EXPECT_EQ(e.solver_fallbacks, d.solver_fallbacks);
}

// -------------------------------------------------------------- partition ---

TEST(Partition, IslandsBecomeComponents) {
  const auto sys = island_economy(4, 3, 0.2);
  const Partition p = partition_participants(sys, 4);
  EXPECT_EQ(p.components, 4u);
  EXPECT_EQ(p.shards, 4u);
  EXPECT_FALSE(p.federated);
  // Every island lands on exactly one shard, members ascending.
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_EQ(p.shard_of[i], p.shard_of[(i / 3) * 3]);
  std::size_t total = 0;
  for (const auto& m : p.members) {
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
    total += m.size();
  }
  EXPECT_EQ(total, sys.size());
}

TEST(Partition, ShardCountClampsToComponents) {
  const auto sys = island_economy(2, 4, 0.2);
  const Partition p = partition_participants(sys, 8);
  EXPECT_EQ(p.components, 2u);
  EXPECT_EQ(p.shards, 2u);  // cannot split a component
  EXPECT_FALSE(p.federated);
}

TEST(Partition, OneComponentWithoutFederationGetsOneShard) {
  const auto sys = connected_economy(6, 0.1);
  const Partition p = partition_participants(sys, 3);
  EXPECT_EQ(p.components, 1u);
  EXPECT_EQ(p.shards, 1u);
  EXPECT_FALSE(p.federated);
  ASSERT_EQ(p.members.size(), 1u);
  EXPECT_EQ(p.members[0].size(), sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) EXPECT_EQ(p.shard_of[i], 0u);
}

TEST(Partition, SingleShardOwnsEverything) {
  const auto sys = island_economy(3, 2, 0.5);
  const Partition p = partition_participants(sys, 1);
  EXPECT_EQ(p.shards, 1u);
  EXPECT_FALSE(p.federated);
  EXPECT_EQ(p.members[0].size(), sys.size());
}

TEST(Partition, LptBalancesUnevenComponents) {
  // Islands of sizes 4, 2, 2 onto 2 shards: LPT puts the 4 alone.
  agree::AgreementSystem sys(8);
  for (std::size_t i = 0; i < 8; ++i) sys.capacity[i] = 1.0;
  auto connect = [&](std::size_t a, std::size_t b) { sys.relative(a, b) = 0.1; };
  connect(0, 1); connect(1, 2); connect(2, 3);
  connect(4, 5);
  connect(6, 7);
  const Partition p = partition_participants(sys, 2);
  EXPECT_EQ(p.components, 3u);
  EXPECT_EQ(p.shards, 2u);
  EXPECT_EQ(p.members[0].size(), 4u);
  EXPECT_EQ(p.members[1].size(), 4u);  // 2 + 2
}

// --------------------------------------------- threads=1 decision identity ---

TEST(EngineSerial, PlansAreBitIdenticalToDirectAllocator) {
  const auto sys = connected_economy(6, 0.15);
  // Isolated sinks so the two paths' event streams can be compared 1:1.
  obs::EventRing direct_ring(1 << 12), engine_ring(1 << 12);
  obs::MetricsRegistry direct_reg, engine_reg;

  alloc::AllocatorOptions aopts;
  aopts.sink = obs::Sink{&direct_reg, &direct_ring};
  alloc::Allocator direct(sys, aopts);

  EngineOptions eopts;
  eopts.threads = 1;
  eopts.alloc.sink = obs::Sink{&engine_reg, &engine_ring};
  eopts.sink = eopts.alloc.sink;
  EnforcementEngine eng(sys, eopts);
  EXPECT_EQ(eng.num_shards(), 1u);

  // A trace-driven caller's sequence: epoch refresh, availability query,
  // consult, commit, release -- repeated.
  std::vector<double> caps = sys.capacity;
  for (int round = 0; round < 6; ++round) {
    const std::size_t a = static_cast<std::size_t>(round) % sys.size();
    caps[a] = 4.0 + static_cast<double>(round);
    direct.set_capacities(std::span<const double>(caps));
    eng.set_capacities(std::span<const double>(caps));
    EXPECT_EQ(direct.available_to(a), eng.available_to(a));
    const double want = 0.5 * direct.available_to(a) + static_cast<double>(round);
    const alloc::AllocationPlan dp = direct.allocate(a, want);
    const alloc::AllocationPlan ep = eng.consult(a, want);
    expect_identical(ep, dp);
    if (dp.satisfied()) {
      direct.apply(dp);
      eng.apply(ep);
      for (std::size_t i = 0; i < sys.size(); ++i)
        EXPECT_EQ(direct.available_to(i), eng.available_to(i));
      std::vector<double> back(sys.size(), 0.25);
      direct.release(back);
      eng.release(back);
    }
  }
  eng.drain();

  // Byte-identical event streams: the engine's worker emits exactly the LP
  // pipeline events the direct allocator emits, and nothing else (engine
  // batch events require coalescing, which serial use cannot produce).
  const auto de = direct_ring.snapshot();
  const auto ee = engine_ring.snapshot();
  ASSERT_EQ(de.size(), ee.size());
  for (std::size_t i = 0; i < de.size(); ++i) EXPECT_EQ(de[i], ee[i]);
  for (const auto& ev : ee) EXPECT_NE(ev.kind, obs::EventKind::EngineBatch);

  // And the aggregated solve-chain telemetry matches the direct pipeline.
  const std::optional<lp::PipelineStats> es = eng.solver_stats();
  ASSERT_TRUE(es.has_value());
  EXPECT_EQ(es->solves, direct.solver_stats()->solves);
  EXPECT_EQ(es->certified, direct.solver_stats()->certified);
}

// ----------------------------------------------------- sharded exactness ---

TEST(EngineSharded, ComponentLocalDecisionsMatchGlobalAllocator) {
  const auto sys = island_economy(4, 4, 0.25);
  alloc::Allocator direct(sys);
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 4;
  EnforcementEngine eng(sys, eopts);
  EXPECT_EQ(eng.num_shards(), 4u);
  EXPECT_FALSE(eng.federated());

  for (std::size_t a = 0; a < sys.size(); ++a) {
    const double want = 0.7 * direct.available_to(a);
    const alloc::AllocationPlan dp = direct.allocate(a, want);
    const alloc::AllocationPlan ep = eng.consult(a, want);
    ASSERT_EQ(ep.status, dp.status) << "principal " << a;
    EXPECT_NEAR(ep.theta, dp.theta, 1e-9);
    EXPECT_NEAR(ep.total_drawn(), dp.total_drawn(), 1e-9);
    ASSERT_EQ(ep.draw.size(), sys.size());
    // Draws never cross a component boundary.
    for (std::size_t i = 0; i < sys.size(); ++i) {
      if (i / 4 != a / 4) {
        EXPECT_EQ(ep.draw[i], 0.0) << "cross-island draw at " << i;
      }
    }
    EXPECT_TRUE(ep.certified);
  }
}

TEST(EngineSharded, ConcurrentAppliesNeverGrantTheSameCapacityTwice) {
  // Four threads race to draw 6 of participant 0's 10 units. The capacity
  // rule reads the current capacities under the engine's mutation lock, so
  // exactly one draw fits and the other three are refused.
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  EnforcementEngine eng(island_economy(2, 4, 0.25), eopts);
  ASSERT_EQ(eng.system().capacity[0], 10.0);
  alloc::AllocationPlan plan;
  plan.status = alloc::PlanStatus::Satisfied;
  plan.draw.assign(eng.size(), 0.0);
  plan.draw[0] = 6.0;

  constexpr int kThreads = 4;
  for (int trial = 0; trial < 200; ++trial) {
    std::atomic<bool> go{false};
    std::atomic<int> granted{0}, refused{0};
    std::vector<std::thread> racers;
    for (int t = 0; t < kThreads; ++t)
      racers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        try {
          eng.apply(plan);
          ++granted;
        } catch (const PreconditionError&) {
          ++refused;
        }
      });
    go.store(true, std::memory_order_release);
    for (std::thread& r : racers) r.join();
    ASSERT_EQ(granted.load(), 1) << "trial " << trial;
    ASSERT_EQ(refused.load(), kThreads - 1) << "trial " << trial;
    ASSERT_EQ(eng.system().capacity[0], 4.0) << "trial " << trial;
    ASSERT_EQ(eng.snapshot()->capacity[0], 4.0) << "trial " << trial;
    eng.release(plan.draw);
    ASSERT_EQ(eng.system().capacity[0], 10.0) << "trial " << trial;
  }
}

// ------------------------------------------------------- status & submit ---

TEST(EngineStatus, SubmitResolvesWithStatusInsteadOfThrowing) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 2, 0.3), eopts);

  EngineResult bad = eng.submit(99, 1.0).get();
  EXPECT_EQ(bad.status.code(), StatusCode::InvalidArgument);
  EXPECT_TRUE(bad.plan.draw.empty());

  EngineResult neg = eng.submit(0, -1.0).get();
  EXPECT_EQ(neg.status.code(), StatusCode::InvalidArgument);

  EngineResult ok = eng.submit(0, 1.0).get();
  EXPECT_EQ(ok.status.code(), StatusCode::Ok);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_TRUE(ok.plan.satisfied());

  EngineResult big = eng.submit(0, 1e9).get();
  EXPECT_EQ(big.status.code(), StatusCode::Insufficient);
  EXPECT_EQ(big.plan.status, alloc::PlanStatus::Insufficient);
}

TEST(EngineStatus, ConsultThrowsLikeDirectAllocator) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 2, 0.3), eopts);
  EXPECT_THROW(eng.consult(99, 1.0), PreconditionError);
  EXPECT_THROW(eng.consult(0, -2.0), PreconditionError);
  EXPECT_THROW((void)eng.allocate(99, 1.0), PreconditionError);  // AllocatorBase view
}

TEST(EngineStatus, PlanStatusMapsToUnifiedStatus) {
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::Satisfied).code(), StatusCode::Ok);
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::Insufficient).code(),
            StatusCode::Insufficient);
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::Denied).code(), StatusCode::Denied);
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::SolverFailed).code(),
            StatusCode::SolverFailed);
  const Status s = to_status(PreconditionError("nope"));
  EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(to_status(InternalError("bug")).code(), StatusCode::Internal);
  EXPECT_EQ(to_status(IoError("disk")).code(), StatusCode::Io);
  EXPECT_EQ(Status::unavailable().to_string(), "unavailable");
}

// --------------------------------------------------------------- snapshot ---

TEST(EngineSnapshot, EpochAdvancesOnEveryMutation) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 3, 0.2), eopts);
  EXPECT_EQ(eng.epoch(), 0u);

  const auto before = eng.snapshot();
  std::vector<double> caps(eng.size(), 7.0);
  eng.set_capacities(std::span<const double>(caps));
  EXPECT_EQ(eng.epoch(), 1u);
  // Snapshots are immutable: the pre-mutation view is unchanged.
  EXPECT_EQ(before->epoch, 0u);
  const auto after = eng.snapshot();
  for (double c : after->capacity) EXPECT_EQ(c, 7.0);

  const alloc::AllocationPlan plan = eng.consult(0, 2.0);
  ASSERT_TRUE(plan.satisfied());
  eng.apply(plan);
  EXPECT_EQ(eng.epoch(), 2u);
  eng.release(std::vector<double>(eng.size(), 0.5));
  EXPECT_EQ(eng.epoch(), 3u);
}

TEST(EngineSnapshot, RejectedMutationLeavesShardEpochsInStep) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  eopts.plan_cache = true;
  EnforcementEngine eng(island_economy(2, 4, 0.25), eopts);
  ASSERT_NE(eng.shard_of(0), eng.shard_of(4));
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // An infinite give-back at participant 0 would reach a shard allocator
  // that refuses it; the engine must refuse it before any shard sees it.
  std::vector<double> back(eng.size(), 0.0);
  back[0] = kInf;
  EXPECT_THROW(eng.release(back), PreconditionError);
  EXPECT_EQ(eng.epoch(), 0u);
  EXPECT_EQ(eng.consult(0, 1.0).decision_epoch, eng.epoch());
  EXPECT_EQ(eng.consult(4, 1.0).decision_epoch, eng.epoch());

  // Raising a member of participant 4's island publishes epoch 1; the
  // epoch-0 decision for (4, 1.0) must not be replayed as current.
  std::vector<double> caps = eng.snapshot()->capacity;
  caps[5] += 1.0;
  eng.set_capacities(std::span<const double>(caps));
  ASSERT_EQ(eng.epoch(), 1u);
  const std::uint64_t hits = eng.stats().plan_cache.hits;
  EXPECT_EQ(eng.consult(4, 1.0).decision_epoch, 1u);
  EXPECT_EQ(eng.stats().plan_cache.hits, hits);

  // Same for a plan whose draw of -inf would make a capacity infinite.
  alloc::AllocationPlan plan = eng.consult(1, 1.0);
  ASSERT_TRUE(plan.satisfied());
  plan.draw[0] = -kInf;
  EXPECT_THROW(eng.apply(plan), PreconditionError);
  EXPECT_EQ(eng.epoch(), 1u);
  EXPECT_EQ(eng.consult(4, 2.0).decision_epoch, eng.epoch());
}

TEST(EngineSnapshot, MutationDoesNoWorkOnAShardItLeavesUnchanged) {
  const auto sys = island_economy(2, 4, 0.25);
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  EnforcementEngine eng(sys, eopts);
  alloc::Allocator direct(sys);
  const std::size_t other = eng.shard_of(4);
  ASSERT_NE(eng.shard_of(0), other);

  const alloc::AllocationPlan plan = eng.consult(0, 3.0);
  ASSERT_TRUE(plan.satisfied());
  const ShardStats before = eng.stats().shard[other];
  eng.apply(plan);
  const ShardStats after = eng.stats().shard[other];
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.consults, before.consults);
  EXPECT_EQ(eng.epoch(), 1u);

  // The skipped shard still moves to the new epoch, and the published
  // availability matches a direct allocator that applied the same plan.
  direct.apply(plan);
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_NEAR(eng.available_to(i), direct.available_to(i), 1e-9) << "participant " << i;
  EXPECT_EQ(eng.consult(4, 1.0).decision_epoch, eng.epoch());
}

TEST(EngineSnapshot, StatsReportShardLayout) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  EnforcementEngine eng(island_economy(2, 3, 0.2), eopts);
  (void)eng.consult(0, 1.0);
  (void)eng.consult(3, 1.0);
  eng.drain();
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.shards, 2u);
  EXPECT_EQ(st.components, 2u);
  EXPECT_FALSE(st.federated);
  std::uint64_t consults = 0;
  std::size_t participants = 0;
  for (const auto& s : st.shard) {
    consults += s.consults;
    participants += s.participants;
  }
  EXPECT_EQ(consults, 2u);
  EXPECT_EQ(participants, 6u);
  EXPECT_EQ(eng.shard_of(0), eng.shard_of(2));
}

// -------------------------------------------------------------------- FIFO ---

TEST(EngineFifo, BlockingCallsRunBehindQueuedSubmits) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  EnforcementEngine eng(island_economy(2, 4, 0.25), eopts);

  // Everything below lands on participant 0's island, one shard.
  const alloc::AllocationPlan plan = eng.consult(0, 3.0);
  ASSERT_TRUE(plan.satisfied());
  std::vector<std::future<EngineResult>> flood;
  for (int i = 0; i < 200; ++i) flood.push_back(eng.submit(static_cast<std::size_t>(i % 4), 0.5));
  eng.apply(plan);
  const alloc::AllocationPlan last = eng.consult(1, 0.5);
  for (auto& f : flood) {
    const EngineResult r = f.get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.plan.decision_epoch, 0u);
  }
  EXPECT_EQ(last.decision_epoch, 1u);
}

// ------------------------------------------------------------ certification ---

TEST(EngineCertify, CertificationStaysOnByDefault) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EXPECT_TRUE(eopts.alloc.certify);  // engine inherits the allocator default
  eopts.threads = 2;
  EnforcementEngine eng(island_economy(2, 4, 0.25), eopts);
  const alloc::AllocationPlan plan = eng.consult(1, 3.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_TRUE(plan.certified);  // no uncertified grant through the engine
  const std::optional<lp::PipelineStats> st = eng.solver_stats();
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->certified, st->solves);
  EXPECT_EQ(st->exhausted, 0u);
}

TEST(EngineCertify, ConcurrentSolverStatsReadersEachGetACopy) {
  // Two threads aggregate the solve-chain telemetry while this one
  // consults. Each reader owns the copy it is handed, so under
  // ThreadSanitizer neither races the other reader nor the consults.
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(connected_economy(8, 0.1), eopts);
  std::atomic<bool> done{false};
  const auto reader = [&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const std::optional<lp::PipelineStats> st = eng.solver_stats();
      ASSERT_TRUE(st.has_value());
      EXPECT_GE(st->solves, last);
      EXPECT_EQ(st->certified + st->exhausted, st->solves);
      last = st->solves;
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_TRUE(eng.consult(i % 8, 1.0 + static_cast<double>(i % 5)).satisfied());
  done.store(true);
  r1.join();
  r2.join();
  EXPECT_EQ(eng.solver_stats()->certified, 200u);
}

// ---------------------------------------------------------------- shutdown ---

TEST(EngineShutdown, EveryPendingFutureResolvesWithAStatus) {
  EngineOptions eopts;
  eopts.threads = 2;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 4, 0.3), eopts);

  // Flood the shard queues well past what the workers can process before
  // shutdown lands, then shut down immediately: queued consults must
  // resolve fast with Unavailable, never hang or break their promise.
  std::vector<std::future<EngineResult>> futs;
  futs.reserve(400);
  for (int i = 0; i < 400; ++i)
    futs.push_back(eng.submit(static_cast<std::size_t>(i % 8), 0.5));
  eng.shutdown();

  std::size_t decided = 0, unavailable = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "a future was left pending after shutdown()";
    const EngineResult res = f.get();  // never throws broken_promise
    switch (res.status.code()) {
      case StatusCode::Ok:
      case StatusCode::Insufficient:
      case StatusCode::Denied:
      case StatusCode::SolverFailed:
        ++decided;
        break;
      case StatusCode::Unavailable:
        ++unavailable;
        EXPECT_TRUE(res.plan.draw.empty());  // fail-fast: nothing was solved
        break;
      default:
        FAIL() << "unexpected status " << res.status.to_string();
    }
  }
  EXPECT_EQ(decided + unavailable, 400u);
}

TEST(EngineShutdown, IsIdempotentAndRejectsLateTraffic) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 2, 0.3), eopts);
  EXPECT_TRUE(eng.submit(0, 1.0).get().status.ok());
  eng.shutdown();
  eng.shutdown();  // second call is a no-op

  // Post-shutdown submissions resolve immediately with Unavailable; the
  // blocking façade maps that to the same exception a bad argument gets.
  EngineResult late = eng.submit(0, 1.0).get();
  EXPECT_EQ(late.status.code(), StatusCode::Unavailable);
  EXPECT_THROW(eng.consult(0, 1.0), PreconditionError);
  EXPECT_EQ(eng.stats().shard[0].consults, 1u);  // refused without solving
  EXPECT_FALSE(eng.solver_stats().has_value());
  // A mutation after shutdown is a caller bug and touches no shard.
  EXPECT_THROW(eng.set_capacities(std::vector<double>(eng.size(), 3.0)), InternalError);
  EXPECT_EQ(eng.epoch(), 0u);
  // Snapshot reads still work: the published state outlives the workers.
  EXPECT_EQ(eng.snapshot()->capacity.size(), 4u);
}

}  // namespace
}  // namespace agora::engine
