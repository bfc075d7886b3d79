// Tests for the admission hot path (DESIGN.md §13): the epoch-keyed plan
// cache, the theta<=1 allocator fast path, and their safety invariants --
// every grant certified, no stale-epoch plan ever served, and the threads=1
// cache-miss path bit-identical to the direct Allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "trace/zipf.h"

namespace agora::engine {
namespace {

/// `islands` complete-graph economies of `per` participants each (zero
/// cross-island agreements) -- same fixture as engine_test / bench.
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

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Field-by-field, bit-exact plan comparison. decision_epoch is deliberately
/// not compared: the engine stamps it, the bare Allocator leaves it 0.
void expect_identical(const alloc::AllocationPlan& e, const alloc::AllocationPlan& d) {
  EXPECT_EQ(e.status, d.status);
  EXPECT_TRUE(bitwise_equal(e.draw, d.draw));
  EXPECT_EQ(e.theta, d.theta);
  EXPECT_EQ(e.lp_iterations, d.lp_iterations);
  EXPECT_EQ(e.exact_mode_fell_back, d.exact_mode_fell_back);
  EXPECT_EQ(e.certified, d.certified);
  EXPECT_EQ(e.solver_fallbacks, d.solver_fallbacks);
}

alloc::AllocationPlan sample_plan(std::size_t n, std::size_t a, double amount) {
  alloc::AllocationPlan p;
  p.status = alloc::PlanStatus::Satisfied;
  p.certified = true;
  p.draw.assign(n, 0.0);
  p.draw[a] = amount;
  p.theta = amount;
  return p;
}

// -------------------------------------------------------------- PlanCache ---

TEST(PlanCache, MissThenInsertThenHit) {
  PlanCache cache({/*slots=*/256, /*probe_window=*/8});
  EXPECT_EQ(cache.lookup(0, 3, 1.5).outcome, PlanCache::Outcome::Miss);
  cache.insert(0, 3, 1.5, sample_plan(8, 3, 1.5));
  const auto r = cache.lookup(0, 3, 1.5);
  ASSERT_EQ(r.outcome, PlanCache::Outcome::Hit);
  ASSERT_TRUE(r.entry);
  EXPECT_EQ(r.entry->epoch, 0u);
  EXPECT_EQ(r.entry->participant, 3u);
  EXPECT_DOUBLE_EQ(r.entry->plan.draw[3], 1.5);
  ASSERT_EQ(r.entry->nz.size(), 1u);
  EXPECT_EQ(r.entry->nz[0], 3u);
  // Different amount or participant: miss, not a false hit.
  EXPECT_EQ(cache.lookup(0, 3, 1.25).outcome, PlanCache::Outcome::Miss);
  EXPECT_EQ(cache.lookup(0, 4, 1.5).outcome, PlanCache::Outcome::Miss);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(PlanCache, EpochMismatchIsStaleAndOverwriteRevives) {
  PlanCache cache({256, 8});
  cache.insert(4, 1, 2.0, sample_plan(8, 1, 2.0));
  EXPECT_EQ(cache.lookup(5, 1, 2.0).outcome, PlanCache::Outcome::Stale);
  // The refreshed decision replaces the stale entry in place.
  cache.insert(5, 1, 2.0, sample_plan(8, 1, 2.0));
  EXPECT_EQ(cache.lookup(5, 1, 2.0).outcome, PlanCache::Outcome::Hit);
  // And the old epoch is gone -- one slot per shape.
  EXPECT_EQ(cache.lookup(4, 1, 2.0).outcome, PlanCache::Outcome::Stale);
  EXPECT_EQ(cache.stats().stale, 2u);
}

TEST(PlanCache, NegativeZeroAndPositiveZeroShareAKey) {
  PlanCache cache({64, 8});
  cache.insert(0, 0, 0.0, sample_plan(4, 0, 0.0));
  EXPECT_EQ(cache.lookup(0, 0, -0.0).outcome, PlanCache::Outcome::Hit);
}

TEST(PlanCache, EvictsWithinTheProbeWindowWhenFull) {
  // A tiny table forces collisions: after many more inserts than slots,
  // lookups must still function and evictions must be counted.
  PlanCache cache({64, 4});
  for (std::size_t i = 0; i < 512; ++i)
    cache.insert(0, i, 1.0, sample_plan(600, i, 1.0));
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 512u);
  EXPECT_GT(s.evictions, 0u);
  // Some recent keys must be resident (the table is not thrashing to empty).
  std::size_t resident = 0;
  for (std::size_t i = 0; i < 512; ++i)
    if (cache.lookup(0, i, 1.0).outcome == PlanCache::Outcome::Hit) ++resident;
  EXPECT_GT(resident, 32u);
}

TEST(PlanCache, LookupKeepsHotEntriesUnderEvictionPressure) {
  PlanCache cache({64, 4});
  cache.insert(0, 9999, 7.0, sample_plan(4, 0, 7.0));
  for (std::size_t round = 0; round < 64; ++round) {
    // Keep the hot entry's clock armed while cold inserts stream past.
    cache.lookup(0, 9999, 7.0);
    cache.insert(0, round, 1.0, sample_plan(4, 0, 1.0));
  }
  EXPECT_EQ(cache.lookup(0, 9999, 7.0).outcome, PlanCache::Outcome::Hit);
}

// --------------------------------------------------------- negative entries ---

alloc::AllocationPlan sample_denial(std::size_t n) {
  alloc::AllocationPlan p;
  p.status = alloc::PlanStatus::Insufficient;
  p.certified = true;  // Farkas-certified infeasibility
  p.draw.assign(n, 0.0);
  return p;
}

TEST(PlanCache, NegativeEntriesKeyAndCountSeparately) {
  PlanCache cache({256, 8});
  cache.insert(0, 5, 100.0, sample_denial(8));
  const auto r = cache.lookup(0, 5, 100.0);
  ASSERT_EQ(r.outcome, PlanCache::Outcome::Hit);
  ASSERT_TRUE(r.entry);
  EXPECT_TRUE(r.entry->negative());
  EXPECT_EQ(r.entry->plan.status, alloc::PlanStatus::Insufficient);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.neg_inserts, 1u);
  EXPECT_EQ(s.neg_hits, 1u);
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.hits, 0u);
  // Same shape solved to a grant later (capacity mutation): the denial is
  // overwritten in place and the entry flips polarity.
  cache.insert(1, 5, 100.0, sample_plan(8, 5, 100.0));
  const auto r2 = cache.lookup(1, 5, 100.0);
  ASSERT_EQ(r2.outcome, PlanCache::Outcome::Hit);
  EXPECT_FALSE(r2.entry->negative());
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(PlanCache, DenialsEvictBeforeGrantsUnderPressure) {
  // One grant and a stream of denials contending for the same 4-slot probe
  // windows of a tiny table. The grant starts hot (kHotRef) and denials
  // start cold, so surviving entries should skew heavily toward grants even
  // though denials outnumber them 4:1 in the insert stream.
  PlanCache cache({64, 4});
  for (std::size_t i = 0; i < 128; ++i) {
    if (i % 5 == 0)
      cache.insert(0, i, 1.0, sample_plan(4, 0, 1.0));
    else
      cache.insert(0, i, 1.0, sample_denial(4));
  }
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.inserts + s.neg_inserts, 128u);
  EXPECT_GT(s.neg_evictions, 0u);
  std::size_t grants_resident = 0, grants_inserted = 0;
  std::size_t denials_resident = 0, denials_inserted = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    const bool grant = i % 5 == 0;
    (grant ? grants_inserted : denials_inserted)++;
    if (cache.lookup(0, i, 1.0).outcome == PlanCache::Outcome::Hit)
      (grant ? grants_resident : denials_resident)++;
  }
  // Fractional survival: grants must out-survive denials.
  EXPECT_GT(static_cast<double>(grants_resident) / static_cast<double>(grants_inserted),
            static_cast<double>(denials_resident) / static_cast<double>(denials_inserted));
}

// ------------------------------------------------- engine + cache semantics ---

TEST(EngineCache, Threads1AllMissBitIdenticalToDirectAllocator) {
  const auto sys = island_economy(2, 4, 0.25);
  EngineOptions opts;
  opts.threads = 1;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);
  alloc::Allocator direct(sys, opts.alloc);
  // Every amount unique => every lookup misses => the full queue + worker +
  // warm-started allocator path runs, and must match the direct path bit
  // for bit.
  for (int i = 0; i < 40; ++i) {
    const std::size_t a = static_cast<std::size_t>(i) % sys.size();
    const double amount = 0.375 + 0.0625 * i;
    expect_identical(engine.consult(a, amount), direct.allocate(a, amount));
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.plan_cache.hits, 0u);
  EXPECT_EQ(s.plan_cache.misses, 40u);
}

TEST(EngineCache, HitsReturnTheSamePlanAsTheSolvedPath) {
  const auto sys = island_economy(2, 4, 0.25);
  EngineOptions opts;
  opts.threads = 1;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);
  alloc::Allocator direct(sys, opts.alloc);
  std::vector<alloc::AllocationPlan> solved(sys.size());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t a = 0; a < sys.size(); ++a) {
      const double amount = 1.0 + 0.5 * static_cast<double>(a % 3);
      const alloc::AllocationPlan got = engine.consult(a, amount);
      if (round == 0) {
        // Solved: the engine's allocator has made the direct allocator's
        // consults so far, so its plan is the direct plan bit for bit.
        expect_identical(got, direct.allocate(a, amount));
        solved[a] = got;
      } else {
        // A hit is the epoch's solved plan bit for bit. A re-solve by the
        // direct allocator would start from a later warm basis and agree
        // only in status and theta, not in its last bits.
        expect_identical(got, solved[a]);
      }
      EXPECT_TRUE(got.certified);
      EXPECT_EQ(got.decision_epoch, 0u);
    }
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.plan_cache.misses, sys.size());
  EXPECT_EQ(s.plan_cache.hits, 2 * sys.size());
  EXPECT_EQ(s.plan_cache.certify_rejects, 0u);
}

TEST(EngineCache, MutationInvalidatesByEpoch) {
  const auto sys = island_economy(2, 4, 0.25);
  EngineOptions opts;
  opts.threads = 2;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);
  const alloc::AllocationPlan first = engine.consult(1, 2.0);
  EXPECT_EQ(first.decision_epoch, 0u);
  EXPECT_EQ(engine.consult(1, 2.0).decision_epoch, 0u);  // served from cache
  EXPECT_EQ(engine.stats().plan_cache.hits, 1u);

  std::vector<double> caps = sys.capacity;
  for (double& c : caps) c += 1.0;
  engine.set_capacities(caps);

  // Same shape after the mutation: the cached decision is stale; the engine
  // re-solves against the new snapshot and re-populates.
  const alloc::AllocationPlan fresh = engine.consult(1, 2.0);
  EXPECT_EQ(fresh.decision_epoch, 1u);
  EXPECT_TRUE(fresh.certified);
  const EngineStats s = engine.stats();
  EXPECT_GE(s.plan_cache.stale, 1u);
  EXPECT_EQ(engine.consult(1, 2.0).decision_epoch, 1u);
  EXPECT_EQ(engine.stats().plan_cache.hits, 2u);
}

TEST(EngineCache, SubmitServesHitsWithReadyFutures) {
  const auto sys = island_economy(1, 6, 0.2);
  EngineOptions opts;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);
  const EngineResult miss = engine.submit(2, 1.5).get();
  ASSERT_TRUE(miss.status.ok());
  const EngineResult hit = engine.submit(2, 1.5).get();
  ASSERT_TRUE(hit.status.ok());
  expect_identical(hit.plan, miss.plan);
  EXPECT_EQ(engine.stats().plan_cache.hits, 1u);
}

TEST(EngineCache, RepeatedImpossibleRequestServesCachedDenial) {
  const auto sys = island_economy(1, 4, 0.25);
  EngineOptions opts;
  opts.threads = 1;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);
  // Far beyond the island's total capacity: certified Insufficient.
  const double impossible = 1.0e6;
  const alloc::AllocationPlan first = engine.consult(2, impossible);
  EXPECT_EQ(first.status, alloc::PlanStatus::Insufficient);
  ASSERT_TRUE(first.certified) << "infeasibility must be Farkas-certified to cache";
  for (int i = 0; i < 5; ++i) {
    const alloc::AllocationPlan again = engine.consult(2, impossible);
    EXPECT_EQ(again.status, alloc::PlanStatus::Insufficient);
    EXPECT_TRUE(again.certified);
  }
  const EngineStats s = engine.stats();
  EXPECT_GE(s.plan_cache.neg_inserts, 1u);
  EXPECT_EQ(s.plan_cache.neg_hits, 5u);
  EXPECT_EQ(s.plan_cache.hits, 0u);
  // The denial replays without a worker solve: exactly one consult reached
  // the shard.
  std::uint64_t worker_consults = 0;
  for (const ShardStats& sh : s.shard) worker_consults += sh.consults;
  EXPECT_EQ(worker_consults, 1u);
}

TEST(EngineCache, MutationInvalidatesCachedDenialAndRequestCanGrant) {
  const auto sys = island_economy(1, 4, 0.25);
  EngineOptions opts;
  opts.threads = 1;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);
  // More than participant 1 can reach under the seed capacities, less than
  // it can reach once everyone's capacity quadruples.
  double reachable = 0.0;
  {
    alloc::Allocator probe(sys, opts.alloc);
    reachable = probe.available_to(1);
  }
  const double amount = reachable * 2.0;
  const alloc::AllocationPlan denied = engine.consult(1, amount);
  ASSERT_EQ(denied.status, alloc::PlanStatus::Insufficient);
  EXPECT_EQ(engine.consult(1, amount).status, alloc::PlanStatus::Insufficient);
  EXPECT_GE(engine.stats().plan_cache.neg_hits, 1u);

  std::vector<double> caps = sys.capacity;
  for (double& c : caps) c *= 4.0;
  engine.set_capacities(caps);

  // The cached denial is epoch-stale; the fresh solve against the larger
  // capacities grants, and the grant overwrites the denial's slot.
  const alloc::AllocationPlan granted = engine.consult(1, amount);
  EXPECT_TRUE(granted.satisfied());
  EXPECT_TRUE(granted.certified);
  EXPECT_EQ(granted.decision_epoch, 1u);
  const alloc::AllocationPlan replay = engine.consult(1, amount);
  EXPECT_TRUE(replay.satisfied());
  const EngineStats s = engine.stats();
  EXPECT_GE(s.plan_cache.hits, 1u);
  EXPECT_GE(s.plan_cache.stale, 1u);
}

// ------------------------------------------------------- theta<=1 fast path ---

TEST(FastPath, GrantsSelfDrawCertifiedWithoutLpIterations) {
  const auto sys = island_economy(1, 6, 0.2);
  alloc::AllocatorOptions opts;
  opts.fast_path = true;
  alloc::Allocator alloc(sys, opts);
  // Small request: fits the requester's retained entitlement.
  const alloc::AllocationPlan plan = alloc.allocate(2, 1.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_TRUE(plan.certified);
  EXPECT_EQ(plan.lp_iterations, 0u);
  EXPECT_DOUBLE_EQ(plan.draw[2], 1.0);
  EXPECT_DOUBLE_EQ(plan.total_drawn(), 1.0);
  // theta = amount * max drop coefficient <= amount ("theta <= 1 per unit").
  EXPECT_LE(plan.theta, 1.0 + 1e-12);
  EXPECT_GT(plan.theta, 0.0);
  EXPECT_EQ(alloc.fastpath_granted(), 1u);
  EXPECT_EQ(alloc.fastpath_fallthrough(), 0u);
}

TEST(FastPath, ThetaIsNeverBelowTheLpOptimum) {
  const auto sys = island_economy(1, 6, 0.2);
  alloc::AllocatorOptions fast_opts;
  fast_opts.fast_path = true;
  alloc::Allocator fast(sys, fast_opts);
  alloc::Allocator exact(sys, alloc::AllocatorOptions{});
  for (std::size_t a = 0; a < sys.size(); ++a) {
    const alloc::AllocationPlan f = fast.allocate(a, 2.0);
    const alloc::AllocationPlan o = exact.allocate(a, 2.0);
    ASSERT_TRUE(f.satisfied());
    ASSERT_TRUE(o.satisfied());
    // The fast path trades optimality for latency, never feasibility: its
    // theta is an upper bound on the LP's minimal perturbation.
    EXPECT_GE(f.theta, o.theta - 1e-9);
    EXPECT_NEAR(f.total_drawn(), 2.0, 1e-9);
  }
}

TEST(FastPath, OversizedRequestFallsThroughToTheLp) {
  const auto sys = island_economy(1, 6, 0.2);
  alloc::AllocatorOptions opts;
  opts.fast_path = true;
  alloc::Allocator fast(sys, opts);
  alloc::Allocator direct(sys, alloc::AllocatorOptions{});
  // Larger than the requester's own retained capacity, still within its
  // total availability: must take the LP path and spread the draw.
  const double amount = sys.capacity[0] + 1.0;
  const alloc::AllocationPlan f = fast.allocate(0, amount);
  const alloc::AllocationPlan d = direct.allocate(0, amount);
  expect_identical(f, d);
  EXPECT_GE(fast.fastpath_fallthrough(), 1u);
}

TEST(FastPath, EngineAggregatesFastPathStats) {
  const auto sys = island_economy(2, 4, 0.25);
  EngineOptions opts;
  opts.threads = 2;
  opts.alloc.fast_path = true;
  EnforcementEngine engine(sys, opts);
  for (std::size_t a = 0; a < sys.size(); ++a) {
    const alloc::AllocationPlan p = engine.consult(a, 0.5);
    ASSERT_TRUE(p.satisfied());
    EXPECT_TRUE(p.certified);
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.fastpath_granted, sys.size());
}

// ---------------------------------------------------------- stale hammering ---

TEST(EngineCache, HammerConsultsInterleavedWithMutationsNeverServeStale) {
  const std::size_t kIslands = 4, kPer = 4;
  const auto sys = island_economy(kIslands, kPer, 0.2);
  const std::size_t n = sys.size();
  EngineOptions opts;
  opts.threads = 4;
  opts.plan_cache = true;
  EnforcementEngine engine(sys, opts);

  // Deterministic capacity schedule: epoch j (j >= 1) runs on caps(j).
  const std::size_t kMutations = 24;
  const auto caps_at = [&](std::size_t j) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = 10.0 + static_cast<double>(i % kPer) + 0.5 * static_cast<double>((i + j) % 4);
    return v;
  };
  std::vector<std::vector<double>> schedule;
  schedule.push_back(sys.capacity);  // epoch 0
  for (std::size_t j = 1; j <= kMutations; ++j) schedule.push_back(caps_at(j));

  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> grants{0};
  const auto producer = [&](std::uint64_t seed) {
    trace::ZipfShapeGenerator::Config cfg;
    cfg.participants = n;
    cfg.shapes = 96;
    cfg.s = 1.1;
    cfg.seed = seed;
    trace::ZipfShapeGenerator gen(cfg);
    for (int i = 0; i < 1200 && !failed.load(std::memory_order_relaxed); ++i) {
      const trace::RequestShape shape = gen.next();
      const std::uint64_t epoch_before = engine.epoch();
      const alloc::AllocationPlan plan = engine.consult(shape.participant, shape.amount);
      if (!plan.satisfied()) continue;  // capacity races can legitimately deny
      grants.fetch_add(1, std::memory_order_relaxed);
      // Invariant 1: no uncertified grant, cached or not.
      if (!plan.certified) failed.store(true);
      // Invariant 2: the decision is at least as fresh as the snapshot the
      // caller could observe before submitting.
      if (plan.decision_epoch < epoch_before) failed.store(true);
      if (plan.decision_epoch >= schedule.size()) failed.store(true);
      // Invariant 3: the plan was feasible AT ITS EPOCH -- draws never
      // exceed what the drawn-on participants owned in that epoch's
      // capacity vector.
      const std::vector<double>& caps = schedule[plan.decision_epoch];
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (plan.draw[k] > caps[k] + 1e-7) failed.store(true);
        total += plan.draw[k];
      }
      if (std::fabs(total - shape.amount) > 1e-7) failed.store(true);
    }
  };

  std::thread mutator([&] {
    for (std::size_t j = 1; j <= kMutations; ++j) {
      engine.set_capacities(schedule[j]);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::thread p1(producer, 101);
  std::thread p2(producer, 202);
  p1.join();
  p2.join();
  mutator.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(grants.load(), 0u);
  EXPECT_EQ(engine.epoch(), kMutations);

  // Accounting closes: every consult was served by exactly one of the cache
  // front end (grant + denial hits minus re-check rejects of either
  // polarity) or a shard worker.
  const EngineStats s = engine.stats();
  std::uint64_t worker_consults = 0;
  for (const ShardStats& sh : s.shard) worker_consults += sh.consults;
  EXPECT_EQ((s.plan_cache.hits + s.plan_cache.neg_hits - s.plan_cache.certify_rejects) +
                worker_consults,
            2u * 1200u);
  EXPECT_GT(s.plan_cache.hits, 0u);
}

}  // namespace
}  // namespace agora::engine
