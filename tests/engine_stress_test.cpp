// Stress tests for the sharded EnforcementEngine (DESIGN.md §11): many
// producer threads hammering submit()/consult() while mutators apply,
// release and rewrite capacities concurrently, every operation running
// under the shard run locks on its caller's thread; and random shard counts
// with construction/destruction churn. Run under the tsan preset by
// tools/tier1.sh -- the point of these tests is the interleavings, not the
// arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "agree/matrices.h"
#include "agree/topology.h"
#include "engine/engine.h"
#include "util/error.h"
#include "util/rng.h"

namespace agora::engine {
namespace {

/// `islands` disjoint complete-graph sharing groups of `per` participants:
/// connectivity partitioning splits these into one component per island.
agree::AgreementSystem island_economy(std::size_t islands, std::size_t per, double share,
                                      double cap = 10.0) {
  const std::size_t n = islands * per;
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = cap + static_cast<double>(i % per);
  for (std::size_t g = 0; g < islands; ++g)
    for (std::size_t i = g * per; i < (g + 1) * per; ++i)
      for (std::size_t j = g * per; j < (g + 1) * per; ++j)
        if (i != j) sys.relative(i, j) = share;
  return sys;
}

agree::AgreementSystem connected_economy(std::size_t n, double share) {
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 5.0 + static_cast<double>(i);
  sys.relative = agree::complete_graph(n, share);
  return sys;
}

bool decision_status(const Status& s) {
  switch (s.code()) {
    case StatusCode::Ok:
    case StatusCode::Insufficient:
    case StatusCode::Denied:
    case StatusCode::SolverFailed:
      return true;
    default:
      return false;
  }
}

/// The multi-producer hammer: `producers` threads flood submit() (some with
/// deliberately bad arguments), while `mutators` threads run
/// consult->apply->release cycles and capacity rewrites through the same
/// engine. Everything must resolve with a sane status and the final
/// published snapshot must return to the starting capacities.
void hammer(const agree::AgreementSystem& sys, std::size_t threads, std::size_t producers,
            std::size_t mutators, std::size_t ops_per_producer) {
  const std::vector<double> original = sys.capacity;
  EngineOptions opts;
  opts.threads = threads;
  opts.sink = obs::Sink::none();
  opts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(sys, opts);

  std::atomic<std::uint64_t> decided{0};
  std::atomic<std::uint64_t> invalid{0};
  std::atomic<std::uint64_t> bad_status{0};
  std::atomic<std::uint64_t> mutator_consults{0};

  std::vector<std::thread> crew;
  for (std::size_t p = 0; p < producers; ++p) {
    crew.emplace_back([&, p] {
      Pcg32 rng(1000 + 7 * static_cast<std::uint64_t>(p));
      std::vector<std::future<EngineResult>> pending;
      for (std::size_t i = 0; i < ops_per_producer; ++i) {
        // 1-in-8 submissions are invalid on purpose (unknown principal or a
        // negative amount): they must resolve InvalidArgument, never throw.
        const bool poison = rng.uniform_u32(8) == 0;
        const std::size_t who =
            poison && rng.uniform_u32(2) == 0 ? sys.size() + rng.uniform_u32(4)
                                              : rng.uniform_u32(static_cast<std::uint32_t>(sys.size()));
        const double amount = poison && who < sys.size() ? -1.0 : rng.uniform(0.1, 6.0);
        pending.push_back(eng.submit(who, amount));
        if (pending.size() >= 8) {
          for (auto& f : pending) {
            const EngineResult r = f.get();
            if (r.status.code() == StatusCode::InvalidArgument)
              invalid.fetch_add(1, std::memory_order_relaxed);
            else if (decision_status(r.status))
              decided.fetch_add(1, std::memory_order_relaxed);
            else
              bad_status.fetch_add(1, std::memory_order_relaxed);
          }
          pending.clear();
        }
      }
      for (auto& f : pending) {
        const EngineResult r = f.get();
        if (r.status.code() == StatusCode::InvalidArgument)
          invalid.fetch_add(1, std::memory_order_relaxed);
        else if (decision_status(r.status))
          decided.fetch_add(1, std::memory_order_relaxed);
        else
          bad_status.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t m = 0; m < mutators; ++m) {
    crew.emplace_back([&, m] {
      Pcg32 rng(9000 + 13 * static_cast<std::uint64_t>(m));
      for (std::size_t i = 0; i < ops_per_producer / 4 + 2; ++i) {
        const std::size_t who = rng.uniform_u32(static_cast<std::uint32_t>(sys.size()));
        try {
          const alloc::AllocationPlan plan = eng.consult(who, rng.uniform(0.1, 2.0));
          mutator_consults.fetch_add(1, std::memory_order_relaxed);
          if (plan.satisfied()) {
            eng.apply(plan);
            eng.release(plan.draw);
          }
          if (i % 3 == 0) eng.set_capacities(std::span<const double>(original));
        } catch (const PreconditionError&) {
          // Two mutators can race consult->apply: the loser's plan may draw
          // capacity the winner already took. A rejection is the correct
          // outcome; silent over-draw would be the bug.
        }
      }
      // Leave the economy exactly where it started.
      eng.set_capacities(std::span<const double>(original));
    });
  }
  for (std::thread& t : crew) t.join();

  EXPECT_EQ(bad_status.load(), 0u);
  EXPECT_GT(decided.load(), 0u);
  EXPECT_GT(invalid.load(), 0u);  // the poison submissions really happened

  // Every valid submission became exactly one shard-processed consult.
  const EngineStats st = eng.stats();
  std::uint64_t processed = 0;
  for (const ShardStats& s : st.shard) processed += s.consults;
  EXPECT_EQ(processed, decided.load() + mutator_consults.load());
  EXPECT_EQ(st.epoch, eng.epoch());

  // Mutations all balanced out: the published snapshot is back to the
  // starting capacities and availability is non-negative everywhere.
  const auto snap = eng.snapshot();
  ASSERT_EQ(snap->capacity.size(), sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_NEAR(snap->capacity[i], original[i], 1e-6) << "participant " << i;
    EXPECT_GE(snap->available[i], -1e-9);
  }
  for (std::size_t i = 0; i < sys.size(); ++i) EXPECT_GE(eng.available_to(i), -1e-9);
}

TEST(EngineStress, ManyProducersOnComponentShards) {
  const agree::AgreementSystem sys = island_economy(8, 4, 0.25);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}})
    hammer(sys, threads, /*producers=*/4, /*mutators=*/2, /*ops_per_producer=*/40);
}

TEST(EngineStress, ManyProducersOnOneComponentShard) {
  // A connected economy asking for 3 shards runs on one shard that owns
  // everyone; producers and mutators all contend for its run lock.
  const agree::AgreementSystem sys = connected_economy(6, 0.2);
  hammer(sys, /*threads=*/3, /*producers=*/3, /*mutators=*/2, /*ops_per_producer=*/24);
}

TEST(EngineStress, RandomShardCountChurn) {
  // Construction/teardown churn at rng-chosen shard counts, with two
  // producers submitting concurrently right up to destruction: every future
  // is a decision made before its submit() returned, and outlives the
  // engine.
  const agree::AgreementSystem sys = island_economy(4, 3, 0.3);
  Pcg32 rng(424242);
  for (std::size_t round = 0; round < 10; ++round) {
    EngineOptions opts;
    opts.threads = 1 + rng.uniform_u32(8);
    opts.sink = obs::Sink::none();
    opts.alloc.sink = obs::Sink::none();
    std::vector<std::future<EngineResult>> pending;
    {
      EnforcementEngine eng(sys, opts);
      EXPECT_LE(eng.num_shards(), opts.threads);
      std::vector<std::thread> producers;
      std::mutex mu;
      for (std::size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
          Pcg32 local(round * 100 + p);
          for (std::size_t i = 0; i < 10; ++i) {
            auto f = eng.submit(local.uniform_u32(static_cast<std::uint32_t>(sys.size())),
                                local.uniform(0.1, 3.0));
            std::lock_guard<std::mutex> lock(mu);
            pending.push_back(std::move(f));
          }
        });
      }
      for (std::thread& t : producers) t.join();
      // The engine destructs here; the futures it handed out stay valid.
    }
    for (auto& f : pending) {
      const EngineResult r = f.get();
      EXPECT_TRUE(decision_status(r.status)) << r.status.to_string();
    }
  }
}

}  // namespace
}  // namespace agora::engine
