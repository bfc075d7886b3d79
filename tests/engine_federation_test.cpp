// Differential tests for federated cross-shard enforcement (DESIGN.md §15).
//
// A federated engine is *approximate by design* -- each shard admits from
// local state plus border credits -- so the only trustworthy way to ship it
// is to fuzz it against the exact global allocator: random single-component
// economies, federated decisions checked for certified feasibility against
// the GLOBAL entitlements (never just the shard-local ones), grants
// cross-checked to be grantable by the exact LP, and the optimality gap
// bounded. Plus the engine's standing guarantee: threads=1 stays
// bit-identical to the direct Allocator path whether federation is
// requested or not (a single shard has no cut edges, so federation must be
// perfectly inert).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "agree/capacity.h"
#include "alloc/allocator.h"
#include "engine/engine.h"
#include "engine/federation.h"
#include "engine/partition.h"
#include "lp/solve_pipeline.h"

namespace agora::engine {
namespace {

constexpr double kTol = 1e-6;
/// Configured optimality-gap bound for the fuzzed economies: the federated
/// theta never exceeds the exact global optimum by more than this, relative
/// to max(theta_exact, 1). Deliberately generous -- the bench records the
/// typical gap, this asserts it can never run away. Observed maximum over
/// the seeded cases is ~3.6 (densest 48/64-participant economies, where
/// pinning a draw to one shard forgoes the most off-shard routing).
constexpr double kGapRelBound = 4.5;

/// Random connected single-component economy: a random spanning tree plus
/// `extra` density edges, shares U[0.05, 0.3], capacities U[5, 20]. Row
/// sums may exceed 1 (overdraft economies are in scope; K clamps them).
agree::AgreementSystem random_economy(std::mt19937_64& rng, std::size_t n,
                                      std::size_t extra) {
  agree::AgreementSystem sys(n);
  std::uniform_real_distribution<double> cap(5.0, 20.0);
  std::uniform_real_distribution<double> share(0.05, 0.3);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = cap(rng);
  for (std::size_t i = 1; i < n; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, i - 1);
    const std::size_t j = pick(rng);
    sys.relative(i, j) = share(rng);
    sys.relative(j, i) = share(rng);
  }
  std::uniform_int_distribution<std::size_t> node(0, n - 1);
  for (std::size_t e = 0; e < extra; ++e) {
    const std::size_t i = node(rng), j = node(rng);
    if (i == j || sys.relative(i, j) > 0.0) continue;
    sys.relative(i, j) = share(rng);
    sys.relative(j, i) = share(rng);
  }
  return sys;
}

/// The plan's global perturbation: max_i sum_k draw_k * coeff(k, i), with
/// the same coefficients the compact LP's theta rows use (retained on the
/// diagonal, clamped transitive share off it). This is the federated plan
/// priced in GLOBAL terms, comparable to the exact allocator's theta.
double global_theta(const agree::AgreementSystem& sys, const Matrix& shares,
                    const std::vector<double>& draw) {
  const std::size_t n = sys.size();
  double theta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double drop = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (draw[k] == 0.0) continue;
      drop += draw[k] * (k == i ? sys.retained[k] : shares(k, i));
    }
    theta = std::max(theta, drop);
  }
  return theta;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ------------------------------------------------- federated partitioning ---

TEST(PartitionFederated, CutsSingleComponentUnderSizeCap) {
  std::mt19937_64 rng(7);
  const auto sys = random_economy(rng, 12, 12);
  PartitionOptions popts;
  popts.shards = 4;
  popts.federated = true;
  const Partition p = partition_participants(sys, popts);
  EXPECT_TRUE(p.federated);
  EXPECT_EQ(p.components, 1u);
  EXPECT_EQ(p.shards, 4u);
  std::size_t total = 0;
  for (const auto& m : p.members) {
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
    EXPECT_LE(m.size(), 4u);  // ceil(12 * 1.25 / 4)
    total += m.size();
  }
  EXPECT_EQ(total, sys.size());
  // Every participant is owned by exactly the shard that lists it.
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const auto& m = p.members[p.shard_of[i]];
    EXPECT_TRUE(std::binary_search(m.begin(), m.end(), i));
  }
  // The cut carries entitlements -> border edges exist for federation.
  EXPECT_FALSE(find_border_edges(sys, p).empty());
}

TEST(PartitionFederated, MultiComponentStillConnectivityExact) {
  // 4 components, 4 shards: connectivity is exact, federation must not cut.
  agree::AgreementSystem sys(8);
  for (std::size_t i = 0; i < 8; ++i) sys.capacity[i] = 10.0;
  for (std::size_t g = 0; g < 4; ++g) {
    sys.relative(2 * g, 2 * g + 1) = 0.2;
    sys.relative(2 * g + 1, 2 * g) = 0.2;
  }
  PartitionOptions popts;
  popts.shards = 4;
  popts.federated = true;
  const Partition p = partition_participants(sys, popts);
  EXPECT_FALSE(p.federated);
  EXPECT_EQ(p.shards, 4u);
  EXPECT_TRUE(find_border_edges(sys, p).empty());
}

// ------------------------------------------------------- differential fuzz ---

TEST(EngineFederation, DifferentialFuzzAgainstExactGlobal) {
  std::mt19937_64 rng(20260808);
  const struct {
    std::size_t n, extra;
  } cases[] = {{8, 4}, {16, 8}, {24, 30}, {32, 16}, {48, 60}, {64, 32}};

  for (const auto& c : cases) {
    const agree::AgreementSystem sys = random_economy(rng, c.n, c.extra);

    alloc::AllocatorOptions aopts;
    aopts.transitive.max_level = 3;  // keep the dense-graph DFS bounded

    EngineOptions eopts;
    eopts.threads = 4;
    eopts.alloc = aopts;
    eopts.federation.enabled = true;
    eopts.federation.gap_probes = 8;
    EnforcementEngine eng(sys, eopts);
    ASSERT_TRUE(eng.federated()) << "n=" << c.n;

    alloc::Allocator exact(sys, aopts);
    const agree::CapacityReport rep = agree::compute_capacities(sys, aopts.transitive);

    std::uniform_int_distribution<std::size_t> who(0, c.n - 1);
    std::uniform_real_distribution<double> frac(0.02, 0.3);
    std::size_t grants = 0;
    for (int r = 0; r < 12; ++r) {
      const std::size_t a = who(rng);
      const double amount = frac(rng) * rep.capacity[a];
      const alloc::AllocationPlan fed = eng.consult(a, amount);
      const alloc::AllocationPlan ref = exact.allocate(a, amount);
      if (!fed.satisfied()) continue;
      ++grants;

      // Every grant is certified -- the shard-local Verifier ran.
      EXPECT_TRUE(fed.certified);

      // Globally feasible: draws sum to the request and each stays within
      // the drawer's GLOBAL entitlement to `a` (credit attribution never
      // exceeds the cut edge's entitlement, local draws never exceed the
      // induced subsystem's, which the global one dominates).
      double total = 0.0;
      for (std::size_t k = 0; k < c.n; ++k) {
        total += fed.draw[k];
        EXPECT_LE(fed.draw[k], rep.entitlement(k, a) + kTol * (1.0 + rep.entitlement(k, a)))
            << "n=" << c.n << " r=" << r << " k=" << k;
      }
      EXPECT_NEAR(total, amount, kTol * (1.0 + amount));

      // A federated grant implies an exact-global grant (the converse can
      // fail: federation is conservative).
      EXPECT_TRUE(ref.satisfied()) << "n=" << c.n << " r=" << r;

      // Optimality gap, priced globally: never better than the exact
      // optimum (sanity), never worse than the configured bound.
      const double theta_fed = global_theta(sys, rep.shares, fed.draw);
      EXPECT_GE(theta_fed, ref.theta - kTol * (1.0 + ref.theta));
      const double gap_rel =
          std::max(0.0, theta_fed - ref.theta) / std::max(ref.theta, 1.0);
      EXPECT_LE(gap_rel, kGapRelBound) << "n=" << c.n << " r=" << r;
    }
    EXPECT_GT(grants, 0u) << "fuzz case produced no grants, nothing was tested";

    // A settlement round measures the epoch's gap probes.
    eng.settle();
    const EngineStats st = eng.stats();
    EXPECT_TRUE(st.federated);
    EXPECT_GT(st.federation.credits, 0u);
    EXPECT_GT(st.federation.settlements, 0u);
    EXPECT_GT(st.federation.gap_probes, 0u);
    EXPECT_TRUE(std::isfinite(st.federation.last_gap_rel));
    EXPECT_GE(st.federation.last_gap_rel, 0.0);
    EXPECT_LE(st.federation.max_gap_rel, kGapRelBound);
  }
}

TEST(EngineFederation, ApplyConservesTotalCapacityAndSpendsCredits) {
  std::mt19937_64 rng(99);
  const agree::AgreementSystem sys = random_economy(rng, 24, 20);
  EngineOptions eopts;
  eopts.threads = 4;
  eopts.alloc.transitive.max_level = 3;
  eopts.federation.enabled = true;
  EnforcementEngine eng(sys, eopts);
  ASSERT_TRUE(eng.federated());

  double granted_total = 0.0;
  for (std::size_t a = 0; a < sys.size(); ++a) {
    const double amount = 0.1 * eng.available_to(a);
    const double before = [&] {
      const auto snap = eng.snapshot();
      double s = 0.0;
      for (double v : snap->capacity) s += v;
      return s;
    }();
    const alloc::AllocationPlan plan = eng.consult(a, amount);
    if (!plan.satisfied()) continue;
    eng.apply(plan);
    granted_total += amount;
    const auto snap = eng.snapshot();
    double after = 0.0;
    for (double v : snap->capacity) after += v;
    // Conservation: applying a plan removes exactly the granted amount from
    // the global economy, no matter how much of it rode border credits.
    EXPECT_NEAR(before - after, amount, 1e-6 * (1.0 + amount));
  }
  ASSERT_GT(granted_total, 0.0);
  const EngineStats st = eng.stats();
  // Ledger lifecycle stays accounted: granted = consumed + revoked + live.
  EXPECT_NEAR(st.federation.granted,
              st.federation.consumed + st.federation.revoked + st.federation.outstanding,
              1e-6 * (1.0 + st.federation.granted));
}

TEST(EngineFederation, SolverStatsSurviveAllocatorRebuilds) {
  // A settlement that moves bank earmarks replaces a shard's allocator; the
  // engine's solve-chain counts must carry the retired allocator's counts
  // instead of restarting from zero.
  std::mt19937_64 rng(7);
  const agree::AgreementSystem sys = random_economy(rng, 32, 16);
  EngineOptions eopts;
  eopts.threads = 4;
  eopts.federation.enabled = true;
  EnforcementEngine eng(sys, eopts);
  ASSERT_TRUE(eng.federated());

  std::vector<double> caps = sys.capacity;
  lp::PipelineStats settled = *eng.solver_stats();
  for (int round = 0; round < 3; ++round) {
    // Small requests the LP grants; ones above the requester's own capacity
    // it may grant or deny.
    for (std::size_t k = 0; k < 200; ++k) {
      const std::size_t a = k % sys.size();
      ASSERT_TRUE(eng.consult(a, 0.01 * caps[a]).satisfied());
      if (k % 10 == 0) (void)eng.consult(a, 1.5 * caps[a]);
    }
    const lp::PipelineStats consulted = *eng.solver_stats();
    EXPECT_GT(consulted.solves, settled.solves) << "round " << round;
    EXPECT_GT(consulted.certified, settled.certified) << "round " << round;

    // Halving every capacity moves the bank earmarks, so the settlement
    // rebuilds the allocator of every shard with a bank. It solves nothing
    // on the shard allocators (the gap probes' reference allocator is
    // counted nowhere here).
    for (double& c : caps) c *= 0.5;
    eng.set_capacities(std::span<const double>(caps));
    settled = *eng.solver_stats();
    EXPECT_EQ(settled.solves, consulted.solves) << "round " << round;
    EXPECT_EQ(settled.certified, consulted.certified) << "round " << round;
  }
}

// ------------------------------------------------------------- gap probes ---

/// bench/scale_shards' bridged economy: 8 complete-graph islands of 8
/// (share 0.2, capacities 10..17) joined into one component by 0.05 ring
/// bridges.
agree::AgreementSystem bridged_economy() {
  constexpr std::size_t kIslands = 8, kPerIsland = 8;
  agree::AgreementSystem sys(kIslands * kPerIsland);
  for (std::size_t i = 0; i < sys.size(); ++i)
    sys.capacity[i] = 10.0 + static_cast<double>(i % kPerIsland);
  for (std::size_t g = 0; g < kIslands; ++g) {
    for (std::size_t i = g * kPerIsland; i < (g + 1) * kPerIsland; ++i)
      for (std::size_t j = g * kPerIsland; j < (g + 1) * kPerIsland; ++j)
        if (i != j) sys.relative(i, j) = 0.2;
    const std::size_t a = g * kPerIsland + (kPerIsland - 1);
    const std::size_t b = ((g + 1) % kIslands) * kPerIsland;
    sys.relative(a, b) = 0.05;
    sys.relative(b, a) = 0.05;
  }
  return sys;
}

TEST(EngineFederation, SettlementProbesEverySampledDecisionOnTheBridgedEconomy) {
  // One 64-participant component, so each gap probe's reference LP is the
  // whole system. The sample rings are sized so no decision is evicted:
  // every satisfied consult is sampled, and a settlement must probe them
  // all. A reference solve that stalls or misreports drops its probe.
  const agree::AgreementSystem sys = bridged_economy();
  EngineOptions eopts;
  eopts.threads = 8;
  eopts.alloc.transitive.max_level = 3;
  eopts.federation.enabled = true;
  eopts.federation.gap_probes = sys.size();
  EnforcementEngine eng(sys, eopts);
  ASSERT_TRUE(eng.federated());

  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> amount(0.5, 4.0);
  std::uint64_t sampled = 0;
  for (std::size_t a = 0; a < sys.size(); ++a)
    if (eng.consult(a, amount(rng)).satisfied()) ++sampled;
  ASSERT_GT(sampled, 0u);

  eng.settle();
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.federation.gap_probes, sampled);
  EXPECT_LE(st.federation.max_gap_rel, kGapRelBound);
}

// ------------------------------------------------ threads=1 bit-identity ---

TEST(EngineFederation, SingleThreadBitIdenticalToDirectPathFederationOnOrOff) {
  std::mt19937_64 rng(4242);
  const agree::AgreementSystem sys = random_economy(rng, 16, 10);
  alloc::AllocatorOptions aopts;
  aopts.transitive.max_level = 3;

  for (const bool fed_on : {false, true}) {
    alloc::Allocator direct(sys, aopts);
    EngineOptions eopts;
    eopts.threads = 1;
    eopts.alloc = aopts;
    eopts.federation.enabled = fed_on;
    EnforcementEngine eng(sys, eopts);
    // One shard: no cut edges, federation must be perfectly inert.
    EXPECT_FALSE(eng.federated());
    EXPECT_EQ(eng.num_shards(), 1u);

    std::mt19937_64 seq(fed_on ? 1u : 1u);  // same sequence for both modes
    std::uniform_int_distribution<std::size_t> who(0, sys.size() - 1);
    std::uniform_real_distribution<double> frac(0.05, 0.4);
    for (int r = 0; r < 10; ++r) {
      const std::size_t a = who(seq);
      const double amount = frac(seq) * direct.available_to(a);
      const alloc::AllocationPlan ep = eng.consult(a, amount);
      const alloc::AllocationPlan dp = direct.allocate(a, amount);
      EXPECT_EQ(ep.status, dp.status);
      EXPECT_TRUE(bitwise_equal(ep.draw, dp.draw));
      EXPECT_EQ(ep.theta, dp.theta);
      EXPECT_EQ(ep.lp_iterations, dp.lp_iterations);
      EXPECT_EQ(ep.certified, dp.certified);
      EXPECT_TRUE(ep.borrowed.empty());
      if (ep.satisfied()) {
        eng.apply(ep);
        direct.apply(dp);
      }
    }
  }
}

}  // namespace
}  // namespace agora::engine
