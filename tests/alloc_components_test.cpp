// alloc_components_test.cpp -- the allocator solves each consult over the
// requester's connected agreement component only (DESIGN.md section 8).
//
// Invariants under test:
//   * a consult on a many-island economy is bit-identical to the same
//     consult on an Allocator built over the requester's island alone;
//   * against the whole-system model (reuse_context = false) every consult
//     reaches the same status and optimal theta, draws only inside the
//     requester's component, and every grant is certified -- across island,
//     absolute-bridged and agreement-free economies, transitivity levels,
//     both LP backends, and the fast path on and off;
//   * the simplex pivot count per consult stays bounded by the component
//     size, not the system size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "agree/matrices.h"
#include "alloc/allocator.h"
#include "util/rng.h"

namespace agora::alloc {
namespace {

using agree::AgreementSystem;

constexpr std::size_t kIslands = 8;
constexpr std::size_t kPerIsland = 8;

/// The 64-participant island economy: 8 complete-graph islands of 8, share
/// 0.2, capacity 10 + (i mod 8), no agreement between islands.
AgreementSystem island_economy() {
  const std::size_t n = kIslands * kPerIsland;
  AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 10.0 + static_cast<double>(i % kPerIsland);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && i / kPerIsland == j / kPerIsland) sys.relative(i, j) = 0.2;
  return sys;
}

/// `sys` restricted to `members` (ascending), in member order.
AgreementSystem induce(const AgreementSystem& sys, const std::vector<std::size_t>& members) {
  const std::size_t m = members.size();
  AgreementSystem sub(m);
  for (std::size_t l = 0; l < m; ++l) {
    sub.capacity[l] = sys.capacity[members[l]];
    sub.retained[l] = sys.retained[members[l]];
    for (std::size_t k = 0; k < m; ++k) {
      sub.relative(l, k) = sys.relative(members[l], members[k]);
      sub.absolute(l, k) = sys.absolute(members[l], members[k]);
    }
  }
  return sub;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

AllocatorOptions options(lp::Backend backend, bool reuse, bool fast) {
  AllocatorOptions o;
  o.solve.backend = backend;
  o.reuse_context = reuse;
  o.fast_path = fast;
  o.sink = obs::Sink::none();
  return o;
}

// ----------------------------------------- (a) bit-identity to the island ---

TEST(AllocComponents, ConsultIsBitIdenticalToTheIslandAlone) {
  const AgreementSystem sys = island_economy();
  for (const lp::Backend backend : {lp::Backend::Revised}) {
    const AllocatorOptions opts = options(backend, /*reuse=*/true, /*fast=*/false);
    Allocator global(sys, opts);
    for (std::size_t g = 0; g < kIslands; ++g) {
      std::vector<std::size_t> members(kPerIsland);
      for (std::size_t l = 0; l < kPerIsland; ++l) members[l] = g * kPerIsland + l;
      Allocator island(induce(sys, members), opts);
      // A consult sequence per island, committing some grants so that
      // entitlements move and the revised workspace carries warm state.
      for (int step = 0; step < 24; ++step) {
        const std::size_t l = static_cast<std::size_t>(step * 3 + g) % kPerIsland;
        const std::size_t a = members[l];
        const double want = (0.15 + 0.05 * static_cast<double>(step % 20)) *
                            global.available_to(a);
        const AllocationPlan gp = global.allocate(a, want);
        const AllocationPlan ip = island.allocate(l, want);
        const std::string where = std::string(lp::to_string(backend)) + " island " +
                                  std::to_string(g) + " step " + std::to_string(step);
        ASSERT_EQ(gp.status, ip.status) << where;
        EXPECT_EQ(gp.lp_iterations, ip.lp_iterations) << where;
        EXPECT_EQ(gp.certified, ip.certified) << where;
        if (!gp.satisfied()) continue;
        EXPECT_TRUE(same_bits(gp.theta, ip.theta)) << where;
        ASSERT_EQ(gp.draw.size(), sys.size());
        for (std::size_t i = 0; i < sys.size(); ++i) {
          const bool member = i / kPerIsland == g;
          const std::size_t li = i % kPerIsland;
          EXPECT_TRUE(same_bits(gp.draw[i], member ? ip.draw[li] : 0.0)) << where << " " << i;
        }
        if (step % 4 == 1) {
          global.apply(gp);
          island.apply(ip);
        }
      }
    }
  }
}

// ---------------------------------- (b) property test vs the whole model ---

enum class Shape { Islands, AbsoluteBridges, NoAgreements };

AgreementSystem random_economy(Shape shape, Pcg32& rng) {
  // Islands of 1..5 participants; relative shares inside an island only.
  std::vector<std::size_t> island_of;
  const std::size_t islands = 3 + rng.uniform_u32(3);
  for (std::size_t g = 0; g < islands; ++g)
    for (std::uint32_t k = 0, size = 1 + rng.uniform_u32(5); k < size; ++k)
      island_of.push_back(g);
  const std::size_t n = island_of.size();
  AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.capacity[i] = rng.uniform(2.0, 20.0);
    if (rng.next_double() < 0.3) sys.retained[i] = rng.uniform(0.6, 1.0);
  }
  if (shape == Shape::NoAgreements) return sys;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && island_of[i] == island_of[j] && rng.next_double() < 0.7)
        sys.relative(i, j) = rng.uniform(0.02, 0.3);
  if (shape == Shape::AbsoluteBridges) {
    // Absolute agreements are the only links between islands.
    for (std::size_t g = 0; g + 1 < islands; ++g) {
      std::size_t from = n, to = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (island_of[i] == g && from == n) from = i;
        if (island_of[i] == g + 1 && to == n) to = i;
      }
      sys.absolute(from, to) = rng.uniform(0.5, 4.0);
    }
  }
  return sys;
}

TEST(AllocComponents, DecomposedConsultsMatchTheWholeSystemModel) {
  constexpr double kTol = 1e-7;
  std::size_t fast_grants = 0, lp_grants = 0;
  for (const Shape shape : {Shape::Islands, Shape::AbsoluteBridges, Shape::NoAgreements}) {
    for (const std::size_t level : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      for (const lp::Backend backend : {lp::Backend::Revised}) {
        for (const bool fast : {false, true}) {
          const std::uint64_t seed = 1000 * static_cast<std::uint64_t>(shape) + 10 * level +
                                     (backend == lp::Backend::Revised ? 2 : 0) + (fast ? 1 : 0);
          Pcg32 rng(seed);
          const AgreementSystem sys = random_economy(shape, rng);
          const std::size_t n = sys.size();
          std::vector<std::size_t> comp_of(n);
          const auto comps = agree::connected_components(sys);
          for (std::size_t c = 0; c < comps.size(); ++c)
            for (const std::size_t i : comps[c]) comp_of[i] = c;

          AllocatorOptions opts = options(backend, /*reuse=*/true, fast);
          opts.transitive.max_level = level;
          AllocatorOptions ref_opts = opts;
          ref_opts.reuse_context = false;
          Allocator alloc(sys, opts);
          Allocator ref(sys, ref_opts);

          for (int step = 0; step < 40; ++step) {
            const std::string where = "seed " + std::to_string(seed) + " step " +
                                      std::to_string(step);
            const auto action = rng.uniform_u32(8);
            if (action == 0) {
              std::vector<double> back(n);
              for (double& b : back) b = rng.uniform(0.0, 1.0);
              alloc.release(back);
              ref.release(back);
              continue;
            }
            const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(n));
            // Up to 1.3x availability, so some consults are infeasible.
            const double amount = rng.uniform(0.0, 1.3) * ref.available_to(a);
            const std::uint64_t granted_before = alloc.fastpath_granted();
            const AllocationPlan p = alloc.allocate(a, amount);
            const AllocationPlan want = ref.allocate(a, amount);
            ASSERT_EQ(p.status, want.status) << where;
            if (!p.satisfied()) continue;
            EXPECT_TRUE(p.certified) << where;
            ASSERT_EQ(p.draw.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
              if (comp_of[i] != comp_of[a]) {
                EXPECT_EQ(p.draw[i], 0.0) << where << " at " << i;
              }
            }
            EXPECT_NEAR(p.total_drawn(), amount, kTol * (1.0 + amount)) << where;
            if (alloc.fastpath_granted() > granted_before) {
              // The self-draw plan trades optimality: theta can only be
              // at or above the LP minimum.
              ++fast_grants;
              EXPECT_GE(p.theta, want.theta - kTol * (1.0 + want.theta)) << where;
            } else {
              ++lp_grants;
              EXPECT_NEAR(p.theta, want.theta, kTol * (1.0 + want.theta)) << where;
            }
            if (action <= 3) {
              // Commit the reference plan on both so capacities stay in
              // lockstep even where alternative optima differ in draws.
              alloc.apply(want);
              ref.apply(want);
            }
          }
        }
      }
    }
  }
  // Both decision paths were exercised.
  EXPECT_GT(fast_grants, 0u);
  EXPECT_GT(lp_grants, 0u);
}

// ----------------------------------------------------- (c) pivot ceiling ---

TEST(AllocComponents, PivotsPerConsultScaleWithTheComponent) {
  const AgreementSystem sys = island_economy();
  for (const lp::Backend backend : {lp::Backend::Revised}) {
    Allocator alloc(sys, options(backend, /*reuse=*/true, /*fast=*/false));
    std::uint64_t pivots = 0, consults = 0;
    std::vector<double> held(sys.size(), 0.0);
    for (int step = 0; step < 512; ++step) {
      const std::size_t a = static_cast<std::size_t>(step * 7) % sys.size();
      const double frac = 0.1 + 0.1 * static_cast<double>(step % 11);  // up to 1.1: some denials
      const AllocationPlan p = alloc.allocate(a, frac * alloc.available_to(a));
      pivots += p.lp_iterations;
      ++consults;
      if (p.satisfied() && step % 4 == 0) {
        alloc.apply(p);
        for (std::size_t i = 0; i < held.size(); ++i) held[i] += p.draw[i];
      }
      if (step % 32 == 31) {
        alloc.release(held);
        held.assign(held.size(), 0.0);
      }
    }
    const double mean = static_cast<double>(pivots) / static_cast<double>(consults);
    EXPECT_LE(mean, 2.0 * static_cast<double>(kPerIsland + 1)) << lp::to_string(backend);
  }
}

}  // namespace
}  // namespace agora::alloc
