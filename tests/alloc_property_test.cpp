// Property-based tests for the allocation engine on randomized agreement
// systems: plan feasibility invariants, optimality of theta against the
// endpoint baseline, monotonicity in capacity and transitivity level,
// exact-mode consistency, the per-component availability refresh and the
// closed-form denials.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <string>

#include "agree/capacity.h"
#include "alloc/allocator.h"
#include "alloc/endpoint.h"
#include "lp/solve.h"
#include "util/rng.h"

namespace agora::alloc {
namespace {

using agree::AgreementSystem;

struct SystemSpec {
  std::uint64_t seed;
  std::size_t n;
  double density;  ///< probability of an agreement edge
};

AgreementSystem make_system(const SystemSpec& spec) {
  Pcg32 rng(spec.seed);
  AgreementSystem sys(spec.n);
  for (std::size_t i = 0; i < spec.n; ++i) {
    sys.capacity[i] = rng.uniform(0.0, 25.0);
    double budget = 1.0;
    for (std::size_t j = 0; j < spec.n; ++j) {
      if (i == j || rng.next_double() > spec.density) continue;
      const double s = rng.uniform(0.0, budget * 0.6);
      sys.relative(i, j) = s;
      budget -= s;
    }
    // Sprinkle some absolute agreements too.
    if (rng.next_double() < 0.3) {
      const std::size_t j = rng.uniform_u32(static_cast<std::uint32_t>(spec.n));
      if (j != i) sys.absolute(i, j) = rng.uniform(0.0, 3.0);
    }
  }
  return sys;
}

class RandomSystems : public ::testing::TestWithParam<SystemSpec> {};

TEST_P(RandomSystems, PlanInvariantsHold) {
  const AgreementSystem sys = make_system(GetParam());
  Allocator allocator(sys);
  Pcg32 rng(GetParam().seed ^ 0xabcdef);
  const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(sys.size()));
  const double avail = allocator.available_to(a);

  for (double frac : {0.1, 0.5, 0.95}) {
    const double x = avail * frac;
    const AllocationPlan plan = allocator.allocate(a, x);
    ASSERT_TRUE(plan.satisfied()) << "x=" << x << " avail=" << avail;
    // (5): total drawn equals the request.
    EXPECT_NEAR(plan.total_drawn(), x, 1e-6);
    // (4): every draw within the entitlement; own node within capacity.
    for (std::size_t k = 0; k < sys.size(); ++k) {
      const double cap = k == a ? sys.capacity[a] : allocator.capacities().entitlement(k, a);
      EXPECT_LE(plan.draw[k], cap + 1e-6);
      EXPECT_GE(plan.draw[k], -1e-9);
    }
    // (6) over the LP's linearized drop sum_k d_k * That_ki (That_ii =
    // retained_i, That_ki = K_ki): availability only goes down, by at most
    // theta, and theta is exactly the largest drop.
    const agree::CapacityReport& rep = allocator.capacities();
    double max_drop = 0.0;
    for (std::size_t i = 0; i < sys.size(); ++i) {
      double drop = 0.0;
      for (std::size_t k = 0; k < sys.size(); ++k)
        drop += plan.draw[k] * (k == i ? sys.retained[i] : rep.shares(k, i));
      EXPECT_GE(drop, -1e-6);
      EXPECT_LE(drop, plan.theta + 1e-6);
      max_drop = std::max(max_drop, drop);
    }
    EXPECT_NEAR(plan.theta, max_drop, 1e-6);
  }
}

TEST_P(RandomSystems, RequestsBeyondAvailabilityRejected) {
  const AgreementSystem sys = make_system(GetParam());
  Allocator allocator(sys);
  for (std::size_t a = 0; a < sys.size(); ++a) {
    const double avail = allocator.available_to(a);
    EXPECT_EQ(allocator.allocate(a, avail * 1.01 + 0.1).status, PlanStatus::Insufficient);
  }
}

TEST_P(RandomSystems, ThetaNoWorseThanEndpointBaseline) {
  // The LP minimizes the max availability drop; the proportional endpoint
  // split is one feasible-ish alternative, so whenever the endpoint plan
  // happens to be feasible under the LP's constraints its induced drop
  // cannot beat theta*.
  const AgreementSystem sys = make_system(GetParam());
  Allocator allocator(sys);
  const agree::CapacityReport& rep = allocator.capacities();
  Pcg32 rng(GetParam().seed ^ 0x777);
  const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(sys.size()));

  const double x = allocator.available_to(a) * 0.4;
  const AllocationPlan lp = allocator.allocate(a, x);
  ASSERT_TRUE(lp.satisfied());

  const AllocationPlan ep = endpoint_allocate(sys, a, x);
  // Check endpoint feasibility wrt LP constraints (draw[a] may exceed V_a
  // when overflow stays local; skip those cases).
  bool feasible = ep.draw[a] <= sys.capacity[a] + 1e-9;
  for (std::size_t k = 0; k < sys.size() && feasible; ++k)
    if (k != a && ep.draw[k] > rep.entitlement(k, a) + 1e-9) feasible = false;
  if (!feasible) return;

  double ep_drop = 0.0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    double drop = 0.0;
    for (std::size_t k = 0; k < sys.size(); ++k)
      drop += ep.draw[k] * (k == i ? sys.retained[i] : rep.shares(k, i));
    ep_drop = std::max(ep_drop, drop);
  }
  EXPECT_LE(lp.theta, ep_drop + 1e-6);
}

TEST_P(RandomSystems, MoreCapacityNeverHurts) {
  const AgreementSystem sys = make_system(GetParam());
  AgreementSystem bigger = sys;
  for (double& v : bigger.capacity) v *= 1.5;
  Allocator small(sys), large(bigger);
  for (std::size_t a = 0; a < sys.size(); ++a)
    EXPECT_GE(large.available_to(a) + 1e-9, small.available_to(a));
}

TEST_P(RandomSystems, AvailabilityMonotoneInLevel) {
  const AgreementSystem sys = make_system(GetParam());
  std::vector<double> prev(sys.size(), -1.0);
  for (std::size_t level : {1u, 2u, 3u, 6u}) {
    AllocatorOptions opts;
    opts.transitive.max_level = level;
    Allocator allocator(sys, opts);
    for (std::size_t a = 0; a < sys.size(); ++a) {
      EXPECT_GE(allocator.available_to(a) + 1e-9, prev[a]) << "level " << level;
      prev[a] = allocator.available_to(a);
    }
  }
}

TEST_P(RandomSystems, ExactModeFallbackIsFlagged) {
  const AgreementSystem sys = make_system(GetParam());
  AllocatorOptions opts;
  opts.equality = EqualityMode::Exact;
  Allocator allocator(sys, opts);
  Pcg32 rng(GetParam().seed ^ 0x31415);
  const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(sys.size()));
  const double x = allocator.available_to(a) * 0.5;
  const AllocationPlan plan = allocator.allocate(a, x);
  if (x <= 0.0) return;
  // Either the paper-exact program was feasible, or the fallback kicked in;
  // in both cases the request must be satisfied.
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.total_drawn(), x, 1e-6);
}

/// Islands of the given sizes with no agreement between them. A ring of
/// relative shares keeps each island connected; random extra shares and a
/// few absolute agreements fill it in.
AgreementSystem island_economy(std::uint64_t seed, const std::vector<std::size_t>& sizes) {
  Pcg32 rng(seed);
  std::size_t n = 0;
  for (std::size_t size : sizes) n += size;
  AgreementSystem sys(n);
  std::size_t base = 0;
  for (std::size_t size : sizes) {
    for (std::size_t l = 0; l < size; ++l) {
      const std::size_t i = base + l;
      sys.capacity[i] = rng.uniform(1.0, 20.0);
      if (size == 1) continue;
      sys.relative(i, base + (l + 1) % size) = rng.uniform(0.05, 0.3);
      for (std::size_t m = 0; m < size; ++m)
        if (m != l && rng.next_double() < 0.3) sys.relative(i, base + m) += rng.uniform(0.0, 0.15);
      if (rng.next_double() < 0.4) {
        const std::size_t m = rng.uniform_u32(static_cast<std::uint32_t>(size));
        if (m != l) sys.absolute(i, base + m) = rng.uniform(0.5, 4.0);
      }
    }
    base += size;
  }
  return sys;
}

/// The component of every principal (agree::connected_components order).
std::vector<std::size_t> component_index(const AgreementSystem& sys) {
  std::vector<std::size_t> of(sys.size());
  const auto comps = agree::connected_components(sys);
  for (std::size_t c = 0; c < comps.size(); ++c)
    for (std::size_t i : comps[c]) of[i] = c;
  return of;
}

void expect_bitwise_equal(std::span<const double> got, std::span<const double> want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << " entry " << i << ": " << got[i] << " vs " << want[i];
}

TEST(ComponentRefresh, MutationsKeepTheReportBitwiseFresh) {
  // apply, release and set_capacities refresh only the components whose
  // capacities moved. After any sequence of them the capacities must be
  // the ones written (tracked in `want`), and the report (U and C) bit for
  // bit that of a fresh allocator over the same system, and that of the
  // whole-matrix pass (agree::compute_capacities).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AgreementSystem sys = island_economy(seed, {5, 3, 6, 1, 4});
    const std::vector<std::size_t> comp = component_index(sys);
    ASSERT_EQ(agree::connected_components(sys).size(), 5u);
    AllocatorOptions opts;
    opts.sink = obs::Sink::none();
    Allocator alloc(sys, opts);
    Pcg32 rng(seed * 7919);
    const std::size_t n = sys.size();
    std::vector<double> want = sys.capacity;
    for (int step = 0; step < 60; ++step) {
      const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(n));
      switch (rng.uniform_u32(4)) {
        case 0: {  // commit a consult
          const AllocationPlan plan =
              alloc.allocate(a, rng.uniform(0.0, 0.9) * alloc.available_to(a));
          if (!plan.satisfied()) break;
          alloc.apply(plan);
          for (std::size_t i = 0; i < n; ++i) want[i] = std::max(0.0, want[i] - plan.draw[i]);
          break;
        }
        case 1: {  // return capacity to a few principals
          std::vector<double> back(n, 0.0);
          for (double& b : back)
            if (rng.next_double() < 0.3) b = rng.uniform(0.0, 2.0);
          alloc.release(back);
          for (std::size_t i = 0; i < n; ++i) want[i] += back[i];
          break;
        }
        case 2: {  // move a few members of one island, leave the rest
          for (std::size_t i = 0; i < n; ++i)
            if (comp[i] == comp[a] && rng.next_double() < 0.5) want[i] = rng.uniform(0.0, 20.0);
          alloc.set_capacities(std::span<const double>(want));
          break;
        }
        default: {  // replace everything, or nothing
          if (rng.next_double() < 0.5)
            for (double& c : want) c = rng.uniform(0.0, 20.0);
          alloc.set_capacities(want);
          break;
        }
      }
      expect_bitwise_equal(alloc.system().capacity, want, "V vs written");
      const Allocator fresh(alloc.system(), opts);
      const agree::CapacityReport full = agree::compute_capacities(alloc.system());
      expect_bitwise_equal(alloc.capacities().entitlement.flat(),
                           fresh.capacities().entitlement.flat(), "U vs fresh");
      expect_bitwise_equal(alloc.capacities().capacity, fresh.capacities().capacity,
                           "C vs fresh");
      expect_bitwise_equal(alloc.capacities().entitlement.flat(), full.entitlement.flat(),
                           "U vs whole-matrix pass");
      expect_bitwise_equal(alloc.capacities().capacity, full.capacity,
                           "C vs whole-matrix pass");
    }
  }
}

TEST(ClosedFormDenial, AgreesWithTheLpAndVerifierOnAFuzzedCorpus) {
  // Every consult is also solved by lp::solve on the same component model
  // and checked by a fresh Verifier. A closed-form denial must be a certified
  // infeasibility there, and every request beyond the tolerance band above
  // C_a must be denied in closed form.
  std::size_t closed_forms = 0, lp_grants = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const AgreementSystem sys = island_economy(seed * 31, {4, 6, 1, 3});
    const std::vector<std::size_t> comp = component_index(sys);
    const auto comps = agree::connected_components(sys);
    AllocatorOptions opts;
    opts.sink = obs::Sink::none();
    Allocator alloc(sys, opts);
    const double tol = opts.solve.tols.farkas;
    Pcg32 rng(seed ^ 0xfa7ca5);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(sys.size()));
      const double cap = alloc.available_to(a);
      const double band = tol * (1.0 + cap);
      // Inside C_a, at it, inside the band, just past it, and far above.
      const double offsets[] = {-0.5 * cap, 0.0, 0.5 * band, 3.0 * band, 0.2 * cap + 1.0};
      const double amount = std::max(0.0, cap + offsets[rng.uniform_u32(5)]);

      const std::uint64_t solves = alloc.solver_stats()->solves;
      const AllocationPlan plan = alloc.allocate(a, amount);
      const bool closed_form = alloc.solver_stats()->solves == solves;

      AllocationModelCache model;
      model.build(alloc.system(), alloc.capacities(), comps[comp[a]]);
      model.patch(alloc.capacities(), a, amount);
      const lp::SolveResult ref = lp::solve(model.problem(), opts.solve);
      lp::Verifier verifier(opts.solve.tols);
      const bool certified = verifier.certify(model.problem(), ref).certified;

      const std::string where = "seed " + std::to_string(seed) + " trial " +
                                std::to_string(trial);
      EXPECT_EQ(closed_form, amount - cap > tol * (1.0 + std::max(amount, cap))) << where;
      if (closed_form) {
        ++closed_forms;
        EXPECT_EQ(ref.status, lp::Status::Infeasible) << where;
        EXPECT_TRUE(certified) << where;
        EXPECT_EQ(plan.status, PlanStatus::Insufficient) << where;
        EXPECT_TRUE(plan.certified) << where;
        EXPECT_EQ(plan.lp_iterations, 0u) << where;
      } else if (amount <= cap) {
        // Within C_a, C_a itself included, the bare solve certifies and the
        // allocator grants a certified plan. Inside the band above C_a the
        // LP decides at its own tolerances, and either answer is possible.
        ++lp_grants;
        EXPECT_EQ(ref.status, lp::Status::Optimal) << where;
        EXPECT_TRUE(certified) << where;
        EXPECT_TRUE(plan.satisfied()) << where;
        EXPECT_TRUE(plan.certified) << where;
      }
      // Commit some grants so capacities move between consults. Grants from
      // inside the band may overdraw a principal by the LP's tolerance,
      // which apply() rejects, so only grants within C_a are committed.
      if (plan.satisfied() && amount <= cap && rng.next_double() < 0.5) alloc.apply(plan);
    }
  }
  EXPECT_GT(closed_forms, 40u);
  EXPECT_GT(lp_grants, 40u);
}

std::vector<SystemSpec> specs() {
  std::vector<SystemSpec> out;
  std::uint64_t seed = 9000;
  for (std::size_t n : {2u, 4u, 7u, 10u})
    for (double density : {0.3, 0.8})
      for (int rep = 0; rep < 3; ++rep) out.push_back({seed++, n, density});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomSystems, ::testing::ValuesIn(specs()),
                         [](const ::testing::TestParamInfo<SystemSpec>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_n" +
                                  std::to_string(info.param.n) + "_d" +
                                  std::to_string(static_cast<int>(info.param.density * 10));
                         });

}  // namespace
}  // namespace agora::alloc
