// Unit and property tests for the allocation engine: compact vs full-paper
// LP formulations, the exact/relaxed handling of the paper's constraint (3),
// the endpoint baseline, multi-resource requests, bundles, and the
// hierarchical multi-grid allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "alloc/endpoint.h"
#include "alloc/hierarchical.h"
#include "alloc/multi_resource.h"
#include "util/error.h"
#include "util/rng.h"

namespace agora::alloc {
namespace {

using agree::AgreementSystem;

AgreementSystem two_node_donor() {
  // Node 1 owns 10 and shares 50% with node 0, which owns nothing.
  AgreementSystem sys(2);
  sys.capacity = {0.0, 10.0};
  sys.relative(1, 0) = 0.5;
  return sys;
}

TEST(Allocator, SimpleBorrow) {
  Allocator alloc(two_node_donor());
  EXPECT_NEAR(alloc.available_to(0), 5.0, 1e-12);
  const AllocationPlan plan = alloc.allocate(0, 4.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.draw[1], 4.0, 1e-9);
  EXPECT_NEAR(plan.draw[0], 0.0, 1e-9);
  // Node 1 loses 4 of capacity; node 0 loses 4*0.5 = 2 of availability.
  EXPECT_NEAR(plan.theta, 4.0, 1e-9);
  alloc.apply(plan);
  EXPECT_NEAR(alloc.available_to(0), 3.0, 1e-9);
  EXPECT_NEAR(alloc.available_to(1), 6.0, 1e-9);
}

TEST(Allocator, InsufficientCapacityReported) {
  Allocator alloc(two_node_donor());
  const AllocationPlan plan = alloc.allocate(0, 6.0);  // C_0 is only 5
  EXPECT_EQ(plan.status, PlanStatus::Insufficient);
}

TEST(Allocator, ZeroRequestIsTriviallySatisfied) {
  Allocator alloc(two_node_donor());
  const AllocationPlan plan = alloc.allocate(0, 0.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.total_drawn(), 0.0, 1e-12);
  EXPECT_NEAR(plan.theta, 0.0, 1e-12);
}

TEST(Allocator, BalancesAcrossEquivalentDonors) {
  // Two donors with identical agreements: minimizing the max perturbation
  // splits the draw evenly.
  AgreementSystem sys(3);
  sys.capacity = {0.0, 10.0, 10.0};
  sys.relative(1, 0) = 0.5;
  sys.relative(2, 0) = 0.5;
  Allocator alloc(sys);
  const AllocationPlan plan = alloc.allocate(0, 5.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.draw[1], 2.5, 1e-7);
  EXPECT_NEAR(plan.draw[2], 2.5, 1e-7);
  EXPECT_NEAR(plan.theta, 2.5, 1e-7);
}

TEST(Allocator, PrefersLessSharedOutDonor) {
  // Donor 1's capacity also backs node 3's availability; donor 2's does
  // not. Minimizing global perturbation shifts the draw toward donor 2.
  AgreementSystem sys(4);
  sys.capacity = {0.0, 10.0, 10.0, 0.0};
  sys.relative(1, 0) = 0.8;
  sys.relative(2, 0) = 0.8;
  sys.relative(1, 3) = 0.2;  // node 3 depends on donor 1
  Allocator alloc(sys);
  const AllocationPlan plan = alloc.allocate(0, 6.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_GT(plan.draw[2], plan.draw[1]);
}

TEST(Allocator, UsesOwnCapacityFirstWhenCheapest) {
  // The requester owns plenty; drawing locally perturbs only itself.
  AgreementSystem sys(2);
  sys.capacity = {10.0, 10.0};
  sys.relative(1, 0) = 0.5;
  Allocator alloc(sys);
  const AllocationPlan plan = alloc.allocate(0, 3.0);
  ASSERT_TRUE(plan.satisfied());
  // Optimal theta: drawing own capacity costs 3 at node 0 only; any remote
  // draw costs node 1 more. theta = 3 with all-local is optimal but the LP
  // may split; verify theta <= 3 and feasibility invariants instead.
  EXPECT_LE(plan.theta, 3.0 + 1e-9);
  EXPECT_NEAR(plan.total_drawn(), 3.0, 1e-9);
}

TEST(Allocator, RespectsTransitivityLevel) {
  // Chain 2 -> 1 -> 0 (each shares 50% forward). With level 1, node 0 can
  // only reach node 1's capacity; with level 2, also node 2's.
  AgreementSystem sys(3);
  sys.capacity = {0.0, 4.0, 100.0};
  sys.relative(1, 0) = 0.5;
  sys.relative(2, 1) = 0.5;
  sys.relative(2, 0) = 0.0;

  AllocatorOptions level1;
  level1.transitive.max_level = 1;
  Allocator a1(sys, level1);
  EXPECT_NEAR(a1.available_to(0), 2.0, 1e-12);
  EXPECT_EQ(a1.allocate(0, 10.0).status, PlanStatus::Insufficient);

  AllocatorOptions level2;
  level2.transitive.max_level = 2;
  Allocator a2(sys, level2);
  // T_20 = 0.5 * 0.5 = 0.25 -> 25 more units reachable.
  EXPECT_NEAR(a2.available_to(0), 2.0 + 25.0, 1e-12);
  const AllocationPlan plan = a2.allocate(0, 10.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_GT(plan.draw[2], 0.0);
}

TEST(Allocator, DrawNeverExceedsEntitlement) {
  AgreementSystem sys(3);
  sys.capacity = {1.0, 8.0, 8.0};
  sys.relative(1, 0) = 0.25;
  sys.relative(2, 0) = 0.5;
  Allocator alloc(sys);
  const AllocationPlan plan = alloc.allocate(0, 6.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_LE(plan.draw[0], 1.0 + 1e-9);
  EXPECT_LE(plan.draw[1], 8.0 * 0.25 + 1e-9);
  EXPECT_LE(plan.draw[2], 8.0 * 0.5 + 1e-9);
}

TEST(Allocator, ApplyAndReleaseRoundTrip) {
  Allocator alloc(two_node_donor());
  const AllocationPlan plan = alloc.allocate(0, 4.0);
  ASSERT_TRUE(plan.satisfied());
  alloc.apply(plan);
  EXPECT_NEAR(alloc.system().capacity[1], 6.0, 1e-9);
  EXPECT_NEAR(alloc.available_to(0), 3.0, 1e-9);
  alloc.release(plan.draw);
  EXPECT_NEAR(alloc.available_to(0), 5.0, 1e-9);
}

TEST(Allocator, SetCapacitiesRefreshesReport) {
  Allocator alloc(two_node_donor());
  alloc.set_capacities({0.0, 20.0});
  EXPECT_NEAR(alloc.available_to(0), 10.0, 1e-12);
}

AgreementSystem mutual_pair_and_bystander() {
  // 0 and 1 share half their capacity with each other; 2 stands alone.
  AgreementSystem sys(3);
  sys.capacity = {5.0, 5.0, 5.0};
  sys.relative(0, 1) = 0.5;
  sys.relative(1, 0) = 0.5;
  return sys;
}

/// A rejected mutation must leave capacities and the availability report
/// exactly as they were: equal to a fresh allocator over the same system.
void expect_untouched(const Allocator& alloc) {
  EXPECT_EQ(alloc.system().capacity, (std::vector<double>{5.0, 5.0, 5.0}));
  const Allocator fresh(alloc.system());
  EXPECT_EQ(alloc.capacities().capacity, fresh.capacities().capacity);
  const auto got = alloc.capacities().entitlement.flat();
  const auto want = fresh.capacities().entitlement.flat();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(alloc.available_to(0), 7.5);
}

TEST(Allocator, ApplyThatThrowsLeavesTheAllocatorUntouched) {
  Allocator alloc(mutual_pair_and_bystander());
  AllocationPlan plan;
  plan.status = PlanStatus::Satisfied;
  plan.draw = {1.0, 0.0, 50.0};  // principal 2 owns only 5
  EXPECT_THROW(alloc.apply(plan), PreconditionError);
  expect_untouched(alloc);
}

TEST(Allocator, ReleaseThatThrowsLeavesTheAllocatorUntouched) {
  Allocator alloc(mutual_pair_and_bystander());
  EXPECT_THROW(alloc.release({1.0, -1.0, 0.0}), PreconditionError);
  expect_untouched(alloc);
}

TEST(Allocator, ReleaseRejectsNonFiniteAmounts) {
  Allocator alloc(mutual_pair_and_bystander());
  EXPECT_THROW(alloc.release({0.0, std::numeric_limits<double>::infinity(), 0.0}),
               PreconditionError);
  EXPECT_THROW(alloc.release({0.0, std::nan(""), 0.0}), PreconditionError);
  expect_untouched(alloc);
}

// ---------------------------------------------------- closed-form denials ---

AgreementSystem two_islands() {
  // Islands {0, 1} and {2, 3}; each pair shares half both ways.
  AgreementSystem sys(4);
  sys.capacity = {4.0, 6.0, 3.0, 9.0};
  sys.relative(0, 1) = 0.5;
  sys.relative(1, 0) = 0.5;
  sys.relative(2, 3) = 0.5;
  sys.relative(3, 2) = 0.5;
  return sys;
}

TEST(ClosedFormDenial, OverCapacityConsultIsCertifiedWithoutAnLp) {
  obs::MetricsRegistry reg;
  AllocatorOptions opts;
  opts.sink = obs::Sink{&reg, nullptr};
  Allocator alloc(two_islands(), opts);
  ASSERT_TRUE(alloc.allocate(1, 1.0).satisfied());
  const std::uint64_t solves = alloc.solver_stats()->solves;
  // Twice round both islands: the second pass repatches each component's
  // Verifier instead of rebuilding its standard form.
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t a = 0; a < 4; ++a) {
      const AllocationPlan denied = alloc.allocate(a, 2.0 * alloc.available_to(a) + 1.0);
      EXPECT_EQ(denied.status, PlanStatus::Insufficient) << "principal " << a;
      EXPECT_TRUE(denied.certified) << "principal " << a;
      EXPECT_EQ(denied.lp_iterations, 0u) << "principal " << a;
    }
  EXPECT_EQ(alloc.solver_stats()->solves, solves);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(reg.counter("alloc.plans.closed_form_denials").value(), 8u);
    EXPECT_EQ(reg.counter("alloc.plans.insufficient").value(), 8u);
  }
}

TEST(ClosedFormDenial, AmountsAtOrJustAboveCapacityGoToTheLp) {
  obs::MetricsRegistry reg;
  AllocatorOptions opts;
  opts.sink = obs::Sink{&reg, nullptr};
  Allocator alloc(two_islands(), opts);
  const double cap = alloc.available_to(0);
  const double band = opts.solve.tols.farkas * (1.0 + cap);
  std::uint64_t solves = alloc.solver_stats()->solves;
  for (const double amount : {cap, cap + 0.25 * band, cap + 0.9 * band}) {
    (void)alloc.allocate(0, amount);
    EXPECT_EQ(alloc.solver_stats()->solves, ++solves) << "amount " << amount;
  }
  EXPECT_TRUE(alloc.allocate(0, cap).satisfied());
  ++solves;
  // Past the band the same consult needs no LP.
  const AllocationPlan denied = alloc.allocate(0, cap + 2.0 * band);
  EXPECT_EQ(denied.status, PlanStatus::Insufficient);
  EXPECT_TRUE(denied.certified);
  EXPECT_EQ(denied.lp_iterations, 0u);
  EXPECT_EQ(alloc.solver_stats()->solves, solves);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(reg.counter("alloc.plans.closed_form_denials").value(), 1u);
  }
}

TEST(ClosedFormDenial, ExactModeAndFullPaperKeepTheLp) {
  AllocatorOptions exact;
  exact.equality = EqualityMode::Exact;
  AllocatorOptions full;
  full.formulation = Formulation::FullPaper;
  for (const AllocatorOptions& opts : {exact, full}) {
    Allocator alloc(two_islands(), opts);
    const AllocationPlan denied = alloc.allocate(0, 2.0 * alloc.available_to(0));
    EXPECT_EQ(denied.status, PlanStatus::Insufficient);
    EXPECT_EQ(alloc.solver_stats()->solves, 1u);
  }
}

TEST(ClosedFormDenial, ColdConsultsAreDeniedWithoutAnLpToo) {
  // reuse_context off (the GRM's cold solves) patches the same component
  // model, so it takes the same Farkas-certified denial.
  AllocatorOptions opts;
  opts.reuse_context = false;
  opts.sink = obs::Sink::none();
  Allocator alloc(two_islands(), opts);
  for (std::size_t a = 0; a < 4; ++a) {
    const AllocationPlan denied = alloc.allocate(a, 2.0 * alloc.available_to(a) + 1.0);
    EXPECT_EQ(denied.status, PlanStatus::Insufficient) << "principal " << a;
    EXPECT_TRUE(denied.certified) << "principal " << a;
    EXPECT_EQ(denied.lp_iterations, 0u) << "principal " << a;
  }
  EXPECT_EQ(alloc.solver_stats()->solves, 0u);
}

TEST(Allocator, ExactModeFeasibleWithFullShares) {
  // With 100% shares the paper's constraint (3) is satisfiable exactly.
  AgreementSystem sys(2);
  sys.capacity = {0.0, 10.0};
  sys.relative(1, 0) = 1.0;
  AllocatorOptions opts;
  opts.equality = EqualityMode::Exact;
  Allocator alloc(sys, opts);
  const AllocationPlan plan = alloc.allocate(0, 4.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_FALSE(plan.exact_mode_fell_back);
  const double before = alloc.available_to(0);
  alloc.apply(plan);
  EXPECT_NEAR(alloc.available_to(0), before - 4.0, 1e-7);
}

TEST(Allocator, ExactModeFallsBackWithPartialShares) {
  // Drawing over a 50% agreement cannot drop C_A by the full request, so
  // the verbatim constraint set is infeasible; the allocator must fall
  // back to the relaxed model and flag it.
  AllocatorOptions opts;
  opts.equality = EqualityMode::Exact;
  Allocator alloc(two_node_donor(), opts);
  const AllocationPlan plan = alloc.allocate(0, 4.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_TRUE(plan.exact_mode_fell_back);
}

// ------------------------------------------- compact vs full formulation ---

struct FormulationCase {
  std::uint64_t seed;
  std::size_t n;
};

class FormulationAgreement : public ::testing::TestWithParam<FormulationCase> {};

TEST_P(FormulationAgreement, CompactMatchesFullPaper) {
  Pcg32 rng(GetParam().seed);
  const std::size_t n = GetParam().n;
  AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.capacity[i] = rng.uniform(0.0, 20.0);
    double budget = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double s = rng.next_double() < 0.5 ? 0.0 : rng.uniform(0.0, budget * 0.5);
      sys.relative(i, j) = s;
      budget -= s;
    }
  }
  const std::size_t requester = rng.uniform_u32(static_cast<std::uint32_t>(n));

  AllocatorOptions compact;
  compact.formulation = Formulation::Compact;
  AllocatorOptions full;
  full.formulation = Formulation::FullPaper;
  Allocator ac(sys, compact);
  Allocator af(sys, full);

  const double avail = ac.available_to(requester);
  const double x = avail * 0.6;
  const AllocationPlan pc = ac.allocate(requester, x);
  const AllocationPlan pf = af.allocate(requester, x);
  ASSERT_TRUE(pc.satisfied());
  ASSERT_TRUE(pf.satisfied());
  // Optimal draws may differ (degenerate optima) but theta must agree and
  // both plans must move the full amount within entitlements.
  EXPECT_NEAR(pc.theta, pf.theta, 1e-6);
  EXPECT_NEAR(pc.total_drawn(), x, 1e-6);
  EXPECT_NEAR(pf.total_drawn(), x, 1e-6);
  for (std::size_t k = 0; k < n; ++k) {
    const double cap =
        k == requester ? sys.capacity[k] : ac.capacities().entitlement(k, requester);
    EXPECT_LE(pc.draw[k], cap + 1e-6);
    EXPECT_LE(pf.draw[k], cap + 1e-6);
  }
}

std::vector<FormulationCase> formulation_cases() {
  std::vector<FormulationCase> cases;
  std::uint64_t seed = 400;
  for (std::size_t n : {2u, 3u, 5u, 8u})
    for (int rep = 0; rep < 5; ++rep) cases.push_back({seed++, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FormulationAgreement, ::testing::ValuesIn(formulation_cases()),
                         [](const ::testing::TestParamInfo<FormulationCase>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_n" +
                                  std::to_string(info.param.n);
                         });

// ---------------------------------------------------------------- endpoint ---

TEST(Endpoint, ProportionalSplit) {
  AgreementSystem sys(3);
  sys.capacity = {0.0, 100.0, 100.0};
  sys.relative(1, 0) = 0.2;
  sys.relative(2, 0) = 0.1;
  const AllocationPlan plan = endpoint_allocate(sys, 0, 3.0);
  ASSERT_TRUE(plan.satisfied());
  // Split 2:1 by share weights.
  EXPECT_NEAR(plan.draw[1], 2.0, 1e-9);
  EXPECT_NEAR(plan.draw[2], 1.0, 1e-9);
}

TEST(Endpoint, CapsAtDirectEntitlementAndRefills) {
  AgreementSystem sys(3);
  sys.capacity = {0.0, 5.0, 100.0};
  sys.relative(1, 0) = 0.2;  // cap 1.0
  sys.relative(2, 0) = 0.1;  // cap 10.0
  const AllocationPlan plan = endpoint_allocate(sys, 0, 6.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.draw[1], 1.0, 1e-9);   // hits its cap
  EXPECT_NEAR(plan.draw[2], 5.0, 1e-9);   // refilled with the remainder
  EXPECT_NEAR(plan.total_drawn(), 6.0, 1e-9);
}

TEST(Endpoint, OverflowStaysLocal) {
  AgreementSystem sys(2);
  sys.capacity = {0.0, 5.0};
  sys.relative(1, 0) = 0.2;  // cap 1.0
  const AllocationPlan plan = endpoint_allocate(sys, 0, 4.0);
  EXPECT_NEAR(plan.draw[1], 1.0, 1e-9);
  EXPECT_NEAR(plan.draw[0], 3.0, 1e-9);  // stays in the local queue
}

TEST(Endpoint, IgnoresTransitiveAgreements) {
  // 2 -> 1 -> 0 chain: endpoint enforcement sees no direct 2->0 agreement,
  // so node 2 contributes nothing (the LP scheme would use it).
  AgreementSystem sys(3);
  sys.capacity = {0.0, 2.0, 100.0};
  sys.relative(1, 0) = 0.5;
  sys.relative(2, 1) = 0.9;
  const AllocationPlan ep = endpoint_allocate(sys, 0, 5.0);
  EXPECT_NEAR(ep.draw[2], 0.0, 1e-12);
  Allocator lp_alloc(sys);
  const AllocationPlan lp = lp_alloc.allocate(0, 5.0);
  ASSERT_TRUE(lp.satisfied());
  EXPECT_GT(lp.draw[2], 0.0);
}

// ----------------------------------------------------------- multi-resource ---

TEST(MultiResource, IndependentLpsPerResource) {
  AgreementSystem cpu(2), disk(2);
  cpu.capacity = {0.0, 10.0};
  cpu.relative(1, 0) = 0.5;
  disk.capacity = {0.0, 100.0};
  disk.relative(1, 0) = 0.1;
  MultiResourceAllocator mra({cpu, disk}, {"cpu", "disk"});
  MultiRequest req;
  req.principal = 0;
  req.amounts = {4.0, 8.0};
  const MultiPlan plan = mra.allocate(req);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.per_resource[0].draw[1], 4.0, 1e-9);
  EXPECT_NEAR(plan.per_resource[1].draw[1], 8.0, 1e-9);
}

TEST(MultiResource, AllOrNothing) {
  AgreementSystem cpu(2), disk(2);
  cpu.capacity = {0.0, 10.0};
  cpu.relative(1, 0) = 0.5;
  disk.capacity = {0.0, 1.0};
  disk.relative(1, 0) = 0.5;
  MultiResourceAllocator mra({cpu, disk}, {"cpu", "disk"});
  MultiRequest req;
  req.principal = 0;
  req.amounts = {4.0, 4.0};  // disk cannot cover this
  const MultiPlan plan = mra.allocate(req);
  EXPECT_FALSE(plan.satisfied());
  EXPECT_TRUE(plan.per_resource[0].satisfied());
  EXPECT_EQ(plan.per_resource[1].status, PlanStatus::Insufficient);
  EXPECT_THROW(mra.apply(plan), PreconditionError);

  // Resource 0 within capacity, resource 1 over it: the whole plan is
  // refused before either allocator's capacities move.
  MultiPlan over;
  over.per_resource.resize(2);
  for (AllocationPlan& p : over.per_resource) p.status = PlanStatus::Satisfied;
  over.per_resource[0].draw = {0.0, 1.0};
  over.per_resource[1].draw = {0.0, 5.0};
  EXPECT_THROW(mra.apply(over), PreconditionError);
  EXPECT_EQ(mra.allocator(0).system().capacity, (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(mra.allocator(1).system().capacity, (std::vector<double>{0.0, 1.0}));
}

TEST(MultiResource, ApplyCommitsAllComponents) {
  AgreementSystem cpu(2), disk(2);
  cpu.capacity = {0.0, 10.0};
  cpu.relative(1, 0) = 0.5;
  disk.capacity = {0.0, 20.0};
  disk.relative(1, 0) = 0.5;
  MultiResourceAllocator mra({cpu, disk}, {"cpu", "disk"});
  MultiRequest req;
  req.principal = 0;
  req.amounts = {2.0, 6.0};
  const MultiPlan plan = mra.allocate(req);
  ASSERT_TRUE(plan.satisfied());
  mra.apply(plan);
  EXPECT_NEAR(mra.allocator(0).system().capacity[1], 8.0, 1e-9);
  EXPECT_NEAR(mra.allocator(1).system().capacity[1], 14.0, 1e-9);
}

TEST(MultiResource, BundleBindsScarcestComponent) {
  // One bundle unit = 1 cpu + 2 disk. Node 1 owns 10 cpu, 8 disk -> 4
  // bundle units; shares 50% cpu and 25% disk -> bundle share 25%.
  AgreementSystem cpu(2), disk(2);
  cpu.capacity = {0.0, 10.0};
  cpu.relative(1, 0) = 0.5;
  disk.capacity = {0.0, 8.0};
  disk.relative(1, 0) = 0.25;
  const AgreementSystem bundle = make_bundle({cpu, disk}, {1.0, 2.0});
  EXPECT_NEAR(bundle.capacity[1], 4.0, 1e-12);
  EXPECT_NEAR(bundle.relative(1, 0), 0.25, 1e-12);
  Allocator alloc(bundle);
  EXPECT_NEAR(alloc.available_to(0), 1.0, 1e-12);
}

TEST(MultiResource, BundleRejectsBadInput) {
  AgreementSystem cpu(2), disk(3);
  EXPECT_THROW(make_bundle({cpu, disk}, {1.0, 1.0}), PreconditionError);
  EXPECT_THROW(make_bundle({cpu}, {0.0}), PreconditionError);
}

// ------------------------------------------------------------ hierarchical ---

TEST(Hierarchical, IntraGroupFastPath) {
  // Two groups of two; requester's own group suffices.
  AgreementSystem sys(4);
  sys.capacity = {0.0, 10.0, 10.0, 10.0};
  sys.relative(1, 0) = 0.5;                      // same group as 0
  sys.relative(2, 0) = 0.5;
  sys.relative(3, 0) = 0.5;
  HierarchicalAllocator h(sys, {0, 0, 1, 1});
  const AllocationPlan plan = h.allocate(0, 3.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.draw[1], 3.0, 1e-9);
  EXPECT_NEAR(plan.draw[2] + plan.draw[3], 0.0, 1e-9);
}

TEST(Hierarchical, EscalatesToCoarseLevel) {
  AgreementSystem sys(4);
  sys.capacity = {0.0, 2.0, 10.0, 10.0};
  sys.relative(1, 0) = 0.5;
  sys.relative(2, 0) = 0.5;
  sys.relative(3, 0) = 0.5;
  HierarchicalAllocator h(sys, {0, 0, 1, 1});
  const AllocationPlan plan = h.allocate(0, 6.0);  // own group offers only 1
  ASSERT_TRUE(plan.satisfied());
  EXPECT_NEAR(plan.total_drawn(), 6.0, 1e-7);
  EXPECT_GT(plan.draw[2] + plan.draw[3], 0.0);
  // Entitlement bounds hold.
  for (std::size_t k = 1; k < 4; ++k) EXPECT_LE(plan.draw[k], sys.capacity[k] * 0.5 + 1e-7);
}

TEST(Hierarchical, MatchesFlatTotals) {
  Pcg32 rng(777);
  AgreementSystem sys(6);
  for (std::size_t i = 0; i < 6; ++i) {
    sys.capacity[i] = rng.uniform(5.0, 15.0);
    for (std::size_t j = 0; j < 6; ++j)
      if (i != j) sys.relative(i, j) = 0.12;
  }
  HierarchicalAllocator h(sys, {0, 0, 0, 1, 1, 1});
  Allocator flat(sys);
  const double x = 10.0;
  const AllocationPlan hp = h.allocate(0, x);
  const AllocationPlan fp = flat.allocate(0, x);
  ASSERT_TRUE(hp.satisfied());
  ASSERT_TRUE(fp.satisfied());
  EXPECT_NEAR(hp.total_drawn(), fp.total_drawn(), 1e-6);
  // Hierarchical theta can only be >= the flat optimum.
  EXPECT_GE(hp.theta + 1e-7, fp.theta);
}

TEST(Hierarchical, ApplySubtractsCapacity) {
  AgreementSystem sys(4);
  sys.capacity = {0.0, 10.0, 10.0, 10.0};
  sys.relative(1, 0) = 0.5;
  sys.relative(2, 0) = 0.5;
  sys.relative(3, 0) = 0.5;
  HierarchicalAllocator h(sys, {0, 0, 1, 1});
  const AllocationPlan plan = h.allocate(0, 3.0);
  ASSERT_TRUE(plan.satisfied());
  h.apply(plan);
  EXPECT_NEAR(h.system().capacity[1], 7.0, 1e-9);
}

TEST(Hierarchical, RejectsBadGroupAssignment) {
  AgreementSystem sys(3);
  EXPECT_THROW(HierarchicalAllocator(sys, {0, 0}), PreconditionError);
  EXPECT_THROW(HierarchicalAllocator(sys, {0, 0, 2}), PreconditionError);  // empty group 1
}

}  // namespace
}  // namespace agora::alloc
