// Unit tests for the agreement algebra: matrices, transitive flows,
// capacities, topology builders and the economy bridge.
#include <gtest/gtest.h>

#include <cmath>

#include "agree/capacity.h"
#include "agree/from_economy.h"
#include "agree/matrices.h"
#include "agree/topology.h"
#include "agree/transitive.h"
#include "core/economy.h"
#include "util/error.h"

namespace agora::agree {
namespace {

// -------------------------------------------------------- AgreementSystem ---

TEST(AgreementSystem, ValidateAcceptsWellFormed) {
  AgreementSystem s(3);
  s.capacity = {1, 2, 3};
  s.relative(0, 1) = 0.3;
  s.relative(0, 2) = 0.2;
  EXPECT_NO_THROW(s.validate());
  EXPECT_NEAR(s.share_out(0), 0.5, 1e-12);
}

TEST(AgreementSystem, ValidateRejectsDiagonal) {
  AgreementSystem s(2);
  s.relative(0, 0) = 0.1;
  EXPECT_THROW(s.validate(), PreconditionError);
}

TEST(AgreementSystem, ValidateRejectsOverdraftUnlessAllowed) {
  AgreementSystem s(3);
  s.relative(0, 1) = 0.6;
  s.relative(0, 2) = 0.6;
  EXPECT_THROW(s.validate(false), PreconditionError);
  EXPECT_NO_THROW(s.validate(true));
}

TEST(AgreementSystem, ValidateRejectsNegativeCapacity) {
  AgreementSystem s(1);
  s.capacity[0] = -1.0;
  EXPECT_THROW(s.validate(), PreconditionError);
}

TEST(ConnectedComponents, LinksInEitherDirectionThroughSOrA) {
  AgreementSystem sys(7);
  sys.relative(3, 0) = 0.1;  // S link, against index order
  sys.absolute(1, 5) = 2.0;  // A-only link
  sys.relative(5, 6) = 0.3;  // chains 1-5-6
  // 2 and 4 stay isolated.
  const std::vector<std::vector<std::size_t>> want{{0, 3}, {1, 5, 6}, {2}, {4}};
  EXPECT_EQ(connected_components(sys), want);
}

TEST(ConnectedComponents, EmptyAndAgreementFreeSystems) {
  EXPECT_TRUE(connected_components(AgreementSystem(0)).empty());
  const std::vector<std::vector<std::size_t>> want{{0}, {1}, {2}};
  EXPECT_EQ(connected_components(AgreementSystem(3)), want);
}

// ------------------------------------------------------------- transitive ---

TEST(Transitive, DirectLevelEqualsS) {
  Matrix s{{0, 0.5, 0.1}, {0, 0, 0.4}, {0, 0, 0}};
  TransitiveOptions o;
  o.max_level = 1;
  const Matrix t = transitive_shares(s, o);
  EXPECT_TRUE(t.approx_equal(s, 1e-12));
}

TEST(Transitive, ChainOfTwo) {
  Matrix s{{0, 0.5, 0.1}, {0, 0, 0.4}, {0, 0, 0}};
  const Matrix t = transitive_shares(s);  // full closure
  EXPECT_NEAR(t(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(t(0, 2), 0.1 + 0.5 * 0.4, 1e-12);  // direct + via node 1
  EXPECT_NEAR(t(1, 2), 0.4, 1e-12);
  EXPECT_NEAR(t(2, 0), 0.0, 1e-12);
}

TEST(Transitive, LevelZeroMeansNoSharing) {
  Matrix s{{0, 1}, {1, 0}};
  TransitiveOptions o;
  o.max_level = 0;
  EXPECT_DOUBLE_EQ(transitive_shares(s, o).max_abs(), 0.0);
}

TEST(Transitive, MonotoneInLevel) {
  const Matrix s = complete_graph(6, 0.15);
  double prev = -1.0;
  for (std::size_t level = 1; level <= 5; ++level) {
    TransitiveOptions o;
    o.max_level = level;
    const Matrix t = transitive_shares(s, o);
    double total = 0.0;
    for (double v : t.flat()) total += v;
    EXPECT_GE(total, prev - 1e-12) << "level " << level;
    prev = total;
  }
}

TEST(Transitive, CyclesAreExcluded) {
  // Two nodes backing each other: simple paths are only the single edges;
  // no geometric blow-up (contrast with walks below).
  Matrix s{{0, 0.5}, {0.5, 0}};
  const Matrix t = transitive_shares(s);
  EXPECT_NEAR(t(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(t(1, 0), 0.5, 1e-12);
}

TEST(Transitive, WalksUpperBoundExact) {
  const Matrix s = complete_graph(5, 0.2);
  const Matrix exact = transitive_shares(s);
  const Matrix walks = transitive_shares_walks(s, 4);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_GE(walks(i, j) + 1e-12, exact(i, j));
}

TEST(Transitive, WalksEqualExactOnDags) {
  // On a DAG (no revisits possible) walks and simple paths coincide.
  Matrix s(4, 4);
  s(0, 1) = 0.5;
  s(0, 2) = 0.25;
  s(1, 2) = 0.3;
  s(2, 3) = 0.6;
  EXPECT_TRUE(transitive_shares_walks(s, 3).approx_equal(transitive_shares(s), 1e-12));
}

TEST(Transitive, PruningUnderestimatesSlightly) {
  const Matrix s = complete_graph(8, 0.12);
  const Matrix exact = transitive_shares(s);
  TransitiveOptions pruned;
  pruned.prune_below = 1e-4;
  const Matrix approx = transitive_shares(s, pruned);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_LE(approx(i, j), exact(i, j) + 1e-12);
      // Pruned mass: all simple paths of length >= 5 (product < 1e-4 at
      // share 0.12), roughly 360*0.12^5 + 720*0.12^6 + 720*0.12^7 ~ 0.011.
      EXPECT_NEAR(approx(i, j), exact(i, j), 0.02);
    }
  }
}

TEST(Transitive, PathBudgetGuardsDenseGraphs) {
  // A complete graph on 16 nodes has ~10^12 simple paths: without the
  // budget the exact DFS would run for hours. The guard throws with
  // actionable advice; pruning makes the same call tractable.
  const Matrix s = complete_graph(16, 0.05);
  TransitiveOptions tight;
  tight.max_paths = 1000000;
  EXPECT_THROW(transitive_shares(s, tight), PreconditionError);
  TransitiveOptions pruned = tight;
  pruned.prune_below = 1e-6;
  EXPECT_NO_THROW(transitive_shares(s, pruned));
  // Level caps also bound the enumeration.
  TransitiveOptions shallow = tight;
  shallow.max_level = 2;
  EXPECT_NO_THROW(transitive_shares(s, shallow));
}

TEST(Transitive, OverdraftClampCapsAtOne) {
  Matrix t{{0, 1.7}, {0.3, 0}};
  const Matrix k = overdraft_clamp(t);
  EXPECT_DOUBLE_EQ(k(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(k(1, 0), 0.3);
}

// -------------------------------------------------------------- capacity ---

TEST(Capacity, HandComputedThreeNodes) {
  AgreementSystem sys(3);
  sys.capacity = {10, 20, 30};
  sys.relative(0, 1) = 0.5;
  sys.relative(1, 2) = 0.4;
  sys.relative(0, 2) = 0.1;
  const CapacityReport rep = compute_capacities(sys);
  EXPECT_NEAR(rep.capacity[0], 10.0, 1e-12);
  EXPECT_NEAR(rep.capacity[1], 20.0 + 10.0 * 0.5, 1e-12);
  // T_02 = 0.1 + 0.5*0.4 = 0.3; C_2 = 30 + 10*0.3 + 20*0.4 = 41.
  EXPECT_NEAR(rep.capacity[2], 41.0, 1e-12);
  EXPECT_NEAR(rep.entitlement(0, 2), 3.0, 1e-12);
  EXPECT_NEAR(rep.entitlement(1, 2), 8.0, 1e-12);
}

TEST(Capacity, PaperOverdraftExample) {
  // Section 3.2: A has 10 units, shares 60% with B and 60% with C; B shares
  // 100% with C. Without the clamp C would see 6 + 6 = 12 units from A;
  // with K the flow from A is capped at 10.
  AgreementSystem sys(3);
  sys.capacity = {10, 0, 0};
  sys.relative(0, 1) = 0.6;  // A -> B
  sys.relative(0, 2) = 0.6;  // A -> C
  sys.relative(1, 2) = 1.0;  // B -> C
  const CapacityReport rep = compute_capacities(sys);
  // T_ac = 0.6 + 0.6*1.0 = 1.2 -> K = 1.0 -> U = 10 (not 12).
  EXPECT_NEAR(rep.capacity[2], 10.0, 1e-12);
}

TEST(Capacity, AbsoluteAgreementsClampedByOwnership) {
  // U_ki = min(I + A, V_k): an absolute promise larger than the owner's
  // capacity cannot materialize more than V_k.
  AgreementSystem sys(2);
  sys.capacity = {5, 0};
  sys.absolute(0, 1) = 8.0;
  const CapacityReport rep = compute_capacities(sys);
  EXPECT_NEAR(rep.capacity[1], 5.0, 1e-12);
}

TEST(Capacity, AbsolutePlusRelativeCombine) {
  AgreementSystem sys(2);
  sys.capacity = {10, 0};
  sys.relative(0, 1) = 0.3;
  sys.absolute(0, 1) = 2.0;
  const CapacityReport rep = compute_capacities(sys);
  EXPECT_NEAR(rep.capacity[1], 5.0, 1e-12);  // 10*0.3 + 2
}

TEST(Capacity, GrantingReducesOwnUse) {
  AgreementSystem sys(2);
  sys.capacity = {10, 0};
  sys.relative(0, 1) = 0.4;
  sys.retained[0] = 0.6;  // the 40% was *granted*, not shared
  const CapacityReport rep = compute_capacities(sys);
  EXPECT_NEAR(rep.capacity[0], 6.0, 1e-12);
  EXPECT_NEAR(rep.capacity[1], 4.0, 1e-12);
}

TEST(Capacity, LevelSweepMatchesPaperIntuition) {
  // Loop of 4, share 0.8: level 1 gives only the neighbor's 80%; the full
  // closure adds 0.64, 0.512 from further nodes.
  AgreementSystem sys(4);
  sys.capacity = {0, 10, 10, 10};
  sys.relative = ring(4, 0.8);
  TransitiveOptions level1;
  level1.max_level = 1;
  // Node 3 -> node 0 via the ring edge 3->0.
  const CapacityReport l1 = compute_capacities(sys, level1);
  EXPECT_NEAR(l1.capacity[0], 8.0, 1e-12);
  const CapacityReport full = compute_capacities(sys);
  EXPECT_NEAR(full.capacity[0], 10 * 0.8 + 10 * 0.64 + 10 * 0.512, 1e-12);
}

// -------------------------------------------------------------- topology ---

TEST(Topology, CompleteGraphShape) {
  const Matrix s = complete_graph(10, 0.1);
  for (std::size_t i = 0; i < 10; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 10; ++j) {
      if (i == j) EXPECT_DOUBLE_EQ(s(i, j), 0.0);
      else EXPECT_DOUBLE_EQ(s(i, j), 0.1);
      row += s(i, j);
    }
    EXPECT_NEAR(row, 0.9, 1e-12);
  }
}

TEST(Topology, CompleteGraphRejectsOversharing) {
  EXPECT_THROW(complete_graph(10, 0.2), PreconditionError);
}

TEST(Topology, RingSkip) {
  const Matrix s = ring(10, 0.8, 3);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j)
      EXPECT_DOUBLE_EQ(s(i, j), j == (i + 3) % 10 ? 0.8 : 0.0);
}

TEST(Topology, DistanceDecayMatchesFigure13Shape) {
  // 20%/10%/5%/3% at ring distances 1/2/3/>=4 over 10 nodes.
  const Matrix s = distance_decay(10, {0.20, 0.10, 0.05, 0.03});
  EXPECT_DOUBLE_EQ(s(0, 1), 0.20);
  EXPECT_DOUBLE_EQ(s(0, 9), 0.20);  // ring distance 1 the other way
  EXPECT_DOUBLE_EQ(s(0, 2), 0.10);
  EXPECT_DOUBLE_EQ(s(0, 3), 0.05);
  EXPECT_DOUBLE_EQ(s(0, 4), 0.03);
  EXPECT_DOUBLE_EQ(s(0, 5), 0.03);
  double row = 0.0;
  for (std::size_t j = 0; j < 10; ++j) row += s(0, j);
  EXPECT_NEAR(row, 2 * (0.20 + 0.10 + 0.05 + 0.03) + 0.03, 1e-12);  // 0.79
}

TEST(Topology, SparseRandomDegree) {
  const Matrix s = sparse_random(20, 3, 0.2, 99);
  for (std::size_t i = 0; i < 20; ++i) {
    std::size_t deg = 0;
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(s(i, i), 0.0);
      if (s(i, j) > 0) ++deg;
    }
    EXPECT_EQ(deg, 3u);
  }
  // Deterministic in the seed.
  EXPECT_TRUE(s.approx_equal(sparse_random(20, 3, 0.2, 99)));
  EXPECT_FALSE(s.approx_equal(sparse_random(20, 3, 0.2, 100)));
}

TEST(Topology, HierarchicalStructure) {
  const Matrix s = hierarchical(9, 3, 0.2, 0.1);
  const auto g = hierarchical_groups(9, 3);
  // Intra-group complete.
  EXPECT_DOUBLE_EQ(s(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(s(1, 2), 0.2);
  // No direct edges between non-gateway members of different groups.
  EXPECT_DOUBLE_EQ(s(1, 4), 0.0);
  // Gateways (0, 3, 6) are ring-connected.
  EXPECT_DOUBLE_EQ(s(0, 3), 0.1);
  EXPECT_DOUBLE_EQ(s(3, 6), 0.1);
  EXPECT_DOUBLE_EQ(s(6, 0), 0.1);
  EXPECT_EQ(g[0], 0u);
  EXPECT_EQ(g[4], 1u);
  EXPECT_EQ(g[8], 2u);
}

// ------------------------------------------------------------ from_economy ---

TEST(FromEconomy, Example1Matrices) {
  core::Economy e;
  const auto disk = e.add_resource_type("disk", "TB");
  const auto a = e.add_principal("A", 1000.0);
  const auto b = e.add_principal("B", 100.0);
  e.add_principal("C");
  const auto d = e.add_principal("D");
  e.fund_with_resource(e.default_currency(a), disk, 10.0);
  e.fund_with_resource(e.default_currency(b), disk, 15.0);
  e.issue_absolute(e.default_currency(a), e.default_currency(e.find_principal("C")), disk, 3.0);
  e.issue_relative(e.default_currency(a), e.default_currency(b), 500.0, disk);
  e.issue_relative(e.default_currency(b), e.default_currency(d), 60.0, disk);

  const AgreementSystem sys = from_economy(e, disk);
  EXPECT_EQ(sys.size(), 4u);
  EXPECT_DOUBLE_EQ(sys.capacity[0], 10.0);
  EXPECT_DOUBLE_EQ(sys.capacity[1], 15.0);
  EXPECT_DOUBLE_EQ(sys.relative(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(sys.relative(1, 3), 0.6);
  EXPECT_DOUBLE_EQ(sys.absolute(0, 2), 3.0);
  // The enforcement layer then reproduces the paper's D value of 12 as
  // D's transitive availability.
  const CapacityReport rep = compute_capacities(sys);
  EXPECT_NEAR(rep.capacity[3], 12.0, 1e-12);
}

TEST(FromEconomy, Example2VirtualCurrenciesCollapse) {
  core::Economy e;
  const auto disk = e.add_resource_type("disk", "TB");
  const auto a = e.add_principal("A", 1000.0);
  const auto b = e.add_principal("B", 100.0);
  const auto c = e.add_principal("C", 100.0);
  const auto d = e.add_principal("D", 100.0);
  e.fund_with_resource(e.default_currency(a), disk, 10.0);
  e.fund_with_resource(e.default_currency(b), disk, 15.0);
  const auto a1 = e.create_virtual_currency(a, "A1", 100.0);
  const auto a2 = e.create_virtual_currency(a, "A2", 100.0);
  e.issue_relative(e.default_currency(a), a1, 300.0, disk);
  e.issue_relative(e.default_currency(a), a2, 500.0, disk);
  e.issue_relative(a1, e.default_currency(c), 100.0, disk);
  e.issue_relative(a2, e.default_currency(d), 40.0, disk);
  e.issue_relative(a2, e.default_currency(b), 60.0, disk);

  const AgreementSystem sys = from_economy(e, disk);
  // Chains through A's own virtual currencies fold into principal shares:
  // A->A1->C = 0.3, A->A2->D = 0.5*0.4 = 0.2, A->A2->B = 0.5*0.6 = 0.3.
  EXPECT_NEAR(sys.relative(0, 2), 0.3, 1e-12);
  EXPECT_NEAR(sys.relative(0, 3), 0.2, 1e-12);
  EXPECT_NEAR(sys.relative(0, 1), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(sys.relative(1, 0), 0.0);
}

TEST(FromEconomy, GrantingSetsRetained) {
  core::Economy e;
  const auto cpu = e.add_resource_type("cpu");
  const auto a = e.add_principal("A", 100.0);
  const auto b = e.add_principal("B");
  e.fund_with_resource(e.default_currency(a), cpu, 10.0);
  e.issue_relative(e.default_currency(a), e.default_currency(b), 40.0, cpu,
                   core::SharingMode::Granting);
  const AgreementSystem sys = from_economy(e, cpu);
  EXPECT_NEAR(sys.retained[0], 0.6, 1e-12);
  EXPECT_NEAR(sys.relative(0, 1), 0.4, 1e-12);
  const CapacityReport rep = compute_capacities(sys);
  EXPECT_NEAR(rep.capacity[0], 6.0, 1e-12);
  EXPECT_NEAR(rep.capacity[1], 4.0, 1e-12);
}

TEST(FromEconomy, ResourceFilteringByType) {
  core::Economy e;
  const auto cpu = e.add_resource_type("cpu");
  const auto disk = e.add_resource_type("disk");
  const auto a = e.add_principal("A", 100.0);
  const auto b = e.add_principal("B");
  e.fund_with_resource(e.default_currency(a), cpu, 10.0);
  e.fund_with_resource(e.default_currency(a), disk, 20.0);
  e.issue_relative(e.default_currency(a), e.default_currency(b), 50.0, cpu);

  const AgreementSystem cpu_sys = from_economy(e, cpu);
  const AgreementSystem disk_sys = from_economy(e, disk);
  EXPECT_DOUBLE_EQ(cpu_sys.capacity[0], 10.0);
  EXPECT_DOUBLE_EQ(cpu_sys.relative(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(disk_sys.capacity[0], 20.0);
  EXPECT_DOUBLE_EQ(disk_sys.relative(0, 1), 0.0);  // cpu-typed ticket filtered
}

}  // namespace
}  // namespace agora::agree
