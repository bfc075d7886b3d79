// lp_warmstart_test.cpp -- property tests for the warm-started, workspace-
// reusing revised simplex path (and the allocator model cache built on it).
//
// Invariant under test: passing a SolveWorkspace to the revised backend --
// and, one layer up, AllocatorOptions::reuse_context -- must never change
// WHAT is computed, only how fast. Over fuzzed sequences of bound/rhs
// perturbations of a fixed-structure LP, the warm-started solve must agree
// with the cold revised solve and (on tiny instances) brute-force vertex
// enumeration -- same status, same objective, same duals within 1e-7 -- and
// both must certify under lp::Verifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/model_builder.h"
#include "lp/solve.h"
#include "util/rng.h"

namespace agora::lp {
namespace {

constexpr double kTol = 1e-7;

/// Thin shim over lp::solve so the fuzz loops below read like the solver
/// calls they compare: the warm path against the cold path.
struct RevisedRunner {
  SolveResult solve(const Problem& p, SolveWorkspace* ws = nullptr) const {
    return lp::solve(p, SolveOptions{}, ws);
  }
};

/// The allocation-LP shape used by the amortized path: n draws in
/// [0, u_k], theta; sum d == amount; per-row drop - theta <= 0.
struct CompactFixture {
  Problem problem;
  std::size_t n = 0;

  static CompactFixture make(std::size_t n, Pcg32& rng) {
    CompactFixture f;
    f.n = n;
    ModelBuilder mb(Sense::Minimize);
    std::vector<Var> d = mb.add_vars(n, 0.0, 1.0);
    const Var theta = mb.add_var(0.0);
    mb.add(sum(d) == 1.0, "demand");
    for (std::size_t i = 0; i < n; ++i) {
      LinExpr drop;
      for (std::size_t k = 0; k < n; ++k) {
        const double c = k == i ? rng.uniform(0.5, 1.0) : rng.uniform(0.0, 0.4);
        if (c > 0.02) drop += c * d[k];
      }
      mb.add(drop - 1.0 * theta <= 0.0, "perturb");
    }
    mb.minimize(LinExpr(theta));
    f.problem = std::move(mb.problem());
    return f;
  }

  /// Random bound/rhs perturbation -- the only mutation the warm-start
  /// contract allows between shared-workspace solves.
  void perturb(Pcg32& rng) {
    for (std::size_t k = 0; k < n; ++k) problem.set_bounds(k, 0.0, rng.uniform(0.0, 2.0));
    problem.set_rhs(0, rng.uniform(0.0, 1.5));
  }
};

void expect_same_result(const SolveResult& want, const SolveResult& got, const char* tag) {
  ASSERT_EQ(want.status, got.status) << tag;
  if (want.status != Status::Optimal) return;
  EXPECT_NEAR(want.objective, got.objective, kTol) << tag;
  ASSERT_EQ(want.duals.size(), got.duals.size()) << tag;
  for (std::size_t i = 0; i < want.duals.size(); ++i)
    EXPECT_NEAR(want.duals[i], got.duals[i], kTol) << tag << " dual " << i;
}

TEST(LpWarmstart, NullWorkspaceIsTheColdSolve) {
  Pcg32 rng(11);
  CompactFixture f = CompactFixture::make(6, rng);
  RevisedRunner solver;
  const SolveResult a = solver.solve(f.problem);
  const SolveResult b = solver.solve(f.problem, nullptr);
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.status, Status::Optimal);
  EXPECT_EQ(a.objective, b.objective);  // bit-identical, not just close
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.duals, b.duals);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(LpWarmstart, FuzzedPerturbationsMatchColdRevisedAndBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Pcg32 rng(seed * 977);
    const std::size_t n = 2 + seed % 3;  // tiny: brute force stays cheap
    CompactFixture f = CompactFixture::make(n, rng);
    RevisedRunner revised;
    SolveWorkspace ws;
    for (int step = 0; step < 40; ++step) {
      f.perturb(rng);
      const SolveResult cold = revised.solve(f.problem);
      const SolveResult warm = revised.solve(f.problem, &ws);
      const SolveResult brute = brute_force_solve(f.problem);
      expect_same_result(cold, warm, "warm vs cold");
      EXPECT_TRUE(Verifier().certify(f.problem, cold).certified) << "cold, step " << step;
      EXPECT_TRUE(Verifier().certify(f.problem, warm).certified) << "warm, step " << step;
      ASSERT_EQ(cold.status, brute.status) << "brute vs cold";
      if (cold.status == Status::Optimal) {
        EXPECT_NEAR(cold.objective, brute.objective, kTol) << "brute objective";
      }
    }
  }
}

TEST(LpWarmstart, LargerFuzzedSequencesStayWarmAndCorrect) {
  Pcg32 rng(31337);
  CompactFixture f = CompactFixture::make(12, rng);
  RevisedRunner revised;
  SolveWorkspace ws;
  std::uint64_t cold_iters = 0, warm_iters = 0;
  for (int step = 0; step < 120; ++step) {
    f.perturb(rng);
    const SolveResult cold = revised.solve(f.problem);
    const SolveResult warm = revised.solve(f.problem, &ws);
    expect_same_result(cold, warm, "warm vs cold");
    cold_iters += cold.iterations;
    warm_iters += warm.iterations;
  }
  // Not merely correct: the workspace must actually be warm. Perturbed
  // re-solves of the same structure should pivot far less than from-scratch
  // two-phase solves.
  EXPECT_LT(warm_iters * 2, cold_iters);
}

TEST(LpWarmstart, StructureChangeFallsBackToColdStart) {
  Pcg32 rng(7);
  CompactFixture small = CompactFixture::make(4, rng);
  CompactFixture big = CompactFixture::make(9, rng);
  RevisedRunner revised;
  SolveWorkspace ws;
  // Alternate between two different matrices through ONE workspace: the
  // fingerprint check must demote every switch to a cold start and still
  // produce the cold answers.
  for (int step = 0; step < 10; ++step) {
    CompactFixture& f = step % 2 ? big : small;
    f.perturb(rng);
    const SolveResult cold = revised.solve(f.problem);
    const SolveResult warm = revised.solve(f.problem, &ws);
    expect_same_result(cold, warm, "warm vs cold after structure change");
  }
}

TEST(LpWarmstart, InfeasibleAndUnboundedPerturbationsAreDetected) {
  Pcg32 rng(99);
  CompactFixture f = CompactFixture::make(5, rng);
  RevisedRunner revised;
  SolveWorkspace ws;
  f.perturb(rng);
  ASSERT_EQ(revised.solve(f.problem, &ws).status, Status::Optimal);
  ASSERT_TRUE(ws.warm);
  const std::vector<std::size_t> optimal_basis = ws.warm_basis;
  // Demand beyond the sum of the bounds: infeasible under a warm basis.
  f.problem.set_rhs(0, 1e6);
  EXPECT_EQ(revised.solve(f.problem, &ws).status, Status::Infeasible);
  EXPECT_EQ(revised.solve(f.problem).status, Status::Infeasible);
  // Only b moved, so the workspace stays warm on the last optimal basis...
  EXPECT_TRUE(ws.warm);
  EXPECT_EQ(ws.warm_basis, optimal_basis);
  // ...and recovery back to a feasible rhs starts from it: no phase 1, so
  // fewer pivots than the cold two-phase solve, and the same answer.
  f.problem.set_rhs(0, 0.25);
  const SolveResult back = revised.solve(f.problem, &ws);
  const SolveResult cold = revised.solve(f.problem);
  expect_same_result(cold, back, "recovery after infeasible");
  EXPECT_LT(back.iterations, cold.iterations);
}

}  // namespace
}  // namespace agora::lp

namespace agora::alloc {
namespace {

AllocatorOptions engine_opts(bool reuse) {
  AllocatorOptions opts;
  opts.reuse_context = reuse;
  return opts;
}

/// Lockstep fuzz at the allocator level: two allocators over the same
/// system -- cold (reuse off) and warm (reuse on) -- driven through random
/// allocate/apply/release/set_capacities sequences must produce the same
/// plan statuses and thetas, every one certified by lp::Verifier.
TEST(AllocatorWarmstart, LockstepEnginesAgreeOverRequestReleaseSequences) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Pcg32 rng(seed * 12345);
    const std::size_t n = 4 + seed;
    agree::AgreementSystem sys(n);
    sys.relative = agree::complete_graph(n, 0.6 / static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = rng.uniform(5.0, 15.0);

    Allocator cold(sys, engine_opts(false));
    Allocator warm(sys, engine_opts(true));

    for (int step = 0; step < 60; ++step) {
      const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(n));
      const int action = static_cast<int>(rng.uniform_u32(4));
      if (action == 0) {
        std::vector<double> caps(n);
        for (double& c : caps) c = rng.uniform(2.0, 15.0);
        cold.set_capacities(caps);
        warm.set_capacities(caps);
        continue;
      }
      if (action == 1) {
        std::vector<double> back(n, 0.0);
        for (double& b : back) b = rng.uniform(0.0, 0.5);
        cold.release(back);
        warm.release(back);
        continue;
      }
      const double amount =
          std::min(warm.available_to(a) * rng.uniform(0.0, 0.9), rng.uniform(0.0, 8.0));
      const AllocationPlan pc = cold.allocate(a, amount);
      const AllocationPlan pw = warm.allocate(a, amount);
      ASSERT_EQ(pc.status, pw.status) << "seed " << seed << " step " << step;
      EXPECT_TRUE(pc.certified) << "seed " << seed << " step " << step;
      EXPECT_TRUE(pw.certified) << "seed " << seed << " step " << step;
      if (!pw.satisfied()) continue;
      EXPECT_NEAR(pc.theta, pw.theta, 1e-7) << "seed " << seed << " step " << step;
      if (action == 3) {  // sometimes commit, sometimes just consult
        // Apply the SAME plan everywhere so capacities stay in lockstep even
        // when alternative optima differ in their draw vectors.
        cold.apply(pc);
        warm.apply(pc);
      }
    }
  }
}

/// A denial must not cost the next consult its warm start. An over-capacity
/// denial is decided in closed form and never touches the workspace; the
/// LP-level property (an infeasible solve moved only b, so the last optimal
/// basis stays valid for (A, c)) is pinned by
/// LpWarmstart.InfeasibleAndUnboundedPerturbationsAreDetected.
TEST(AllocatorWarmstart, InfeasibleConsultKeepsTheWarmBasis) {
  agree::AgreementSystem sys(5);
  sys.relative = agree::complete_graph(5, 0.1);
  for (std::size_t i = 0; i < 5; ++i) sys.capacity[i] = 10.0;
  AllocatorOptions opts = engine_opts(true);
  opts.sink = obs::Sink::none();
  Allocator alloc(sys, opts);
  const double avail = alloc.available_to(1);
  ASSERT_TRUE(alloc.allocate(1, 0.5 * avail).satisfied());  // cold: seeds the basis
  const AllocationPlan denied = alloc.allocate(1, 2.0 * avail);
  EXPECT_EQ(denied.status, PlanStatus::Insufficient);
  EXPECT_TRUE(denied.certified);
  EXPECT_EQ(denied.lp_iterations, 0u);  // closed form: no LP
  ASSERT_TRUE(alloc.allocate(1, 0.6 * avail).satisfied());
  const lp::PipelineStats s = *alloc.solver_stats();
  constexpr int kWarm = static_cast<int>(lp::PipelineStage::WarmRevised);
  constexpr int kCold = static_cast<int>(lp::PipelineStage::ColdRevised);
  EXPECT_EQ(s.attempts[kWarm], 1u);  // the consult after the denial
  EXPECT_EQ(s.attempts[kCold], 1u);  // only the very first consult
  EXPECT_EQ(s.failures[kWarm], 0u);
}

/// The default allocator warm-starts: its second consult on a component
/// enters at the first consult's optimal basis.
TEST(AllocatorWarmstart, DefaultAllocatorWarmStartsTheSecondConsultOnAComponent) {
  agree::AgreementSystem sys(5);
  sys.relative = agree::complete_graph(5, 0.1);
  for (std::size_t i = 0; i < 5; ++i) sys.capacity[i] = 10.0;
  AllocatorOptions opts;
  opts.sink = obs::Sink::none();
  Allocator alloc(sys, opts);
  ASSERT_TRUE(alloc.allocate(1, 0.5 * alloc.available_to(1)).satisfied());
  ASSERT_TRUE(alloc.allocate(3, 0.4 * alloc.available_to(3)).satisfied());
  const lp::PipelineStats s = *alloc.solver_stats();
  constexpr int kWarm = static_cast<int>(lp::PipelineStage::WarmRevised);
  EXPECT_GT(s.attempts[kWarm], 0u);
  EXPECT_EQ(s.failures[kWarm], 0u);
}

/// reuse_context must not change results when capacities never move either
/// (repeated identical requests -- the pure warm-start steady state).
TEST(AllocatorWarmstart, RepeatedIdenticalRequestsStaySatisfiedAndStable) {
  agree::AgreementSystem sys(6);
  sys.relative = agree::distance_decay(6, {0.25, 0.10});
  for (std::size_t i = 0; i < 6; ++i) sys.capacity[i] = 10.0;
  Allocator warm(sys, engine_opts(true));
  const AllocationPlan first = warm.allocate(2, 4.0);  // cold: builds the cache
  ASSERT_TRUE(first.satisfied());
  const AllocationPlan steady = warm.allocate(2, 4.0);  // first warm solve
  ASSERT_TRUE(steady.satisfied());
  // Cold and warm may differ by ULPs (x_B is recomputed as B^-1 b at warm
  // entry instead of carried through incremental pivots)...
  EXPECT_NEAR(steady.theta, first.theta, 1e-9);
  for (std::size_t k = 0; k < first.draw.size(); ++k)
    EXPECT_NEAR(steady.draw[k], first.draw[k], 1e-9);
  // ...but warm steady state must be exactly reproducible.
  for (int i = 0; i < 20; ++i) {
    const AllocationPlan p = warm.allocate(2, 4.0);
    ASSERT_TRUE(p.satisfied());
    EXPECT_EQ(p.theta, steady.theta);
    EXPECT_EQ(p.draw, steady.draw);
  }
}

}  // namespace
}  // namespace agora::alloc
