// Unit tests for the LP substrate: standard-form conversion, the revised
// simplex and the brute-force oracle on known problems, and the model
// builder.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/model_builder.h"
#include "lp/problem.h"
#include "lp/solve.h"
#include "lp/standard_form.h"

namespace agora::lp {
namespace {

// ---------------------------------------------------------------- Problem ---

TEST(Problem, VariableAndConstraintBookkeeping) {
  Problem p;
  const auto x = p.add_variable("x", 0, 10, 1.0);
  const auto y = p.add_variable("y", -5, kInfinity, 2.0);
  EXPECT_EQ(p.num_variables(), 2u);
  EXPECT_DOUBLE_EQ(p.objective_coeff(x), 1.0);
  EXPECT_DOUBLE_EQ(p.lower_bound(y), -5.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 4.0, "cap");
  EXPECT_EQ(p.num_constraints(), 1u);
  EXPECT_EQ(p.constraint(0).name, "cap");
}

TEST(Problem, ConstraintsPadWhenVariablesAdded) {
  Problem p;
  p.add_variable("x");
  p.add_constraint({1.0}, Relation::LessEqual, 1.0);
  p.add_variable("y");
  EXPECT_EQ(p.constraint(0).coeffs.size(), 2u);
  EXPECT_DOUBLE_EQ(p.constraint(0).coeffs[1], 0.0);
}

TEST(Problem, InvertedBoundsThrow) {
  Problem p;
  EXPECT_THROW(p.add_variable("x", 2.0, 1.0), PreconditionError);
}

TEST(Problem, SparseConstraintAccumulatesDuplicates) {
  Problem p;
  const auto x = p.add_variable("x");
  p.add_constraint_sparse({{x, 1.0}, {x, 2.0}}, Relation::Equal, 3.0);
  EXPECT_DOUBLE_EQ(p.constraint(0).coeffs[x], 3.0);
}

TEST(Problem, MaxViolation) {
  Problem p;
  p.add_variable("x", 0, 1);
  p.add_constraint({1.0}, Relation::LessEqual, 0.5);
  EXPECT_DOUBLE_EQ(p.max_violation({0.75}), 0.25);
  EXPECT_DOUBLE_EQ(p.max_violation({0.25}), 0.0);
}

// ---------------------------------------------------------- StandardForm ---

TEST(StandardForm, ShiftedVariableRoundTrip) {
  Problem p;
  p.add_variable("x", 2.0, 5.0, 1.0);
  StandardForm sf = build_standard_form(p);
  // One bound row (x <= 5 becomes y <= 3), one structural column + slack.
  EXPECT_EQ(sf.rows(), 1u);
  const auto x = recover_solution(sf, {1.5, 0.0}, 1);
  EXPECT_DOUBLE_EQ(x[0], 3.5);
}

TEST(StandardForm, MirroredVariable) {
  Problem p;
  p.add_variable("x", -kInfinity, 4.0, 1.0);
  StandardForm sf = build_standard_form(p);
  const auto x = recover_solution(sf, {1.0}, 1);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(StandardForm, FreeVariableSplit) {
  Problem p;
  p.add_variable("x", -kInfinity, kInfinity, 1.0);
  StandardForm sf = build_standard_form(p);
  EXPECT_EQ(sf.num_structural, 2u);
  const auto x = recover_solution(sf, {1.0, 4.0}, 1);
  EXPECT_DOUBLE_EQ(x[0], -3.0);
}

TEST(StandardForm, NegativeRhsNormalized) {
  Problem p;
  p.add_variable("x", 0.0, kInfinity, 1.0);
  p.add_constraint({-1.0}, Relation::LessEqual, -2.0);  // -x <= -2  <=>  x >= 2
  StandardForm sf = build_standard_form(p);
  for (double b : sf.b) EXPECT_GE(b, 0.0);
  EXPECT_TRUE(sf.has_artificials());  // the >= row needs one
}

TEST(StandardForm, MaximizeFlipsSign) {
  Problem p(Sense::Maximize);
  p.add_variable("x", 0.0, kInfinity, 3.0);
  StandardForm sf = build_standard_form(p);
  EXPECT_DOUBLE_EQ(sf.obj_scale, -1.0);
  EXPECT_DOUBLE_EQ(sf.c[0], -3.0);
}

TEST(StandardForm, SparseColumnsAndFingerprintArePinned) {
  // Shifted (with and without a bound row), mirrored and split variables;
  // all three relations; three rows negated by their transformed rhs. The
  // column arrays and the fingerprint are pinned bit for bit: warm starts
  // key on the fingerprint, and the simplex's arithmetic follows the
  // column order.
  Problem p;
  p.add_variable("x0", 1.0, 4.0, 2.0);
  p.add_variable("x1", -kInfinity, 3.0, -1.0);
  p.add_variable("x2", -kInfinity, kInfinity, 0.5);
  p.add_variable("x3", 0.0, kInfinity, 1.0);
  p.add_constraint({1.0, 2.0, -1.0, 0.0}, Relation::LessEqual, 5.0);
  p.add_constraint({3.0, -1.0, 0.0, 1.0}, Relation::GreaterEqual, 20.0);
  p.add_constraint({-1.0, 0.0, 1.0, -2.0}, Relation::Equal, -4.0);
  p.add_constraint({0.0, 1.0, 0.0, 1.0}, Relation::GreaterEqual, -10.0);
  const StandardForm sf = build_standard_form(p);
  EXPECT_EQ(sf.col_start, (std::vector<std::size_t>{0, 4, 7, 9, 11, 14, 15, 16, 17, 18, 19,
                                                    20, 21}));
  EXPECT_EQ(sf.col_row, (std::vector<std::size_t>{0, 1, 2, 4, 0, 1, 3, 0, 2, 0, 2, 1, 2, 3,
                                                  0, 0, 1, 1, 2, 3, 4}));
  EXPECT_EQ(sf.col_val, (std::vector<double>{-1, 3, 1, 1, 2, 1, 1, 1, -1, -1, 1, 1, 2, -1,
                                             -1, 1, -1, 1, 1, 1, 1}));
  EXPECT_EQ(sf.b, (std::vector<double>{2, 20, 3, 13, 3}));
  EXPECT_EQ(sf.initial_basis, (std::vector<std::size_t>{6, 8, 9, 10, 11}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sf.fingerprint), 0x41531e9e708b4396ULL);
}

// ----------------------------------------- repatch_standard_form_rhs ------

// The allocator's per-consult patch is set_rhs plus value-only set_bounds;
// these pin that the O(rows) repatch produces exactly the standard form a
// full rebuild would, and that anything structural refuses the fast path.

/// Two vars with finite ranges (bound rows) + one constraint; the shape the
/// AllocationModelCache patch loop exercises.
Problem repatchable_lp() {
  Problem p;
  p.add_variable("x", 0.0, 4.0, -1.0);
  p.add_variable("y", 1.0, 6.0, -2.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 5.0);
  p.add_constraint({1.0, -1.0}, Relation::Equal, 2.0);
  return p;
}

TEST(StandardFormRepatch, RhsOnlyMatchesRebuild) {
  Problem p = repatchable_lp();
  StandardForm sf = build_standard_form(p);
  const double fp = sf.fingerprint;
  p.set_rhs(0, 7.5);
  p.set_rhs(1, 3.25);
  ASSERT_TRUE(repatch_standard_form_rhs(p, sf));
  EXPECT_DOUBLE_EQ(sf.fingerprint, fp);
  const StandardForm fresh = build_standard_form(p);
  ASSERT_EQ(sf.b.size(), fresh.b.size());
  for (std::size_t i = 0; i < sf.b.size(); ++i) EXPECT_DOUBLE_EQ(sf.b[i], fresh.b[i]);
}

TEST(StandardFormRepatch, ValueOnlyBoundMoveMatchesRebuild) {
  Problem p = repatchable_lp();
  StandardForm sf = build_standard_form(p);
  const std::uint64_t rev = p.structural_revision();
  // Finite upper bounds move, lower bounds stay: rhs-only by contract.
  p.set_bounds(0, 0.0, 3.5);
  p.set_bounds(1, 1.0, 9.0);
  EXPECT_EQ(p.structural_revision(), rev);
  ASSERT_TRUE(repatch_standard_form_rhs(p, sf));
  const StandardForm fresh = build_standard_form(p);
  ASSERT_EQ(sf.b.size(), fresh.b.size());
  for (std::size_t i = 0; i < sf.b.size(); ++i) EXPECT_DOUBLE_EQ(sf.b[i], fresh.b[i]);
  // And the patched form still solves to the rebuilt problem's optimum.
  const SolveResult a = solve(p, SolveOptions{});
  EXPECT_EQ(a.status, Status::Optimal);
}

TEST(StandardFormRepatch, RefusesWhenTransformedRhsFlipsSign) {
  Problem p = repatchable_lp();
  StandardForm sf = build_standard_form(p);
  // Equality row rhs 2 -> -3 flips the transformed rhs negative: the row
  // would need renegating (A changes), so the fast path must refuse.
  p.set_rhs(1, -3.0);
  EXPECT_FALSE(repatch_standard_form_rhs(p, sf));
  rebuild_standard_form(p, sf);  // caller contract: rebuild after refusal
  const StandardForm fresh = build_standard_form(p);
  for (std::size_t i = 0; i < sf.b.size(); ++i) EXPECT_DOUBLE_EQ(sf.b[i], fresh.b[i]);
}

TEST(StandardFormRepatch, RefusesStructuralMutations) {
  // Lower-bound move: shift offset feeds c0 and the transformed rhs.
  {
    Problem p = repatchable_lp();
    StandardForm sf = build_standard_form(p);
    const std::uint64_t rev = p.structural_revision();
    p.set_bounds(0, 0.5, 4.0);
    EXPECT_GT(p.structural_revision(), rev);
    EXPECT_FALSE(repatch_standard_form_rhs(p, sf));
  }
  // Finiteness change: dropping the upper bound deletes the bound row.
  {
    Problem p = repatchable_lp();
    StandardForm sf = build_standard_form(p);
    const std::uint64_t rev = p.structural_revision();
    p.set_bounds(0, 0.0, kInfinity);
    EXPECT_GT(p.structural_revision(), rev);
    EXPECT_FALSE(repatch_standard_form_rhs(p, sf));
  }
  // A copy has a fresh instance id; its cached form never patches.
  {
    Problem p = repatchable_lp();
    StandardForm sf = build_standard_form(p);
    const Problem q = p;
    EXPECT_FALSE(repatch_standard_form_rhs(q, sf));
  }
}

// ------------------------------------------------- solvers on known LPs ---

/// Classic production-planning LP with a known optimum.
Problem classic_lp() {
  // max 3x + 5y  s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0.
  // Optimum: x=2, y=6, obj=36 (Dantzig's textbook example).
  Problem p(Sense::Maximize);
  p.add_variable("x", 0, kInfinity, 3.0);
  p.add_variable("y", 0, kInfinity, 5.0);
  p.add_constraint({1, 0}, Relation::LessEqual, 4);
  p.add_constraint({0, 2}, Relation::LessEqual, 12);
  p.add_constraint({3, 2}, Relation::LessEqual, 18);
  return p;
}

// Backend configuration of the typed suite below: every known-LP test runs
// against the revised solver (sparse LU basis) and is checked against the
// known answer.
struct RevisedSparseConfig {
  static SolveOptions options() {
    SolveOptions o;
    o.backend = Backend::Revised;
    return o;
  }
};

template <typename Config>
class SolverTest : public ::testing::Test {
 public:
  struct {
    SolveResult solve(const Problem& p) const { return lp::solve(p, Config::options()); }
  } solver;
};

using SolverTypes = ::testing::Types<RevisedSparseConfig>;
TYPED_TEST_SUITE(SolverTest, SolverTypes);

TYPED_TEST(SolverTest, ClassicMaximization) {
  const SolveResult r = this->solver.solve(classic_lp());
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 6.0, 1e-7);
}

TYPED_TEST(SolverTest, EqualityConstraints) {
  // min x + y  s.t. x + y = 5, x - y = 1  ->  x=3, y=2, obj=5.
  Problem p;
  p.add_variable("x", 0, kInfinity, 1.0);
  p.add_variable("y", 0, kInfinity, 1.0);
  p.add_constraint({1, 1}, Relation::Equal, 5);
  p.add_constraint({1, -1}, Relation::Equal, 1);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-7);
  EXPECT_NEAR(r.x[0], 3.0, 1e-7);
  EXPECT_NEAR(r.x[1], 2.0, 1e-7);
}

TYPED_TEST(SolverTest, DetectsInfeasible) {
  Problem p;
  p.add_variable("x", 0, 1, 1.0);
  p.add_constraint({1}, Relation::GreaterEqual, 2.0);
  EXPECT_EQ(this->solver.solve(p).status, Status::Infeasible);
}

TYPED_TEST(SolverTest, DetectsUnbounded) {
  Problem p(Sense::Maximize);
  p.add_variable("x", 0, kInfinity, 1.0);
  p.add_constraint({-1}, Relation::LessEqual, 0.0);  // vacuous
  EXPECT_EQ(this->solver.solve(p).status, Status::Unbounded);
}

TYPED_TEST(SolverTest, RespectsVariableBounds) {
  Problem p(Sense::Maximize);
  p.add_variable("x", 1.0, 3.0, 1.0);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-8);
}

TYPED_TEST(SolverTest, NegativeLowerBounds) {
  // min x s.t. x >= -4 -> x = -4.
  Problem p;
  p.add_variable("x", -4.0, kInfinity, 1.0);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[0], -4.0, 1e-8);
}

TYPED_TEST(SolverTest, FreeVariable) {
  // min |free var shape|: min y s.t. y >= x - 2, y >= -x + 2, x free, y >= 0.
  // Optimum y = 0 at x = 2.
  Problem p;
  const auto x = p.add_variable("x", -kInfinity, kInfinity, 0.0);
  const auto y = p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint_sparse({{y, 1.0}, {x, -1.0}}, Relation::GreaterEqual, -2.0);
  p.add_constraint_sparse({{y, 1.0}, {x, 1.0}}, Relation::GreaterEqual, 2.0);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TYPED_TEST(SolverTest, DegenerateLpTerminates) {
  // Beale's cycling example (classic): cycles under naive Dantzig rule
  // without anti-cycling. min -0.75x4 + 150x5 - 0.02x6 + 6x7 ...
  Problem p;
  p.add_variable("x4", 0, kInfinity, -0.75);
  p.add_variable("x5", 0, kInfinity, 150.0);
  p.add_variable("x6", 0, kInfinity, -0.02);
  p.add_variable("x7", 0, kInfinity, 6.0);
  p.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::LessEqual, 0.0);
  p.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::LessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::LessEqual, 1.0);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-7);
}

TYPED_TEST(SolverTest, EmptyProblem) {
  Problem p;
  const SolveResult r = this->solver.solve(p);
  EXPECT_EQ(r.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TYPED_TEST(SolverTest, RedundantEqualities) {
  // x + y = 2 stated twice: redundant rows must not break phase 1 cleanup.
  Problem p;
  p.add_variable("x", 0, kInfinity, 1.0);
  p.add_variable("y", 0, kInfinity, 2.0);
  p.add_constraint({1, 1}, Relation::Equal, 2);
  p.add_constraint({1, 1}, Relation::Equal, 2);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);  // all weight on x
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
}

TYPED_TEST(SolverTest, SolutionSatisfiesConstraints) {
  const Problem p = classic_lp();
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_LE(p.max_violation(r.x), 1e-7);
}

// ------------------------------------------------------------ BruteForce ---

TEST(BruteForce, MatchesSimplexOnClassic) {
  const Problem p = classic_lp();
  const SolveResult bf = brute_force_solve(p);
  const SolveResult sx = lp::solve(p, RevisedSparseConfig::options());
  ASSERT_EQ(bf.status, Status::Optimal);
  EXPECT_NEAR(bf.objective, sx.objective, 1e-7);
}

TEST(BruteForce, DetectsInfeasible) {
  Problem p;
  p.add_variable("x", 0, 1, 1.0);
  p.add_constraint({1}, Relation::GreaterEqual, 2.0);
  EXPECT_EQ(brute_force_solve(p).status, Status::Infeasible);
}

TEST(BruteForce, ZeroRowProblemTerminates) {
  // No constraints and no finite range: the standard form has zero rows,
  // so the only basis is the empty one and it must be evaluated once.
  Problem p;
  p.add_variable("x", 2.0, kInfinity, 1.0);    // shifted: optimum at lo
  p.add_variable("y", -kInfinity, 5.0, -1.0);  // mirrored: optimum at hi
  ASSERT_EQ(build_standard_form(p).rows(), 0u);
  const SolveResult bf = brute_force_solve(p);
  ASSERT_EQ(bf.status, Status::Optimal);
  ASSERT_EQ(bf.x.size(), 2u);
  EXPECT_DOUBLE_EQ(bf.x[0], 2.0);
  EXPECT_DOUBLE_EQ(bf.x[1], 5.0);
  EXPECT_DOUBLE_EQ(bf.objective, -3.0);
  const SolveResult sx = lp::solve(p, RevisedSparseConfig::options());
  ASSERT_EQ(sx.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(bf.objective, sx.objective);
  EXPECT_EQ(bf.x, sx.x);
}

TEST(BruteForce, RefusesHugeProblems) {
  Problem p;
  for (int i = 0; i < 40; ++i) p.add_variable("x" + std::to_string(i), 0, 1, 1.0);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> c(40, 1.0);
    p.add_constraint(std::move(c), Relation::LessEqual, 10.0);
  }
  EXPECT_THROW(brute_force_solve(p), PreconditionError);
}

// ---------------------------------------------------------- ModelBuilder ---

TEST(ModelBuilder, BuildsClassicLp) {
  ModelBuilder mb(Sense::Maximize);
  const Var x = mb.add_var("x");
  const Var y = mb.add_var("y");
  mb.add(LinExpr(x) <= 4.0);
  mb.add(2.0 * y <= 12.0);
  mb.add(3.0 * x + 2.0 * y <= 18.0);
  mb.maximize(3.0 * x + 5.0 * y);
  const SolveResult r = lp::solve(mb.problem());
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
}

TEST(ModelBuilder, SumAndEquality) {
  ModelBuilder mb;
  const auto xs = mb.add_vars("x", 3);
  mb.add(sum(xs) == 6.0);
  mb.minimize(1.0 * xs[0] + 2.0 * xs[1] + 3.0 * xs[2]);
  const SolveResult r = lp::solve(mb.problem());
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-7);  // all weight on x0
  EXPECT_NEAR(r.x[0], 6.0, 1e-7);
}

TEST(ModelBuilder, ExpressionAlgebra) {
  ModelBuilder mb;
  const Var x = mb.add_var("x");
  LinExpr e = 2.0 * x + 3.0;
  e += 1.0 * x;
  e *= 2.0;
  // e = 6x + 6; constraint e >= 12 means x >= 1.
  mb.add(e >= 12.0);
  mb.minimize(LinExpr(x));
  const SolveResult r = lp::solve(mb.problem());
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
}

TEST(ModelBuilder, GreaterEqualFoldsConstants) {
  ModelBuilder mb;
  const Var x = mb.add_var("x");
  mb.add(1.0 * x - 5.0 >= 0.0);  // x >= 5
  mb.minimize(LinExpr(x));
  const SolveResult r = lp::solve(mb.problem());
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[0], 5.0, 1e-7);
}

}  // namespace
}  // namespace agora::lp
