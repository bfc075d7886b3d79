// Tests for LP dual values (shadow prices) from the revised simplex: pinned
// values on textbook problems, a convention-free numerical check (perturb a
// constraint's rhs, re-solve, compare the objective slope), and agreement
// between cold and warm-started solves.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/problem.h"
#include "lp/solve.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace agora::lp {
namespace {

// Backend configuration under test: the revised solver (sparse LU basis),
// whose own duals the tests check.
struct RevisedSparseConfig {
  static SolveOptions options() {
    SolveOptions o;
    o.backend = Backend::Revised;
    return o;
  }
};

template <typename Config>
class DualsTest : public ::testing::Test {
 public:
  struct {
    SolveResult solve(const Problem& p) const { return lp::solve(p, Config::options()); }
  } solver;
};

using SolverTypes = ::testing::Types<RevisedSparseConfig>;
TYPED_TEST_SUITE(DualsTest, SolverTypes);

TYPED_TEST(DualsTest, ClassicShadowPrices) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18.
  // Known duals: (0, 3/2, 1) -- constraint 1 is slack at the optimum.
  Problem p(Sense::Maximize);
  p.add_variable("x", 0, kInfinity, 3.0);
  p.add_variable("y", 0, kInfinity, 5.0);
  p.add_constraint({1, 0}, Relation::LessEqual, 4);
  p.add_constraint({0, 2}, Relation::LessEqual, 12);
  p.add_constraint({3, 2}, Relation::LessEqual, 18);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  ASSERT_EQ(r.duals.size(), 3u);
  EXPECT_NEAR(r.duals[0], 0.0, 1e-7);
  EXPECT_NEAR(r.duals[1], 1.5, 1e-7);
  EXPECT_NEAR(r.duals[2], 1.0, 1e-7);
}

TYPED_TEST(DualsTest, EqualityDuals) {
  // min x + 2y s.t. x + y = 5, x <= 3. Optimum x=3, y=2, obj=7.
  // Raising the equality rhs by 1 forces y up: d obj = +2.
  Problem p;
  p.add_variable("x", 0, kInfinity, 1.0);
  p.add_variable("y", 0, kInfinity, 2.0);
  p.add_constraint({1, 1}, Relation::Equal, 5);
  p.add_constraint({1, 0}, Relation::LessEqual, 3);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-7);
  EXPECT_NEAR(r.duals[0], 2.0, 1e-7);
  // Loosening x <= 3 lets cheap x replace expensive y: d obj = 1 - 2 = -1.
  EXPECT_NEAR(r.duals[1], -1.0, 1e-7);
}

TYPED_TEST(DualsTest, GreaterEqualDuals) {
  // min 2x s.t. x >= 4: dual of the covering constraint is 2.
  Problem p;
  p.add_variable("x", 0, kInfinity, 2.0);
  p.add_constraint({1}, Relation::GreaterEqual, 4);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.duals[0], 2.0, 1e-7);
}

TYPED_TEST(DualsTest, NegativeRhsNormalizationKeepsSign) {
  // min 2x s.t. -x <= -4 (same feasible set as x >= 4). The shadow price
  // is w.r.t. *this* constraint's written rhs: raising -4 toward -3 relaxes
  // the set to x >= 3 and the objective falls by 2 per unit => dual = -2
  // (contrast with the x >= 4 form, whose dual is +2).
  Problem p;
  p.add_variable("x", 0, kInfinity, 2.0);
  p.add_constraint({-1}, Relation::LessEqual, -4);
  const SolveResult r = this->solver.solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[0], 4.0, 1e-7);
  EXPECT_NEAR(r.duals[0], -2.0, 1e-7);
}

/// Convention-free check on random LPs: duals[i] must equal the numerical
/// derivative of the optimal objective w.r.t. constraint i's rhs (where the
/// optimum is non-degenerate enough for the one-sided slope to be stable).
class DualSlope : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DualSlope, MatchesNumericalDerivative) {
  Pcg32 rng(GetParam());
  const std::size_t n = 3 + rng.uniform_u32(3);
  const std::size_t m = 2 + rng.uniform_u32(3);
  Problem p(rng.next_double() < 0.5 ? Sense::Minimize : Sense::Maximize);
  std::vector<double> interior(n);
  for (std::size_t j = 0; j < n; ++j) {
    interior[j] = rng.uniform(0.2, 1.8);
    p.add_variable(0.0, 2.0, rng.uniform(-3.0, 3.0));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coeffs(n);
    double at = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      coeffs[j] = rng.uniform(-1.0, 1.0);
      at += coeffs[j] * interior[j];
    }
    p.add_constraint(std::move(coeffs), Relation::LessEqual, at + rng.uniform(0.1, 1.0));
  }

  struct {
    SolveResult solve(const Problem& q) const {
      return lp::solve(q, RevisedSparseConfig::options());
    }
  } solver;
  const SolveResult base = solver.solve(p);
  ASSERT_EQ(base.status, Status::Optimal);
  ASSERT_EQ(base.duals.size(), m);

  const double eps = 1e-5;
  for (std::size_t i = 0; i < m; ++i) {
    // Two-sided slope to dodge degenerate kinks; skip constraints whose
    // one-sided slopes disagree (a vertex change within eps). Problems are
    // rebuilt with the perturbed rhs (Problem has no rhs setter by design).
    Problem perturbed_up(p.sense()), perturbed_down(p.sense());
    for (std::size_t j = 0; j < n; ++j) {
      perturbed_up.add_variable(p.variable_name(j), p.lower_bound(j), p.upper_bound(j),
                                p.objective_coeff(j));
      perturbed_down.add_variable(p.variable_name(j), p.lower_bound(j), p.upper_bound(j),
                                  p.objective_coeff(j));
    }
    for (std::size_t k = 0; k < m; ++k) {
      const Constraint& c = p.constraint(k);
      const double delta = k == i ? eps : 0.0;
      perturbed_up.add_constraint(c.coeffs, c.rel, c.rhs + delta);
      perturbed_down.add_constraint(c.coeffs, c.rel, c.rhs - delta);
    }
    const SolveResult ru = solver.solve(perturbed_up);
    const SolveResult rd = solver.solve(perturbed_down);
    if (ru.status != Status::Optimal || rd.status != Status::Optimal) continue;
    const double slope_up = (ru.objective - base.objective) / eps;
    const double slope_down = (base.objective - rd.objective) / eps;
    if (std::fabs(slope_up - slope_down) > 1e-4) continue;  // degenerate kink
    EXPECT_NEAR(base.duals[i], slope_up, 1e-4) << "constraint " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualSlope, ::testing::Range<std::uint64_t>(7000, 7020));

TEST(Duals, BothSolversAgree) {
  Pcg32 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Problem p;
    const std::size_t n = 4;
    for (std::size_t j = 0; j < n; ++j)
      p.add_variable(0.0, 3.0, rng.uniform(-2.0, 2.0));
    for (std::size_t i = 0; i < 3; ++i) {
      std::vector<double> coeffs(n);
      for (auto& c : coeffs) c = rng.uniform(0.0, 1.0);
      p.add_constraint(std::move(coeffs), Relation::LessEqual, rng.uniform(1.0, 4.0));
    }
    // Cold, and warm from the optimal basis of the same LP with every rhs
    // scaled down.
    const SolveOptions opts = RevisedSparseConfig::options();
    const SolveResult a = lp::solve(p, opts);
    Problem scaled = p;
    for (std::size_t i = 0; i < scaled.num_constraints(); ++i)
      scaled.set_rhs(i, 0.8 * p.constraint(i).rhs);
    SolveWorkspace ws;
    ASSERT_EQ(lp::solve(scaled, opts, &ws).status, Status::Optimal);
    ASSERT_TRUE(ws.warm);
    const SolveResult b = lp::solve(p, opts, &ws);
    ASSERT_EQ(a.status, Status::Optimal);
    ASSERT_EQ(b.status, Status::Optimal);
    // Duals can differ between alternative optimal bases; compare only when
    // the primal solutions coincide (non-degenerate unique optimum).
    if (linf_distance(a.x, b.x) < 1e-9) {
      for (std::size_t i = 0; i < a.duals.size(); ++i)
        EXPECT_NEAR(a.duals[i], b.duals[i], 1e-6);
    }
  }
}

}  // namespace
}  // namespace agora::lp
