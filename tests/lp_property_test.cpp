// Property-based tests for the LP solver: random small instances are solved
// by the revised simplex and by the brute-force basis enumerator; both must
// agree on status and optimal objective, optimal points must be feasible,
// and every revised answer must certify under lp::Verifier. Larger
// instances, past brute force, rest on the Verifier's certificate alone.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/solve.h"
#include "util/rng.h"

namespace agora::lp {
namespace {

struct RandomLpSpec {
  std::uint64_t seed;
  std::size_t vars;
  std::size_t cons;
  bool with_equalities;
};

/// Random LP over box-bounded variables. Box bounds guarantee boundedness,
/// so brute force is a valid oracle; feasibility is random.
Problem make_random_lp(const RandomLpSpec& spec) {
  Pcg32 rng(spec.seed);
  Problem p(rng.next_double() < 0.5 ? Sense::Minimize : Sense::Maximize);
  for (std::size_t j = 0; j < spec.vars; ++j) {
    const double lo = rng.uniform(-3.0, 1.0);
    const double hi = lo + rng.uniform(0.0, 5.0);
    p.add_variable(lo, hi, rng.uniform(-4.0, 4.0));
  }
  for (std::size_t i = 0; i < spec.cons; ++i) {
    std::vector<double> coeffs(spec.vars);
    for (auto& c : coeffs) c = rng.uniform(-2.0, 2.0);
    Relation rel = Relation::LessEqual;
    const double pick = rng.next_double();
    if (spec.with_equalities && pick < 0.25) rel = Relation::Equal;
    else if (pick < 0.5) rel = Relation::GreaterEqual;
    p.add_constraint(std::move(coeffs), rel, rng.uniform(-4.0, 4.0));
  }
  return p;
}

class RandomLpAgreement : public ::testing::TestWithParam<RandomLpSpec> {};

TEST_P(RandomLpAgreement, AllSolversAgree) {
  const Problem p = make_random_lp(GetParam());
  const SolveResult rev = solve(p);
  const SolveResult bf = brute_force_solve(p);

  // Box bounds make the LP bounded, so only Optimal/Infeasible can occur.
  ASSERT_NE(rev.status, Status::Unbounded);
  ASSERT_NE(rev.status, Status::IterationLimit);
  EXPECT_EQ(rev.status, bf.status) << "revised vs brute force";
  const Certificate cert = Verifier().certify(p, rev);
  EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");

  if (bf.status == Status::Optimal) {
    EXPECT_NEAR(rev.objective, bf.objective, 1e-5);
    EXPECT_LE(p.max_violation(rev.x), 1e-6);
    EXPECT_LE(p.max_violation(bf.x), 1e-6);
    // The reported objective must match the reported point.
    EXPECT_NEAR(p.objective_value(rev.x), rev.objective, 1e-6);
  }
}

std::vector<RandomLpSpec> make_specs() {
  std::vector<RandomLpSpec> specs;
  std::uint64_t seed = 1000;
  for (std::size_t vars : {1u, 2u, 3u, 4u}) {
    for (std::size_t cons : {1u, 2u, 3u, 4u}) {
      for (bool eq : {false, true}) {
        for (int rep = 0; rep < 4; ++rep) {
          specs.push_back({seed++, vars, cons, eq});
        }
      }
    }
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpAgreement, ::testing::ValuesIn(make_specs()),
                         [](const ::testing::TestParamInfo<RandomLpSpec>& info) {
                           const auto& s = info.param;
                           return "seed" + std::to_string(s.seed) + "_v" +
                                  std::to_string(s.vars) + "_c" + std::to_string(s.cons) +
                                  (s.with_equalities ? "_eq" : "_ineq");
                         });

/// Larger random feasible LPs, past what brute force can enumerate: the
/// revised answer must certify optimal under lp::Verifier (a KKT proof, not
/// a second opinion). Feasibility is forced by constraining around a known
/// interior point.
class LargerLpAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LargerLpAgreement, RevisedCertifiesOptimal) {
  Pcg32 rng(GetParam());
  const std::size_t n = 10 + rng.uniform_u32(15);
  const std::size_t m = 5 + rng.uniform_u32(15);
  Problem p;
  std::vector<double> interior(n);
  for (std::size_t j = 0; j < n; ++j) {
    interior[j] = rng.uniform(0.0, 2.0);
    p.add_variable(0.0, 5.0, rng.uniform(-3.0, 3.0));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coeffs(n);
    double lhs_at_interior = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      coeffs[j] = rng.uniform(-1.0, 1.0);
      lhs_at_interior += coeffs[j] * interior[j];
    }
    // rhs set so the interior point satisfies the row with slack.
    p.add_constraint(std::move(coeffs), Relation::LessEqual, lhs_at_interior + 0.5);
  }
  const SolveResult rev = solve(p);
  ASSERT_EQ(rev.status, Status::Optimal);
  const Certificate cert = Verifier().certify(p, rev);
  EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");
  EXPECT_EQ(cert.claim, Certificate::Claim::Optimal);
  EXPECT_FALSE(cert.primal_only);
  EXPECT_LE(p.max_violation(rev.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LargerLpAgreement,
                         ::testing::Range<std::uint64_t>(2000, 2024));

}  // namespace
}  // namespace agora::lp
