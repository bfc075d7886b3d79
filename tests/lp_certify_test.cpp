// Unit tests for the lp::Verifier: correct answers from every solver must
// certify, and hand-built WRONG answers -- infeasible points labeled
// optimal, forged duals, bogus Farkas/ray certificates -- must be rejected.
// The Verifier is the trust anchor of the certified enforcement chain, so
// these tests check both directions: no false accepts, no false rejects.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "agree/capacity.h"
#include "agree/topology.h"
#include "alloc/model_cache.h"
#include "fig_common.h"
#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/model_builder.h"
#include "lp/problem.h"
#include "lp/solve.h"
#include "lp/solve_pipeline.h"
#include "lp/standard_form.h"
#include "obs/sink.h"

namespace agora::lp {
namespace {

// The certification tests target each backend's own answers.
SolveOptions backend_opts(Backend b) {
  SolveOptions o;
  o.backend = b;
  return o;
}
SolveResult revised_solve(const Problem& p, SolveWorkspace* ws = nullptr) {
  return solve(p, backend_opts(Backend::Revised), ws);
}

// max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x, y >= 0.
// Optimum (4, 0), objective 12, duals (3, 0).
Problem classic_max() {
  Problem p(Sense::Maximize);
  p.add_variable("x", 0.0, kInfinity, 3.0);
  p.add_variable("y", 0.0, kInfinity, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::LessEqual, 6.0);
  return p;
}

// min 2x + 3y  s.t.  x + y >= 2,  x - y = 0,  0 <= x, y <= 5.
Problem classic_min() {
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, 5.0, 2.0);
  p.add_variable("y", 0.0, 5.0, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::GreaterEqual, 2.0);
  p.add_constraint({1.0, -1.0}, Relation::Equal, 0.0);
  return p;
}

// x + y <= 1 together with x + y >= 3: infeasible.
Problem infeasible_box() {
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, kInfinity, 1.0);
  p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::GreaterEqual, 3.0);
  return p;
}

// min -x  s.t.  x - y <= 1,  x, y >= 0: ride y upward forever.
Problem unbounded_ramp() {
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, kInfinity, -1.0);
  p.add_variable("y", 0.0, kInfinity, 0.0);
  p.add_constraint({1.0, -1.0}, Relation::LessEqual, 1.0);
  return p;
}

// ------------------------------------------------- correct answers certify --

TEST(Certify, AcceptsRevisedOptimalWithDuals) {
  for (const Problem& p : {classic_min(), classic_max()}) {
    const SolveResult r = revised_solve(p);
    ASSERT_EQ(r.status, Status::Optimal);
    Verifier v;
    const Certificate cert = v.certify(p, r);
    EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");
    EXPECT_EQ(cert.claim, Certificate::Claim::Optimal);
    EXPECT_FALSE(cert.primal_only);
    EXPECT_LT(cert.primal_residual, 1e-9);
    EXPECT_LT(cert.dual_residual, 1e-9);
    EXPECT_LT(cert.objective_gap, 1e-9);
  }
}

TEST(Certify, AcceptsBruteForcePrimalOnly) {
  const Problem p = classic_min();
  const SolveResult r = brute_force_solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  ASSERT_TRUE(r.duals.empty());
  Verifier v;
  const Certificate cert = v.certify(p, r);
  EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");
  EXPECT_TRUE(cert.primal_only);
}

TEST(Certify, AcceptsRealFarkasCertificateFromBothSolvers) {
  // A cold solve, and a warm one: its workspace holds the optimal basis of
  // the feasible rhs x + y >= 0.5, so the warm entry finds a positive
  // artificial and falls back to phase 1, whose duals are the certificate.
  Problem p = infeasible_box();
  for (int engine = 0; engine < 2; ++engine) {
    SolveWorkspace ws;
    if (engine == 1) {
      p.set_rhs(1, 0.5);
      ASSERT_EQ(revised_solve(p, &ws).status, Status::Optimal);
      ASSERT_TRUE(ws.warm);
      p.set_rhs(1, 3.0);
    }
    const SolveResult r = revised_solve(p, engine == 1 ? &ws : nullptr);
    ASSERT_EQ(r.status, Status::Infeasible);
    ASSERT_FALSE(r.farkas.empty()) << "solver " << engine << " attached no certificate";
    Verifier v;
    const Certificate cert = v.certify(p, r);
    EXPECT_TRUE(cert.certified)
        << "engine " << engine << ": " << (cert.reject ? cert.reject : "");
    EXPECT_EQ(cert.claim, Certificate::Claim::Infeasible);
  }
}

TEST(Certify, AcceptsRealUnboundednessRayFromBothSolvers) {
  // Without and with a workspace (the allocator keeps one per model).
  const Problem p = unbounded_ramp();
  for (int engine = 0; engine < 2; ++engine) {
    SolveWorkspace ws;
    const SolveResult r = revised_solve(p, engine == 1 ? &ws : nullptr);
    ASSERT_EQ(r.status, Status::Unbounded);
    ASSERT_FALSE(r.ray.empty()) << "solver " << engine << " attached no ray";
    Verifier v;
    const Certificate cert = v.certify(p, r);
    EXPECT_TRUE(cert.certified)
        << "engine " << engine << ": " << (cert.reject ? cert.reject : "");
    EXPECT_EQ(cert.claim, Certificate::Claim::Unbounded);
  }
}

TEST(Certify, AcceptsMaximizationDualConvention) {
  // Duals are reported in the problem's own sense; the verifier must
  // normalize before sign checks. classic_max duals: (3, 0).
  const Problem p = classic_max();
  Verifier v;
  const Certificate cert = v.certify_optimal(p, {4.0, 0.0}, {3.0, 0.0}, 12.0);
  EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");
}

TEST(Certify, AcceptsZeroVariableProblems) {
  Problem feasible(Sense::Minimize);
  feasible.add_constraint({}, Relation::LessEqual, 1.0);
  Verifier v;
  EXPECT_TRUE(v.certify_optimal(feasible, {}, {}, 0.0).certified);

  Problem contradictory(Sense::Minimize);
  contradictory.add_constraint({}, Relation::GreaterEqual, 2.0);
  EXPECT_TRUE(v.certify_infeasible(contradictory, {}).certified);
  // Claiming the feasible constant problem infeasible must fail.
  EXPECT_FALSE(v.certify_infeasible(feasible, {}).certified);
}

// ------------------------------------------------- wrong answers rejected ---

TEST(Certify, RejectsInfeasiblePointLabeledOptimal) {
  const Problem p = classic_max();
  Verifier v;
  // (3, 3) violates x + y <= 4 and x + 3y <= 6.
  const Certificate cert = v.certify_optimal(p, {3.0, 3.0}, {3.0, 0.0}, 15.0);
  EXPECT_FALSE(cert.certified);
  EXPECT_GT(cert.primal_residual, 1e-3);
  ASSERT_NE(cert.reject, nullptr);
}

TEST(Certify, RejectsBoundViolationLabeledOptimal) {
  const Problem p = classic_min();
  Verifier v;
  // y = -1 violates its lower bound (and the equality row).
  const Certificate cert = v.certify_optimal(p, {1.0, -1.0}, {2.5, -0.5}, -1.0);
  EXPECT_FALSE(cert.certified);
  EXPECT_GT(cert.primal_residual, 1e-3);
}

TEST(Certify, RejectsWrongDualSigns) {
  const Problem p = classic_max();
  Verifier v;
  // Right point, but a <= constraint in a max problem must not have a
  // negative shadow price.
  const Certificate cert = v.certify_optimal(p, {4.0, 0.0}, {-3.0, 0.0}, 12.0);
  EXPECT_FALSE(cert.certified);
  EXPECT_GT(cert.dual_residual, 1e-3);
}

TEST(Certify, RejectsWrongDualMagnitudes) {
  const Problem p = classic_max();
  Verifier v;
  // Right signs, wrong prices: stationarity / objective gap must flag it.
  const Certificate cert = v.certify_optimal(p, {4.0, 0.0}, {1.0, 1.0}, 12.0);
  EXPECT_FALSE(cert.certified);
}

TEST(Certify, RejectsComplementaritySlackViolation) {
  const Problem p = classic_max();
  Verifier v;
  // Optimal point (4, 0): row 2 has slack (4 + 0 < 6), so pricing it at 2
  // violates complementary slackness even though the sign is legal.
  const Certificate cert = v.certify_optimal(p, {4.0, 0.0}, {3.0, 2.0}, 12.0);
  EXPECT_FALSE(cert.certified);
}

TEST(Certify, RejectsMisreportedObjective) {
  const Problem p = classic_max();
  Verifier v;
  const Certificate cert = v.certify_optimal(p, {4.0, 0.0}, {3.0, 0.0}, 13.0);
  EXPECT_FALSE(cert.certified);
  EXPECT_GT(cert.objective_gap, 1e-3);
}

TEST(Certify, RejectsSuboptimalFeasiblePoint) {
  const Problem p = classic_max();
  Verifier v;
  // (0, 2) is feasible (objective 4) but far from optimal; duals for the
  // true optimum cannot make the KKT system close.
  const Certificate cert = v.certify_optimal(p, {0.0, 2.0}, {3.0, 0.0}, 4.0);
  EXPECT_FALSE(cert.certified);
}

TEST(Certify, RejectsNonFiniteEntries) {
  const Problem p = classic_max();
  Verifier v;
  const double nan = std::nan("");
  EXPECT_FALSE(v.certify_optimal(p, {nan, 0.0}, {3.0, 0.0}, 12.0).certified);
  EXPECT_FALSE(v.certify_optimal(p, {4.0, 0.0}, {nan, 0.0}, 12.0).certified);
  EXPECT_FALSE(v.certify_optimal(p, {4.0, 0.0}, {3.0, 0.0}, nan).certified);
}

TEST(Certify, RejectsWrongDimensions) {
  const Problem p = classic_max();
  Verifier v;
  EXPECT_FALSE(v.certify_optimal(p, {4.0}, {3.0, 0.0}, 12.0).certified);
  EXPECT_FALSE(v.certify_optimal(p, {4.0, 0.0}, {3.0}, 12.0).certified);
}

TEST(Certify, RejectsBogusFarkasCertificates) {
  const Problem p = infeasible_box();
  StandardForm sf = build_standard_form(p);
  Verifier v;
  // Missing, zero, wrong-dimension and sign-flipped certificates all fail.
  EXPECT_FALSE(v.certify_infeasible(p, {}).certified);
  EXPECT_FALSE(v.certify_infeasible(p, std::vector<double>(sf.rows(), 0.0)).certified);
  EXPECT_FALSE(v.certify_infeasible(p, {1.0}).certified);
  const SolveResult r = revised_solve(p);
  ASSERT_EQ(r.status, Status::Infeasible);
  std::vector<double> flipped = r.farkas;
  for (double& y : flipped) y = -y;  // proves y'b < 0: nothing
  EXPECT_FALSE(v.certify_infeasible(p, flipped).certified);
}

TEST(Certify, RejectsFarkasForFeasibleProblem) {
  // A certificate cannot exist for a feasible system; any vector offered
  // must fail one of the two Farkas conditions.
  const Problem p = classic_min();
  StandardForm sf = build_standard_form(p);
  Verifier v;
  std::vector<double> y(sf.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 2 ? 1.0 : -0.5;
  EXPECT_FALSE(v.certify_infeasible(p, y).certified);
}

TEST(Certify, RejectsBogusUnboundednessRays) {
  const Problem p = unbounded_ramp();
  const SolveResult r = revised_solve(p);
  ASSERT_EQ(r.status, Status::Unbounded);
  Verifier v;
  // Missing ray / missing point.
  EXPECT_FALSE(v.certify_unbounded(p, r.x, {}).certified);
  EXPECT_FALSE(v.certify_unbounded(p, {}, r.ray).certified);
  // Zero ray.
  EXPECT_FALSE(
      v.certify_unbounded(p, r.x, std::vector<double>(r.ray.size(), 0.0)).certified);
  // A ray that worsens the objective (negated real ray breaks d >= 0).
  std::vector<double> neg = r.ray;
  for (double& d : neg) d = -d;
  EXPECT_FALSE(v.certify_unbounded(p, r.x, neg).certified);
  // An infeasible anchor point.
  EXPECT_FALSE(v.certify_unbounded(p, {-5.0, 0.0}, r.ray).certified);
}

TEST(Certify, RejectsUnboundedClaimOnBoundedProblem) {
  // Forge a "ray" for a bounded problem: any direction either leaves the
  // feasible cone or fails to improve the objective.
  const Problem p = classic_max();
  StandardForm sf = build_standard_form(p);
  Verifier v;
  std::vector<double> ray(sf.cols(), 0.0);
  ray[0] = 1.0;  // grow x: slack rows would go negative unless compensated
  EXPECT_FALSE(v.certify_unbounded(p, {0.0, 0.0}, ray).certified);
}

TEST(Certify, ColdRevisedCertifiesARequestOfExactlyTheAvailableCapacity) {
  // At amount == C_a every draw sits at its bound, so phase 1 ends
  // degenerate with the demand row's artificial basic at level zero. Phase
  // 2 must pivot that artificial out before a draw leaves its bound, not
  // let it rise and claim an optimum with every draw at zero.
  agree::AgreementSystem sys(6);
  sys.relative = agree::complete_graph(6, 0.14);
  for (std::size_t i = 0; i < sys.size(); ++i) sys.capacity[i] = 5.0 + static_cast<double>(i);
  const agree::CapacityReport rep = agree::compute_capacities(sys);
  alloc::AllocationModelCache cache;
  cache.build(sys, rep);
  for (const std::size_t a : {4u, 5u}) {
    cache.patch(rep, a, rep.capacity[a]);
    const SolveResult r = revised_solve(cache.problem());
    ASSERT_EQ(r.status, Status::Optimal) << "requester " << a;
    const Certificate cert = Verifier().certify(cache.problem(), r);
    EXPECT_TRUE(cert.certified) << "requester " << a << ": "
                                << (cert.reject ? cert.reject : "");
    double drawn = 0.0;
    for (std::size_t k = 0; k < sys.size(); ++k) drawn += r.x[k];
    EXPECT_NEAR(drawn, rep.capacity[a], 1e-7 * (1.0 + rep.capacity[a])) << "requester " << a;
  }
}

TEST(Certify, IterationLimitIsNeverCertified) {
  const Problem p = classic_min();
  SolveResult r;
  r.status = Status::IterationLimit;
  Verifier v;
  const Certificate cert = v.certify(p, r);
  EXPECT_FALSE(cert.certified);
  EXPECT_EQ(cert.claim, Certificate::Claim::None);
}

// ------------------------------------------------------------- pipeline -----

TEST(Pipeline, HappyPathCertifiesOnFirstStage) {
  SolvePipeline pl;
  const Problem p = classic_min();
  const PipelineResult pr = pl.solve(p);
  EXPECT_TRUE(pr.certified());
  EXPECT_EQ(pr.fallbacks, 0u);
  EXPECT_EQ(pr.stage, PipelineStage::ColdRevised);
  EXPECT_EQ(pl.stats().solves, 1u);
  EXPECT_EQ(pl.stats().certified, 1u);
}

TEST(Pipeline, ColdRevisedCertifiesTheBandedFixtureOptimum) {
  // The banded LPSCALE fixture at n = 100 (bench/micro_lp), patched for its
  // second consult: requester 17 asking for 0.16875 of its availability.
  // A dense tableau once returned Infeasible here after ~1500 pivots, with
  // a Farkas vector the Verifier rejected; cold revised certifies the
  // optimum theta ~ 0.98784694 in ~110 pivots, on the chain's first stage.
  const agree::AgreementSystem sys = figbench::banded_sharing_system(100);
  const agree::CapacityReport rep = agree::compute_capacities(
      sys, figbench::sparse_bench_alloc_options().transitive);
  alloc::AllocationModelCache cache;
  cache.build(sys, rep);
  cache.patch(rep, 17, rep.capacity[17] * (0.05 + 0.95 / 8.0));
  const Problem& p = cache.problem();

  const SolveResult cold = revised_solve(p);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_TRUE(Verifier().certify(p, cold).certified);
  EXPECT_NEAR(cold.objective, 0.98784694, 1e-7);

  PipelineOptions po;
  po.sink = obs::Sink::none();
  SolvePipeline pl(po);
  const PipelineResult pr = pl.solve(p);
  ASSERT_TRUE(pr.certified()) << (pr.certificate.reject ? pr.certificate.reject : "");
  EXPECT_EQ(pr.certificate.claim, Certificate::Claim::Optimal);
  EXPECT_EQ(pr.stage, PipelineStage::ColdRevised);
  EXPECT_EQ(pr.fallbacks, 0u);
  EXPECT_NEAR(pr.result.objective, cold.objective, 1e-7 * (1.0 + std::fabs(cold.objective)));
}

TEST(Pipeline, CertifiesInfeasibleAndUnboundedClaims) {
  SolvePipeline pl;
  const PipelineResult inf = pl.solve(infeasible_box());
  EXPECT_TRUE(inf.certified());
  EXPECT_EQ(inf.certificate.claim, Certificate::Claim::Infeasible);
  const PipelineResult unb = pl.solve(unbounded_ramp());
  EXPECT_TRUE(unb.certified());
  EXPECT_EQ(unb.certificate.claim, Certificate::Claim::Unbounded);
}

TEST(Pipeline, WarmSolveReusesWorkspaceAndCertifies) {
  SolvePipeline pl;
  Problem p = classic_min();
  SolveWorkspace ws;
  const PipelineResult first = pl.solve(p, &ws);
  ASSERT_TRUE(first.certified());
  EXPECT_TRUE(ws.warm);
  p.set_rhs(0, 2.5);
  const PipelineResult second = pl.solve(p, &ws);
  EXPECT_TRUE(second.certified());
  EXPECT_EQ(second.stage, PipelineStage::WarmRevised);
  EXPECT_NEAR(second.result.objective, pl.solve(p).result.objective, 1e-9);
}

}  // namespace
}  // namespace agora::lp
