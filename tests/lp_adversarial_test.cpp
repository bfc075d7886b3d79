// Adversarial corpus for the certified solve chain: cycling-prone and
// degenerate problems, near-singular bases, wild coefficient ranges, random
// ill-conditioned systems, long warm-started perturbation sequences, and
// deliberately corrupted warm-start state. The contract under attack is
// always the same: every solve either returns a *certified* answer or an
// explicitly typed degraded status -- never a silent wrong answer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/solve.h"
#include "lp/solve_pipeline.h"
#include "lp/workspace.h"

namespace agora::lp {
namespace {

// Beale's classic cycling example: Dantzig pricing with a naive tie-break
// cycles forever on this LP. Optimum is -0.05 at (0.04, 0, 1, 0).
Problem beale() {
  Problem p(Sense::Minimize);
  p.add_variable("x1", 0.0, kInfinity, -0.75);
  p.add_variable("x2", 0.0, kInfinity, 150.0);
  p.add_variable("x3", 0.0, kInfinity, -0.02);
  p.add_variable("x4", 0.0, kInfinity, 6.0);
  p.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::LessEqual, 0.0);
  p.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::LessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::LessEqual, 1.0);
  return p;
}

// Nondegenerate at the optimum (x = 3, y = 1, all basics positive), which
// the warm-corruption tests below rely on: uniformly scaling the inverse the
// cached factors represent keeps x_B positive, so the poisoned warm start is
// accepted instead of bouncing to phase 1.
Problem warm_corpus() {
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, kInfinity, 2.0);
  p.add_variable("y", 0.0, kInfinity, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::GreaterEqual, 4.0);
  p.add_constraint({1.0, 0.0}, Relation::LessEqual, 3.0);
  p.add_constraint({0.0, 1.0}, Relation::LessEqual, 3.0);
  return p;
}

/// Poison the retained factorization so it represents `factor` * B^-1: one
/// eta per basis position whose column is the unit column scaled by
/// 1/factor (B E with E = I / factor).
void corrupt_inverse(SolveWorkspace& ws, double factor) {
  ASSERT_TRUE(ws.warm) << "corruption target must hold a warm basis";
  ASSERT_TRUE(ws.slu.factorized());
  std::vector<double> w(ws.slu.dim(), 0.0);
  for (std::size_t r = 0; r < w.size(); ++r) {
    w[r] = 1.0 / factor;
    ws.slu.push_eta(r, w, /*drop=*/0.0);
    w[r] = 0.0;
  }
  // Pretend the factors are fresh so only the residual check -- not the
  // periodic refactorization cadence -- can notice the damage.
  ws.pivots_since_factor = 0;
}

TEST(Adversarial, BealeCyclingExampleCertifiesOnBothEngines) {
  // The revised simplex and brute-force enumeration, each answer checked by
  // the Verifier on its own (no fallback stage behind it).
  const Problem p = beale();
  for (const Backend backend : {Backend::Revised, Backend::BruteForce}) {
    SolveOptions o;
    o.backend = backend;
    const SolveResult r = lp::solve(p, o);
    const Certificate cert = Verifier().certify(p, r);
    ASSERT_TRUE(cert.certified)
        << "backend " << to_string(backend) << ": "
        << (cert.reject ? cert.reject : "uncertified");
    EXPECT_EQ(cert.claim, Certificate::Claim::Optimal);
    EXPECT_NEAR(r.objective, -0.05, 1e-6);
  }
}

TEST(Adversarial, DegenerateTiesCertify) {
  // The optimum (1, 1) is degenerate: three constraints meet where only two
  // are needed, so ratio tests tie and pivots can stall at zero step length.
  Problem p(Sense::Maximize);
  p.add_variable("x", 0.0, kInfinity, 1.0);
  p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint({1.0, 0.0}, Relation::LessEqual, 1.0);
  p.add_constraint({0.0, 1.0}, Relation::LessEqual, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 2.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  ASSERT_TRUE(pr.certified());
  EXPECT_NEAR(pr.result.objective, 2.0, 1e-9);
}

TEST(Adversarial, NearSingularBasisCertifiesOrDegradesTyped) {
  // Two almost-parallel rows: the optimal basis is within 1e-10 of
  // singular, so the basis inverse is enormous and every elementary update
  // amplifies error. Whatever happens must be certified or typed.
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, 10.0, -1.0);
  p.add_variable("y", 0.0, 10.0, -1.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 2.0);
  p.add_constraint({1.0, 1.0 + 1e-10}, Relation::LessEqual, 2.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  EXPECT_TRUE(pr.certified() || pr.stage == PipelineStage::Exhausted);
  if (pr.certified() && pr.certificate.claim == Certificate::Claim::Optimal) {
    const SolveResult exact = brute_force_solve(p);
    ASSERT_EQ(exact.status, Status::Optimal);
    EXPECT_NEAR(pr.result.objective, exact.objective, 1e-6 * (1.0 + std::fabs(exact.objective)));
  }
}

TEST(Adversarial, CoefficientsSpanningEightOrdersOfMagnitude) {
  // Columns at 1e-8 and 1e8 in the same rows: absolute-epsilon tests either
  // drown the small column in noise or treat the large one as violated.
  // The relative (norm-scaled) tolerance policy must certify this anyway.
  Problem p(Sense::Minimize);
  p.add_variable("tiny", 0.0, kInfinity, 1e-8);
  p.add_variable("huge", 0.0, kInfinity, 1e8);
  p.add_variable("unit", 0.0, kInfinity, 1.0);
  p.add_constraint({1e8, 1.0, 0.0}, Relation::GreaterEqual, 1e8);
  p.add_constraint({0.0, 1e-8, 1.0}, Relation::GreaterEqual, 1.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  ASSERT_TRUE(pr.certified())
      << (pr.certificate.reject ? pr.certificate.reject : "uncertified");
  EXPECT_EQ(pr.certificate.claim, Certificate::Claim::Optimal);
  // Optimum: tiny = 1, unit = 1, huge = 0 -> objective 1e-8 + 1.
  EXPECT_NEAR(pr.result.objective, 1.0 + 1e-8, 1e-6);
}

TEST(Adversarial, RandomIllConditionedSystemsNeverAnswerSilentlyWrong) {
  std::mt19937 rng(20260806u);
  std::uniform_real_distribution<double> mag(-2.0, 2.0);   // 10^mag coefficient scales
  std::uniform_real_distribution<double> rhs_draw(0.5, 2.0);
  std::uniform_int_distribution<int> sign(0, 1);
  std::uniform_int_distribution<int> rel3(0, 2);

  std::size_t certified = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Problem p(Sense::Minimize);
    for (int j = 0; j < 4; ++j)
      p.add_variable(0.0, 10.0, (sign(rng) ? 1.0 : -1.0) * std::pow(10.0, mag(rng)));
    for (int i = 0; i < 3; ++i) {
      std::vector<double> row(4);
      for (double& a : row) a = (sign(rng) ? 1.0 : -1.0) * std::pow(10.0, mag(rng));
      const Relation rel = rel3(rng) == 0   ? Relation::LessEqual
                           : rel3(rng) == 1 ? Relation::GreaterEqual
                                            : Relation::Equal;
      p.add_constraint(row, rel, (sign(rng) ? 1.0 : -1.0) * rhs_draw(rng));
    }

    SolvePipeline pl;
    const PipelineResult pr = pl.solve(p);
    // The load-bearing invariant: certified, or explicitly exhausted.
    ASSERT_TRUE(pr.certified() || pr.stage == PipelineStage::Exhausted)
        << "trial " << trial << " returned an untyped answer";
    if (!pr.certified()) continue;
    ++certified;
    // Cross-check certified claims against exact enumeration (all variables
    // boxed, so Unbounded is impossible).
    const SolveResult exact = brute_force_solve(p);
    if (pr.certificate.claim == Certificate::Claim::Optimal) {
      ASSERT_EQ(exact.status, Status::Optimal) << "trial " << trial;
      EXPECT_NEAR(pr.result.objective, exact.objective,
                  1e-5 * (1.0 + std::fabs(exact.objective)))
          << "trial " << trial;
    } else if (pr.certificate.claim == Certificate::Claim::Infeasible) {
      EXPECT_EQ(exact.status, Status::Infeasible) << "trial " << trial;
    }
  }
  // The chain should survive the vast majority of the corpus, not just the
  // odd lucky instance.
  EXPECT_GE(certified, 35u);
}

TEST(Adversarial, WarmSequenceRecertifiesAcrossThousandPerturbations) {
  Problem p = warm_corpus();
  SolvePipeline pl;
  SolveWorkspace ws;
  std::size_t warm_solves = 0;
  for (int i = 0; i <= 1000; ++i) {
    // Deterministic rhs wobble keeps the fingerprint (A, c) fixed so the
    // warm path engages, while the optimum keeps moving.
    p.set_rhs(0, 4.0 + 0.002 * (i % 37));
    p.set_rhs(1, 3.0 + 0.01 * (i % 11));
    const PipelineResult pr = pl.solve(p, &ws);
    ASSERT_TRUE(pr.certified())
        << "solve " << i << ": "
        << (pr.certificate.reject ? pr.certificate.reject : "uncertified");
    if (pr.stage == PipelineStage::WarmRevised) ++warm_solves;
  }
  EXPECT_EQ(pl.stats().solves, 1001u);
  EXPECT_EQ(pl.stats().certified, 1001u);
  EXPECT_EQ(pl.stats().exhausted, 0u);
  // The whole point of the warm stage is that it carries the sequence.
  EXPECT_GT(warm_solves, 900u);
}

TEST(Adversarial, CorruptedInverseSelfHealsViaResidualTrigger) {
  // Poison the cached basis factors between warm solves. The residual check
  // in the warm-start path must notice that B x_B != b and refactorize
  // before pricing a single column -- same answer, one extra rebuild, no
  // fallback needed.
  const Problem p = warm_corpus();
  const SolveOptions opts;
  SolveWorkspace ws;
  const SolveResult clean = lp::solve(p, opts, &ws);
  ASSERT_EQ(clean.status, Status::Optimal);
  corrupt_inverse(ws, 1.5);
  const SolveResult healed = lp::solve(p, opts, &ws);
  ASSERT_EQ(healed.status, Status::Optimal);
  EXPECT_GE(healed.stats.residual_refactorizations, 1u);
  EXPECT_NEAR(healed.objective, clean.objective, 1e-9);
  Verifier v;
  const Certificate cert = v.certify(p, healed);
  EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");
}

TEST(Adversarial, CorruptedInverseFallsBackWhenHealingDisabled) {
  // Same poisoning, but with the residual trigger disabled the warm stage
  // has no way to notice and returns a wrong answer. The Verifier must
  // reject it and the pipeline must recover a certified answer from the
  // cold stage -- the corpus case where the warm path alone fails.
  PipelineOptions po;
  po.tols.refactor_residual = 1e30;  // turn off in-solver self-healing
  SolvePipeline pl(po);
  const Problem p = warm_corpus();
  SolveWorkspace ws;
  const PipelineResult clean = pl.solve(p, &ws);
  ASSERT_TRUE(clean.certified());
  ASSERT_TRUE(ws.warm);
  corrupt_inverse(ws, 1.5);
  const PipelineResult recovered = pl.solve(p, &ws);
  ASSERT_TRUE(recovered.certified())
      << (recovered.certificate.reject ? recovered.certificate.reject : "uncertified");
  EXPECT_GE(recovered.fallbacks, 1u);
  EXPECT_NE(recovered.stage, PipelineStage::WarmRevised);
  EXPECT_NEAR(recovered.result.objective, clean.result.objective, 1e-9);
  // Telemetry: the warm stage was attempted and failed certification.
  EXPECT_GE(pl.stats().failures[static_cast<int>(PipelineStage::WarmRevised)], 1u);
  EXPECT_GE(pl.stats().max_fallback_depth, 1u);
  // The poisoned basis must not survive into later solves.
  const PipelineResult after = pl.solve(p, &ws);
  EXPECT_TRUE(after.certified());
}

TEST(Adversarial, StallDetectionReportsBlandPivots) {
  // Force Bland's rule on by making every pivot degenerate: a cascade of
  // zero-rhs rows. The solve must terminate, certify, and account for the
  // anti-cycling pivots it took (possibly zero if Dantzig escapes early --
  // the hard requirement is termination + certification).
  Problem p(Sense::Minimize);
  p.add_variable("a", 0.0, kInfinity, -1.0);
  p.add_variable("b", 0.0, kInfinity, -1.0);
  p.add_variable("c", 0.0, kInfinity, 2.0);
  p.add_constraint({1.0, -1.0, 1.0}, Relation::LessEqual, 0.0);
  p.add_constraint({-1.0, 1.0, 1.0}, Relation::LessEqual, 0.0);
  p.add_constraint({1.0, 1.0, -1.0}, Relation::LessEqual, 1.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  EXPECT_TRUE(pr.certified() || pr.stage == PipelineStage::Exhausted);
  if (pr.certified() && pr.certificate.claim == Certificate::Claim::Optimal) {
    const SolveResult exact = brute_force_solve(p);
    if (exact.status == Status::Optimal) {
      EXPECT_NEAR(pr.result.objective, exact.objective, 1e-6);
    }
  }
}

}  // namespace
}  // namespace agora::lp
