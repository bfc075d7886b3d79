// lp_sparse_test.cpp -- the sparse LU basis path of the revised simplex.
//
// Three contracts under test:
//   1. SparseLu itself: after a solve, the factored basis (LU + eta file)
//      must actually solve B x = b and B' y = c_B against the basis columns
//      it claims to represent.
//   2. Differential fuzz against the independent oracles: over random
//      corpora, the revised solver must certify under lp::Verifier and agree
//      on status and objective with brute-force enumeration wherever that
//      can run (well-conditioned), and any answer that certifies must match
//      brute-force enumeration (ill-conditioned).
//   3. Degenerate structure: problems with fixed variables, singleton rows
//      and empty rows must solve to answers (including duals) that certify
//      against the problem as posed.
// Plus the update-vs-refactorization property: long pivot sequences through
// the eta file must land on the same answers as a residual-forced
// refactorize-every-step run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/solve.h"
#include "lp/sparse_lu.h"
#include "lp/standard_form.h"
#include "lp/workspace.h"
#include "util/error.h"
#include "util/rng.h"

namespace agora::lp {
namespace {

SolveOptions sparse_opts() {
  SolveOptions o;
  o.backend = Backend::Revised;
  return o;
}

/// Brute-force enumeration through lp::solve, or nullopt past
/// kBruteForceMaxBases.
std::optional<SolveResult> enumerate(const Problem& p) {
  SolveOptions o = sparse_opts();
  o.backend = Backend::BruteForce;
  try {
    return lp::solve(p, o);
  } catch (const PreconditionError&) {
    return std::nullopt;
  }
}

/// Random box-bounded LP; bounded by construction so brute force can act as
/// an oracle on small instances. Mixed relations, moderate conditioning.
Problem random_lp(Pcg32& rng, std::size_t n, std::size_t m, double mag_span = 1.0) {
  Problem p(rng.next_double() < 0.5 ? Sense::Minimize : Sense::Maximize);
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform(-2.0, 1.0);
    p.add_variable(lo, lo + rng.uniform(0.5, 4.0),
                   rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-mag_span, mag_span)));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coeffs(n);
    for (auto& c : coeffs) {
      c = rng.next_double() < 0.4
              ? 0.0  // keep the matrix sparse so the LU path is exercised
              : rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-mag_span, mag_span));
    }
    const double pick = rng.next_double();
    const Relation rel = pick < 0.1    ? Relation::Equal
                         : pick < 0.45 ? Relation::GreaterEqual
                                       : Relation::LessEqual;
    p.add_constraint(std::move(coeffs), rel, rng.uniform(-3.0, 3.0));
  }
  return p;
}

/// Multiply the basis matrix (columns `basis[k]` of sf's CSC mirror) by a
/// position-indexed vector: out[row] = sum_k B[:,k] x[k].
std::vector<double> basis_times(const StandardForm& sf, const std::vector<std::size_t>& basis,
                                const std::vector<double>& x) {
  std::vector<double> out(sf.rows(), 0.0);
  for (std::size_t k = 0; k < basis.size(); ++k) {
    const std::size_t j = basis[k];
    for (std::size_t t = sf.col_start[j]; t < sf.col_start[j + 1]; ++t)
      out[sf.col_row[t]] += sf.col_val[t] * x[k];
  }
  return out;
}

// --------------------------------------------------------------- SparseLu ---

TEST(SparseLu, FtranBtranSolveAgainstTheFinalBasis) {
  Pcg32 rng(2024);
  const Problem p = random_lp(rng, 20, 14);
  SolveWorkspace ws;
  const SolveResult r = lp::solve(p, sparse_opts(), &ws);
  ASSERT_EQ(r.status, Status::Optimal);
  ASSERT_TRUE(ws.slu.factorized());
  const std::size_t m = ws.sf.rows();
  ASSERT_EQ(ws.slu.dim(), m);

  // FTRAN: x = B^-1 b, checked by multiplying back through the CSC columns.
  std::vector<double> x(ws.sf.b);
  ws.slu.ftran(x);
  const std::vector<double> bx = basis_times(ws.sf, ws.basis, x);
  double bnorm = 0.0;
  for (double v : ws.sf.b) bnorm = std::max(bnorm, std::fabs(v));
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(bx[i], ws.sf.b[i], 1e-8 * (1.0 + bnorm)) << "row " << i;

  // BTRAN: y = B^-T c_B, checked via y' B[:,k] == c_B[k].
  std::vector<double> cb(m);
  double cnorm = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    cb[k] = ws.sf.c[ws.basis[k]];
    cnorm = std::max(cnorm, std::fabs(cb[k]));
  }
  std::vector<double> y(cb);
  ws.slu.btran(y);
  for (std::size_t k = 0; k < m; ++k) {
    double dot = 0.0;
    const std::size_t j = ws.basis[k];
    for (std::size_t t = ws.sf.col_start[j]; t < ws.sf.col_start[j + 1]; ++t)
      dot += ws.sf.col_val[t] * y[ws.sf.col_row[t]];
    EXPECT_NEAR(dot, cb[k], 1e-8 * (1.0 + cnorm)) << "basis position " << k;
  }
}

TEST(SparseLu, ReportsFillInAndConditionTelemetry) {
  Pcg32 rng(7);
  const Problem p = random_lp(rng, 30, 22);
  SolveWorkspace ws;
  const SolveResult r = lp::solve(p, sparse_opts(), &ws);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_GT(r.stats.basis_nnz, 0u);
  EXPECT_GE(r.stats.lu_nnz, r.stats.basis_nnz == 0 ? 0u : 1u);
  EXPECT_GT(r.stats.condition_estimate, 0.0);
  EXPECT_GT(r.stats.refactorizations, 0u);
}

// ----------------------------- sparse vs brute force + Verifier, well-cond ---

TEST(SparseOracle, DifferentialFuzzAgreesAndCertifies) {
  Pcg32 rng(555);
  std::size_t optimal_seen = 0, enumerated = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 2 + rng.uniform_u32(8);
    const std::size_t m = 1 + rng.uniform_u32(8);
    const Problem p = random_lp(rng, n, m);
    const SolveResult sp = lp::solve(p, sparse_opts());
    const Certificate cs = Verifier().certify(p, sp);
    EXPECT_TRUE(cs.certified) << "trial " << trial << ": " << (cs.reject ? cs.reject : "");
    if (sp.status == Status::Optimal) ++optimal_seen;
    const std::optional<SolveResult> exact = enumerate(p);
    if (!exact) continue;
    ++enumerated;
    ASSERT_EQ(sp.status, exact->status) << "trial " << trial;
    if (sp.status != Status::Optimal) continue;
    EXPECT_NEAR(sp.objective, exact->objective, 1e-7 * (1.0 + std::fabs(exact->objective)))
        << "trial " << trial;
  }
  EXPECT_GE(optimal_seen, 20u);  // the corpus must not be degenerate
  EXPECT_GE(enumerated, 40u);    // ... nor beyond the oracle's reach
}

// ---------------------------------------------- ill-conditioned corpora -----

TEST(SparseOracle, IllConditionedCorpusNeverSilentlyWrong) {
  // Coefficients spanning ~6 orders of magnitude. The solver may fail near
  // singularity; the contract is weaker but checkable: any answer that
  // certifies must match exact enumeration.
  Pcg32 rng(31001);
  std::size_t certified = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform_u32(3);
    const std::size_t m = 1 + rng.uniform_u32(3);
    const Problem p = random_lp(rng, n, m, 3.0);
    const SolveResult exact = brute_force_solve(p);
    const SolveResult r = lp::solve(p, sparse_opts());
    Verifier v;
    const Certificate cert = v.certify(p, r);
    if (!cert.certified) continue;
    ++certified;
    if (cert.claim == Certificate::Claim::Optimal) {
      ASSERT_EQ(exact.status, Status::Optimal) << "trial " << trial;
      EXPECT_NEAR(r.objective, exact.objective, 1e-5 * (1.0 + std::fabs(exact.objective)))
          << "trial " << trial;
    } else if (cert.claim == Certificate::Claim::Infeasible) {
      EXPECT_EQ(exact.status, Status::Infeasible) << "trial " << trial;
    }
  }
  EXPECT_GE(certified, 20u);  // out of 30 attempts
}

// ------------------------------------- eta updates vs fresh factorization ---

TEST(SparseLu, EtaFileMatchesRefactorizeEveryStep) {
  // A dense random LP large enough for hundreds of pivots. The default run
  // carries pivots through the product-form eta file between periodic
  // refactorizations; the forced run (refactor_residual = 0) rebuilds the
  // LU whenever the xb residual is nonzero, i.e. essentially every
  // refinement checkpoint. Both must certify and land on the same optimum.
  Pcg32 rng(90210);
  const std::size_t n = 70, m = 50;
  Problem p;
  std::vector<double> interior(n);
  for (std::size_t j = 0; j < n; ++j) {
    interior[j] = rng.uniform(0.0, 1.0);
    p.add_variable(0.0, 3.0, rng.uniform(-2.0, 2.0));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coeffs(n);
    double at = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      coeffs[j] = rng.uniform(-1.0, 1.0);
      at += coeffs[j] * interior[j];
    }
    p.add_constraint(std::move(coeffs), Relation::LessEqual, at + 0.25);
  }

  const SolveResult lazy = lp::solve(p, sparse_opts());
  SolveOptions eager_opts = sparse_opts();
  eager_opts.tols.refactor_residual = 0.0;
  const SolveResult eager = lp::solve(p, eager_opts);

  ASSERT_EQ(lazy.status, Status::Optimal);
  ASSERT_EQ(eager.status, Status::Optimal);
  EXPECT_GT(lazy.iterations, kRefactorInterval);  // eta file really exercised
  EXPECT_GT(lazy.stats.max_eta_count, 0u);
  EXPECT_LE(lazy.stats.max_eta_count, kRefactorInterval);
  EXPECT_GT(eager.stats.residual_refactorizations, lazy.stats.residual_refactorizations);
  EXPECT_NEAR(lazy.objective, eager.objective, 1e-6 * (1.0 + std::fabs(eager.objective)));
  Verifier v;
  EXPECT_TRUE(v.certify(p, lazy).certified);
  EXPECT_TRUE(v.certify(p, eager).certified);
}

TEST(SparseLu, WarmSequencesReuseTheFactorizationAndStayCorrect) {
  // Long warm-started perturbation runs push etas into the factorization
  // across solves; every warm answer must match its cold counterpart.
  Pcg32 rng(777);
  Problem p;
  const std::size_t n = 10;
  for (std::size_t j = 0; j < n; ++j)
    p.add_variable(0.0, 1.0, 0.0);
  p.add_variable("theta", 0.0, kInfinity, 1.0);
  {
    std::vector<double> demand(n + 1, 1.0);
    demand[n] = 0.0;
    p.add_constraint(std::move(demand), Relation::Equal, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(n + 1, 0.0);
    for (std::size_t k = 0; k < n; ++k)
      row[k] = k == i ? rng.uniform(0.5, 1.0)
                      : (rng.next_double() < 0.3 ? rng.uniform(0.05, 0.4) : 0.0);
    row[n] = -1.0;
    p.add_constraint(std::move(row), Relation::LessEqual, 0.0);
  }

  SolveWorkspace ws;
  for (int step = 0; step < 150; ++step) {
    p.set_rhs(0, 0.2 + 0.01 * (step % 53));
    const SolveResult cold = lp::solve(p, sparse_opts());
    const SolveResult warm = lp::solve(p, sparse_opts(), &ws);
    ASSERT_EQ(cold.status, warm.status) << "step " << step;
    if (cold.status != Status::Optimal) continue;
    EXPECT_NEAR(cold.objective, warm.objective, 1e-7) << "step " << step;
    ASSERT_EQ(cold.duals.size(), warm.duals.size());
    for (std::size_t i = 0; i < cold.duals.size(); ++i)
      EXPECT_NEAR(cold.duals[i], warm.duals[i], 1e-7) << "step " << step << " dual " << i;
  }
}

// ------------------------------ fixed variables, singleton and empty rows ---

TEST(SparseOracle, FixedVariablesAndEmptyRowsCertify) {
  // Random corpora seeded with degenerate structure -- fixed variables,
  // singleton rows, empty rows, zero columns -- solved directly. Every
  // answer (solution and duals, or the infeasibility certificate) must
  // certify against the problem as posed.
  Pcg32 rng(424242);
  std::size_t optimal = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 3 + rng.uniform_u32(5);
    Problem p(rng.next_double() < 0.5 ? Sense::Minimize : Sense::Maximize);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_double() < 0.2) {
        const double v = rng.uniform(-1.0, 1.0);
        p.add_variable(v, v, rng.uniform(-2.0, 2.0));
      } else {
        const double lo = rng.uniform(-2.0, 0.5);
        p.add_variable(lo, lo + rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0));
      }
    }
    const std::size_t m = 2 + rng.uniform_u32(4);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<double> coeffs(n, 0.0);
      const double shape = rng.next_double();
      if (shape < 0.25) {
        // Singleton row.
        coeffs[rng.uniform_u32(static_cast<std::uint32_t>(n))] = rng.uniform(0.5, 2.0);
      } else if (shape < 0.32) {
        // Empty row (feasible or not -- the solver must decide it).
      } else {
        for (auto& c : coeffs)
          if (rng.next_double() < 0.6) c = rng.uniform(-1.5, 1.5);
      }
      const double pick = rng.next_double();
      const Relation rel = pick < 0.25   ? Relation::Equal
                           : pick < 0.6  ? Relation::GreaterEqual
                                         : Relation::LessEqual;
      p.add_constraint(std::move(coeffs), rel, rng.uniform(-2.0, 2.0));
    }

    const SolveResult r = lp::solve(p, sparse_opts());
    Verifier v;
    const Certificate cert = v.certify(p, r);
    EXPECT_TRUE(cert.certified) << "trial " << trial << ": "
                                << (cert.reject ? cert.reject : "");
    if (r.status != Status::Optimal) continue;
    ++optimal;
    ASSERT_EQ(r.x.size(), p.num_variables()) << "trial " << trial;
    if (!r.duals.empty()) {
      EXPECT_FALSE(cert.primal_only) << "trial " << trial;
    }
  }
  // The corpus must not pass vacuously on infeasible answers alone.
  EXPECT_GE(optimal, 10u);
}

}  // namespace
}  // namespace agora::lp
