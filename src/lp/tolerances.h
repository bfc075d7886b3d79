// tolerances.h -- the single home for every numerical threshold the LP
// substrate uses.
//
// Before this file, feasibility and pivot epsilons were scattered as magic
// literals across the solvers;
// tightening one without the others produced solvers that disagreed about
// what "feasible" means. Tolerances centralizes them, and -- where a check
// compares a residual against a problem-dependent quantity -- the checks are
// RELATIVE: a residual of 1e-7 means nothing by itself when the rhs is 1e6,
// so thresholds scale as tol * (1 + norm) via scaled().
//
// The defaults preserve the historical absolute values on unit-scale
// problems (norm ~ 1), so well-conditioned solves behave exactly as before.
#pragma once

namespace agora::lp {

struct Tolerances {
  // --- Solver-internal thresholds. ----------------------------------------
  /// Simplex feasibility / reduced-cost / ratio-test pivot tolerance.
  double simplex = 1e-9;
  /// Basic values with |x| below this are snapped to zero (denormal clamp).
  double drop = 1e-12;
  /// Phase-1 artificial residual above which the problem is declared
  /// infeasible; applied relative to (1 + ||b||_inf).
  double artificial = 1e-7;
  /// Relative ||b - B x_B||_inf above which the basis is refactorized
  /// (residual-triggered refactorization, on top of the pivot-count cadence).
  double refactor_residual = 1e-8;

  // --- Certification (lp::Verifier). Deliberately looser than the solver
  // tolerances: a correct answer computed to 1e-9 must certify comfortably
  // at 1e-6, while a wrong one (off by >> 1e-6 relative) must not. ----------
  /// Relative primal residual (constraints and bounds).
  double feasibility = 1e-6;
  /// Relative dual sign / stationarity residual.
  double dual = 1e-6;
  /// Relative complementary-slackness residual.
  double complementarity = 1e-6;
  /// Relative primal-dual objective gap.
  double objective_gap = 1e-6;
  /// Slack for Farkas (infeasibility) and ray (unboundedness) certificates.
  double farkas = 1e-7;
};

/// A relative threshold: `tol` scaled by the magnitude of what is measured.
inline double scaled(double tol, double norm) { return tol * (1.0 + norm); }

}  // namespace agora::lp
