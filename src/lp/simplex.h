// simplex.h -- dense two-phase primal simplex over the full tableau.
//
// This is the reference solver: simple, exact for the small allocation LPs
// agora produces (tens of variables), and easy to audit. The revised simplex
// in revised.h is the faster implementation for larger instances; both share
// the standard-form conversion and are cross-checked in tests.
#pragma once

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/solve.h"

namespace agora::lp {

/// Solve a natural-form problem (Backend::Tableau; presolve is lp::solve's
/// business). Never throws for infeasible/unbounded inputs -- those are
/// reported in the result status.
SolveResult tableau_solve(const Problem& p, const SolveOptions& opts);

}  // namespace agora::lp
