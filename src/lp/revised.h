// revised.h -- revised primal simplex over a sparse-LU factored basis: the
// only simplex in agora.
//
// Two-phase primal simplex that iterates on a factorization of the m x m
// basis (lp/sparse_lu.h: Markowitz LU plus a product-form eta file) instead
// of a dense tableau: pricing touches the original sparse columns and every
// FTRAN/BTRAN costs in proportion to the factor and eta nonzeros, not to
// m * n. A workspace carries the optimal basis of one solve into the next,
// so a consult whose rhs and bounds moved re-enters at that basis (the
// micro_lp bench gates warm against cold solves).
#pragma once

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/solve.h"
#include "lp/workspace.h"

namespace agora::lp {

/// Solve `p` (Backend::Revised). `ws` (when non-null) supplies reusable
/// scratch and the previous optimal basis as a warm start. Contract: between
/// calls that share a workspace, only the problem's bounds and constraint
/// rhs may change -- a changed matrix or objective is detected via the
/// standard-form fingerprint and demoted to a cold start. Passing nullptr is
/// a cold solve.
SolveResult revised_solve(const Problem& p, const SolveOptions& opts, SolveWorkspace* ws);

}  // namespace agora::lp
