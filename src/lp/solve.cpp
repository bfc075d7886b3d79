#include "lp/solve.h"

#include "lp/brute_force.h"
#include "lp/presolve.h"
#include "lp/revised.h"

namespace agora::lp {

namespace {

SolveResult solve_direct(const Problem& p, const SolveOptions& opts, SolveWorkspace* ws) {
  switch (opts.backend) {
    case Backend::Revised:
      return revised_solve(p, opts, ws);
    case Backend::BruteForce: {
      BruteForceOptions bf;
      bf.max_bases = kBruteForceMaxBases;
      bf.tol = opts.tols.simplex;
      return brute_force_solve(p, bf);
    }
  }
  AGORA_INVARIANT(false, "unknown backend");
  return {};
}

}  // namespace

SolveResult solve(const Problem& p, const SolveOptions& opts, SolveWorkspace* ws) {
  // Presolve is skipped for workspace solves (warm-start contract), for the
  // brute-force oracle, and for empty problems the solvers decide in O(m).
  const bool presolvable = opts.presolve && ws == nullptr &&
                           opts.backend != Backend::BruteForce && p.num_variables() > 0;
  if (!presolvable) return solve_direct(p, opts, ws);

  PresolveOutcome pre = presolve(p, opts.tols);
  if (pre.decided) {
    if (pre.decided->status != Status::Optimal) {
      // Decided-infeasible carries no Farkas certificate; the direct solve
      // produces one against the original problem.
      return solve_direct(p, opts, nullptr);
    }
    SolveResult r = *pre.decided;
    r.stats.presolve_rows_removed = pre.original_rows;
    r.stats.presolve_cols_removed = pre.original_vars;
    return r;
  }

  SolveResult r = solve_direct(pre.reduced, opts, nullptr);
  if (r.status != Status::Optimal) {
    // Infeasibility/unboundedness certificates live in the reduced space and
    // do not map back through the reductions; re-solve the original directly
    // so the caller gets certificates for the problem it posed.
    return solve_direct(p, opts, nullptr);
  }
  pre.postsolve(p, r, opts.tols);
  r.stats.presolve_rows_removed = pre.original_rows - pre.row_origin.size();
  r.stats.presolve_cols_removed = pre.original_vars - pre.var_origin.size();
  return r;
}

}  // namespace agora::lp
