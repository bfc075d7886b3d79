#include "lp/solve.h"

#include "lp/brute_force.h"
#include "lp/revised.h"

namespace agora::lp {

SolveResult solve(const Problem& p, const SolveOptions& opts, SolveWorkspace* ws) {
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

}  // namespace agora::lp
