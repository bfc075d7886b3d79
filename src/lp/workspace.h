// workspace.h -- reusable solve context for the revised simplex.
//
// The trace-driven enforcement loop solves thousands of LPs whose *structure*
// never changes: same constraint matrix A and objective c, with only bounds
// and rhs moving between solves. A SolveWorkspace passed to lp::solve
// (Backend::Revised) amortizes every per-solve allocation (the
// standard-form conversion, the basis factors, the pricing vectors) across
// calls, and carries the previous optimal basis as a warm start: when the
// matrix fingerprint matches, the solver re-uses the factored basis,
// recomputes x_B = B^-1 b for the perturbed rhs, and either goes
// straight to phase 2 (basis still primal feasible) or runs a bounded
// dual-simplex repair (basis stays dual feasible because A and c are
// unchanged). On any mismatch or repair failure it falls back to the cold
// path, whose behavior is bit-for-bit identical to a workspace-free solve.
//
// A workspace is single-threaded state: share one per (solver, model)
// pairing, never across concurrent solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/sparse_lu.h"
#include "lp/standard_form.h"

namespace agora::lp {

struct SolveWorkspace {
  // --- Amortized scratch: contents are meaningless between solves, but the
  // heap blocks persist so steady-state solves allocate nothing. ----------
  StandardForm sf;                  ///< standard-form rebuild target.
  std::vector<std::size_t> basis;   ///< current basis, length m.
  SparseLu slu;                     ///< factored basis: LU + eta file.
  std::vector<double> rho;          ///< B^-T e_r scratch (dual ratio test).
  std::vector<double> xb;           ///< current basic solution B^-1 b.
  std::vector<double> cb;           ///< basic cost gather.
  std::vector<double> y;            ///< btran output (simplex multipliers).
  std::vector<double> w;            ///< ftran output (pivot column).
  std::vector<double> cost1;        ///< phase-1 cost vector.
  std::vector<double> resid;        ///< b - B x_B residual / refinement scratch.
  std::vector<double> ysol;         ///< standard-form solution gather.
  std::vector<bool> in_basis;       ///< per-column basis membership.
  std::vector<bool> allowed;        ///< per-column entry permission.

  // --- Warm-start state: persists across solves. When `warm` is true,
  // warm_basis is the last optimal basis and warm_fingerprint identifies the
  // (A, c) it is valid for. A solve that ends without an optimum (an
  // infeasible rhs, say) keeps that basis: only b moved, so it stays dual
  // feasible for the next rhs. -----------------------------------------------
  bool warm = false;
  /// True while the retained factorization (slu) is that of
  /// warm_basis, i.e. the last solve ended at its optimum; otherwise the
  /// next warm entry refactorizes warm_basis.
  bool warm_factored = false;
  std::vector<std::size_t> warm_basis;
  std::size_t warm_rows = 0;
  std::size_t warm_cols = 0;
  double warm_fingerprint = 0.0;
  /// Eta updates applied to slu since its last full refactorization,
  /// accumulated *across* solves so drift stays bounded on long warm runs.
  std::uint64_t pivots_since_factor = 0;

  /// Forget the warm-start state (the scratch stays allocated). Call when
  /// the model structure is about to change.
  void invalidate() { warm = false; }
};

}  // namespace agora::lp
