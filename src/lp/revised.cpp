#include "lp/revised.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "lp/standard_form.h"
#include "lp/tolerances.h"
#include "util/matrix.h"

namespace agora::lp {

namespace {

/// Ratio-test pivots below this fraction of ||w||_inf are treated as
/// possible eta-file drift when the factorization is stale: refactorize and
/// recompute the column instead of committing the pivot (see run_phase).
constexpr double kEtaPivotStability = 1e-6;

/// x_B = B^-1 b with the denormal clamp refactorize() has always used,
/// writing into reused storage: copy b and run it through the factored basis.
void compute_xb(const StandardForm& sf, SolveWorkspace& W, const Tolerances& tols) {
  W.xb.assign(sf.b.begin(), sf.b.end());
  W.slu.ftran(W.xb);
  for (double& v : W.xb)
    if (std::fabs(v) < tols.drop) v = 0.0;
}

/// Refactorize the basis (fresh sparse LU, empty eta file) and rebuild xb.
/// Resets the cross-solve pivot counter. When `stats` is given, counts the
/// rebuild and refreshes the cheap condition estimate plus the sparsity
/// telemetry.
bool refactorize(const StandardForm& sf, SolveWorkspace& W, const Tolerances& tols,
                 SolveStats* stats = nullptr) {
  if (!W.slu.factorize(sf, W.basis)) return false;
  compute_xb(sf, W, tols);
  W.pivots_since_factor = 0;
  if (stats) {
    ++stats->refactorizations;
    stats->condition_estimate = W.slu.condition_estimate();
    stats->basis_nnz = W.slu.basis_nnz();
    stats->lu_nnz = W.slu.lu_nnz();
  }
  return true;
}

/// Relative residual ||b - B x_B||_inf / (1 + ||b||_inf). Leaves the raw
/// residual vector in W.resid so a refinement step can reuse it. Pure read
/// of the solve state: calling it never perturbs the iteration.
double xb_residual(const StandardForm& sf, SolveWorkspace& W) {
  const std::size_t m = sf.rows();
  W.resid.assign(m, 0.0);
  double bnorm = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    W.resid[r] = sf.b[r];
    bnorm = std::max(bnorm, std::fabs(sf.b[r]));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double x = W.xb[i];
    if (x == 0.0) continue;
    const std::size_t col = W.basis[i];
    for (std::size_t t = sf.col_start[col]; t < sf.col_start[col + 1]; ++t)
      W.resid[sf.col_row[t]] -= sf.col_val[t] * x;
  }
  double rnorm = 0.0;
  for (double v : W.resid) rnorm = std::max(rnorm, std::fabs(v));
  return rnorm / (1.0 + bnorm);
}

/// Numerical self-check on the basic solution: record the residual, rebuild
/// the factors if they have drifted past tolerance, then apply one step of
/// iterative refinement (x_B += B^-1 (b - B x_B)) to squeeze out the
/// remaining error. On a healthy basis the residual is ~machine epsilon and
/// this is a cheap no-op-sized correction.
void refine_xb(const StandardForm& sf, SolveWorkspace& W, const Tolerances& tols,
               SolveStats& stats) {
  double rel = xb_residual(sf, W);
  stats.max_xb_residual = std::max(stats.max_xb_residual, rel);
  if (rel > tols.refactor_residual) {
    ++stats.residual_refactorizations;
    if (!refactorize(sf, W, tols, &stats)) return;
    rel = xb_residual(sf, W);
  }
  if (rel == 0.0) return;
  ++stats.refinement_steps;
  W.rho.assign(W.resid.begin(), W.resid.end());
  W.slu.ftran(W.rho);
  for (std::size_t r = 0; r < sf.rows(); ++r) {
    W.xb[r] += W.rho[r];
    if (std::fabs(W.xb[r]) < tols.drop) W.xb[r] = 0.0;
  }
}

/// Relative residual ||B w - a_col||_inf / (1 + ||a_col||_inf) of the
/// tableau column W.w claimed for entering column `col`. Every column is
/// verified with this before the ratio test: the rhs-based
/// xb_residual check is structurally blind on heavily degenerate problems
/// (when every nonzero of x_B sits on a slack column, b - B x_B is exactly
/// zero no matter how far the eta file has drifted), and an unverified
/// drifted column can pivot a dependent column into the basis. O(nnz of the
/// basis columns w touches). Clobbers W.resid.
double tableau_column_residual(const StandardForm& sf, SolveWorkspace& W,
                               std::size_t col) {
  const std::size_t m = sf.rows();
  W.resid.assign(m, 0.0);
  double anorm = 0.0;
  for (std::size_t t = sf.col_start[col]; t < sf.col_start[col + 1]; ++t) {
    W.resid[sf.col_row[t]] = sf.col_val[t];
    anorm = std::max(anorm, std::fabs(sf.col_val[t]));
  }
  double bmax = 0.0;
  double wmax = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double wi = W.w[i];
    if (wi == 0.0) continue;
    wmax = std::max(wmax, std::fabs(wi));
    const std::size_t bcol = W.basis[i];
    for (std::size_t t = sf.col_start[bcol]; t < sf.col_start[bcol + 1]; ++t) {
      W.resid[sf.col_row[t]] -= sf.col_val[t] * wi;
      bmax = std::max(bmax, std::fabs(sf.col_val[t]));
    }
  }
  double rnorm = 0.0;
  for (double v : W.resid) rnorm = std::max(rnorm, std::fabs(v));
  // Normwise backward error: a stable solve satisfies
  // ||a - B w|| <= O(eps) * (||a|| + ||B|| ||w||), so the denominator must
  // scale with the solution. Dividing by (1 + ||a||) alone condemns every
  // solve whose tableau column is large -- on the degenerate allocation LPs
  // ||w|| reaches 1e3 and a perfectly stable solve shows an "absolute"
  // residual near 1e-7, which is eps-level once normalized.
  return rnorm / (1.0 + anorm + bmax * wmax);
}

/// Normwise backward error of the pricing solve: ||c_B - B' y|| over
/// (1 + ||c_B|| + ||B|| ||y||), with W.y as produced by btran. A small value
/// means the simplex multipliers -- and hence every reduced cost priced with
/// them -- are as trustworthy as if the eta file were empty, so optimality
/// can be declared on stale factors without a refactorization.
double dual_residual(const StandardForm& sf, SolveWorkspace& W) {
  const std::size_t m = sf.rows();
  double cmax = 0.0;
  double ymax = 0.0;
  double bmax = 0.0;
  double rnorm = 0.0;
  for (std::size_t i = 0; i < m; ++i) ymax = std::max(ymax, std::fabs(W.y[i]));
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t bcol = W.basis[i];
    double s = 0.0;
    for (std::size_t t = sf.col_start[bcol]; t < sf.col_start[bcol + 1]; ++t) {
      s += sf.col_val[t] * W.y[sf.col_row[t]];
      bmax = std::max(bmax, std::fabs(sf.col_val[t]));
    }
    cmax = std::max(cmax, std::fabs(W.cb[i]));
    rnorm = std::max(rnorm, std::fabs(W.cb[i] - s));
  }
  return rnorm / (1.0 + cmax + bmax * ymax);
}

/// w = B^-1 A_col: scatter the CSC column and sweep the LU factors + eta
/// file (work scales with the factor nonzeros).
void ftran(const StandardForm& sf, SolveWorkspace& W, std::size_t col) {
  W.w.assign(sf.rows(), 0.0);
  for (std::size_t t = sf.col_start[col]; t < sf.col_start[col + 1]; ++t)
    W.w[sf.col_row[t]] = sf.col_val[t];
  W.slu.ftran(W.w);
}

/// y' = c_B' B^-1 into W.y: transpose solve through the factored basis.
void btran(SolveWorkspace& W) {
  W.y.assign(W.cb.begin(), W.cb.end());
  W.slu.btran(W.y);
}

/// Reduced cost d_j = c_j - y' A_j over the column's nonzeros.
double reduced_cost(const StandardForm& sf, const SolveWorkspace& W,
                    const std::vector<double>& cost, std::size_t j) {
  const std::size_t start = sf.col_start[j];
  return cost[j] - gather_dot(W.y.data(), sf.col_row.data() + start,
                              sf.col_val.data() + start, sf.col_start[j + 1] - start);
}

/// Basis update after column `enter` (with tableau column W.w) replaces the
/// basic variable of row `leave`. W.w *is* the product-form eta vector, so
/// absorbing the pivot is one sparse copy; xb takes the same elementary
/// update.
void update(SolveWorkspace& W, std::size_t leave, std::size_t enter, const Tolerances& tols,
            SolveStats& stats) {
  const std::size_t m = W.basis.size();
  const double inv = 1.0 / W.w[leave];
  W.slu.push_eta(leave, W.w, tols.drop);
  stats.max_eta_count = std::max<std::uint64_t>(stats.max_eta_count, W.slu.eta_count());
  W.xb[leave] *= inv;
  for (std::size_t r = 0; r < m; ++r) {
    if (r == leave) continue;
    const double f = W.w[r];
    if (f == 0.0) continue;
    W.xb[r] -= f * W.xb[leave];
    if (std::fabs(W.xb[r]) < tols.drop) W.xb[r] = 0.0;
  }
  W.basis[leave] = enter;
  ++W.pivots_since_factor;
}

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit, NumericalFailure };

/// One simplex phase. On Unbounded, `*unbounded_enter` receives the entering
/// column whose tableau column (still in W.w) had no blocking row -- the raw
/// material of the unboundedness ray.
PhaseOutcome run_phase(const StandardForm& sf, SolveWorkspace& W,
                       const std::vector<double>& cost, const Tolerances& tols,
                       std::uint64_t& iterations, SolveStats& stats,
                       std::size_t* unbounded_enter = nullptr) {
  std::uint64_t degenerate_streak = 0;
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();
  const double tol = tols.simplex;
  W.in_basis.assign(n, false);
  for (std::size_t b : W.basis) W.in_basis[b] = true;

  // Partial pricing: scan candidate columns in blocks starting from a
  // rotating cursor and enter the best reduced cost of the first block that
  // has one; optimality is only declared after a full sweep of all n columns
  // finds none, so the claim is as strong as full Dantzig pricing.
  //
  // The block doubles after every degenerate pivot and snaps back to the
  // base size on real progress. On heavily degenerate problems a fixed
  // block is poison: every column it can see ties at ratio zero (the
  // allocation LPs are ring-symmetric, so whole blocks are interchangeable
  // junk), the cursor crawls, and the solver burns its stall budget before
  // ever seeing the distant column a full Dantzig scan would enter first.
  // Escalating to a full scan under degeneracy buys full pricing's stall
  // behavior while keeping block pricing where it pays.
  const std::size_t base_block = std::max<std::size_t>(64, n / 8);
  std::size_t price_block = base_block;
  std::size_t price_cursor = 0;

  for (std::uint64_t it = 0; it < kMaxIterations; ++it) {
    const bool bland = degenerate_streak >= kStallThreshold;
    // Periodic refactorization, keyed on the workspace-global pivot counter
    // so the eta file stays bounded by kRefactorInterval even across phase
    // transitions and warm re-entries (the eta file persists across both).
    // Cost-based cadence on top of the pivot count: once the eta file holds
    // more nonzeros than the LU factors themselves, every ftran/btran pays
    // more to replay the update history than to apply the factorization, so
    // rebuilding is cheaper than carrying on. This is what keeps the warm
    // consult loop's solves eta-light. The pivot floor stops the trigger
    // from thrashing early in phase 1, where the slack basis factors to
    // lu_nnz ~ m and a couple of etas already outweigh it even though the
    // file is still trivially cheap to replay.
    const bool eta_heavy =
        W.pivots_since_factor >= 8 && W.slu.eta_nnz() > W.slu.lu_nnz();
    if (W.pivots_since_factor >= kRefactorInterval || eta_heavy) {
      if (!refactorize(sf, W, tols, &stats)) return PhaseOutcome::NumericalFailure;
    } else if (W.pivots_since_factor > 0) {
      // Residual-triggered refactorization: elementary updates accumulate
      // drift between the periodic rebuilds; catch it as soon as the basic
      // solution stops satisfying its own defining system.
      const double rel = xb_residual(sf, W);
      stats.max_xb_residual = std::max(stats.max_xb_residual, rel);
      if (rel > tols.refactor_residual) {
        ++stats.residual_refactorizations;
        if (!refactorize(sf, W, tols, &stats)) return PhaseOutcome::NumericalFailure;
      }
    }
    // Price: y = c_B' B^-1, then reduced costs d_j = c_j - y' A_j over each
    // candidate column's nonzeros.
    W.cb.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) W.cb[r] = cost[W.basis[r]];
    btran(W);
    // While Bland's rule is active, insist on trustworthy pricing every
    // iteration, not just at optimality: the anti-cycling proof assumes
    // exact pivot selection, and eta drift in y (a column whose true reduced
    // cost is zero showing d < -tol) breaks it. A backward-stable y --
    // verified directly, one pass over the basis columns -- carries the same
    // error level as pricing off fresh factors, so only a failed check
    // forces the rebuild (refactorizing every Bland iteration
    // unconditionally costs more than the stall itself).
    if (bland && W.pivots_since_factor > 0 &&
        dual_residual(sf, W) > tols.refactor_residual) {
      ++stats.residual_refactorizations;
      if (!refactorize(sf, W, tols, &stats)) return PhaseOutcome::NumericalFailure;
      W.cb.assign(m, 0.0);
      for (std::size_t r = 0; r < m; ++r) W.cb[r] = cost[W.basis[r]];
      btran(W);
    }

    std::size_t enter = n;
    if (bland) {
      // Bland's rule: lowest-index improving column, scanned in full.
      for (std::size_t j = 0; j < n; ++j) {
        if (!W.allowed[j] || W.in_basis[j]) continue;
        if (reduced_cost(sf, W, cost, j) < -tol) {
          enter = j;
          break;
        }
      }
    } else {
      double best = -tol;
      std::size_t scanned = 0;
      while (scanned < n && enter == n) {
        const std::size_t limit = std::min(n, scanned + price_block);
        for (; scanned < limit; ++scanned) {
          std::size_t j = price_cursor + scanned;
          if (j >= n) j -= n;
          if (!W.allowed[j] || W.in_basis[j]) continue;
          const double d = reduced_cost(sf, W, cost, j);
          if (d < best) {
            best = d;
            enter = j;
          }
        }
      }
      if (enter != n) price_cursor = enter + 1 < n ? enter + 1 : 0;
    }
    if (enter == n) {
      // Only declare optimality against trustworthy pricing -- y came
      // through the eta file, and a drifted y can make an improving column
      // look priced-out. A backward-stable y (checked directly, one pass
      // over the basis columns) is as good as fresh factors; only when the
      // check fails is a rebuild + re-price needed. This keeps the warm
      // consult loop -- whose every solve ends here -- factorization-free.
      if (W.pivots_since_factor > 0 && dual_residual(sf, W) > tols.refactor_residual) {
        if (!refactorize(sf, W, tols, &stats)) return PhaseOutcome::NumericalFailure;
        continue;
      }
      return PhaseOutcome::Optimal;
    }

    ftran(sf, W, enter);
    // Verify the tableau column before the ratio test sees it. The
    // xb-residual trigger cannot catch eta drift on heavily degenerate
    // problems (see tableau_column_residual), and a pivot committed from a
    // drifted column can wedge a dependent column into the basis -- after
    // which every refactorization fails. A failed check first gets one step
    // of iterative refinement (the verification already left a - B w in
    // W.resid, so the correction is a single extra solve) -- that also
    // absorbs Markowitz element growth, which fresh factors inherit -- and
    // only an unrefinable column forces a refactorization.
    const auto refined_residual = [&](std::size_t col) {
      double rel = tableau_column_residual(sf, W, col);
      if (rel <= tols.refactor_residual) return rel;
      W.rho.assign(W.resid.begin(), W.resid.end());
      W.slu.ftran(W.rho);
      for (std::size_t i = 0; i < m; ++i) W.w[i] += W.rho[i];
      return tableau_column_residual(sf, W, col);
    };
    if (refined_residual(enter) > tols.refactor_residual && W.pivots_since_factor > 0) {
      ++stats.residual_refactorizations;
      if (!refactorize(sf, W, tols, &stats)) return PhaseOutcome::NumericalFailure;
      ftran(sf, W, enter);
      refined_residual(enter);
    }
    std::size_t leave = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    double wmax = 0.0;
    for (std::size_t r = 0; r < m; ++r) wmax = std::max(wmax, std::fabs(W.w[r]));
    // Eta-file stability floor (stale factors): an entry that is noise-sized
    // relative to the tableau column is as likely to be accumulated eta
    // drift as a real value -- pivoting on it can wedge a dependent column
    // into the basis (B becomes singular and the next refactorization
    // fails). With fresh factors the absolute tolerance already screens
    // drift (a true-zero entry resolves to ~eps * ||w||), so the relative
    // floor only applies while the eta file is non-empty -- and never under
    // Bland's rule, whose termination proof requires that every
    // truly-positive entry stay eligible to leave; there the verified (and
    // if needed refined) tableau column is the drift screen instead.
    const double pivot_floor = !bland && W.pivots_since_factor > 0
                                   ? std::max(tol, kEtaPivotStability * wmax)
                                   : tol;
    // Ratio-test tie-break: prefer the largest pivot among tied ratios
    // (degenerate LPs tie dozens of rows at ratio 0, and a noise-sized pivot
    // there poisons the product-form eta file); under Bland's rule keep the
    // lowest basis index -- its termination proof needs it.
    //
    // A basic column barred from entering is an artificial left in the
    // basis at level zero by a degenerate phase 1. Moving it either way
    // violates its original row, so it blocks at ratio 0 whichever sign its
    // entry has, and leaves the basis at level zero. Skipping it when
    // w_r < 0 would let it rise while a draw leaves its bound, and phase 2
    // would claim an optimum that breaks the row.
    for (std::size_t r = 0; r < m; ++r) {
      const bool pinned = !W.allowed[W.basis[r]];
      const double pivot = pinned ? std::fabs(W.w[r]) : W.w[r];
      if (pivot <= pivot_floor) continue;
      const double ratio = pinned ? 0.0 : W.xb[r] / W.w[r];
      bool better = ratio < best_ratio - tol;
      if (!better && ratio < best_ratio + tol && leave < m) {
        better = bland ? W.basis[r] < W.basis[leave]
                       : pivot > std::fabs(W.w[leave]);
      }
      if (better) {
        best_ratio = ratio;
        leave = r;
      }
    }
    if (leave == m) {
      // Unboundedness, like optimality, is only declared against fresh
      // factors: the relative floor may have screened out drift-sized
      // entries, and a drifted column can hide the true blocking row.
      if (W.pivots_since_factor > 0) {
        if (!refactorize(sf, W, tols, &stats)) return PhaseOutcome::NumericalFailure;
        continue;
      }
      if (unbounded_enter) *unbounded_enter = enter;
      return PhaseOutcome::Unbounded;
    }

    if (best_ratio <= tol) {
      ++degenerate_streak;
      price_block = std::min(n, price_block * 2);
    } else {
      degenerate_streak = 0;
      price_block = base_block;
    }
    if (bland) ++stats.bland_pivots;
    W.in_basis[W.basis[leave]] = false;
    W.in_basis[enter] = true;
    update(W, leave, enter, tols, stats);
    ++iterations;
  }
  return PhaseOutcome::IterationLimit;
}

/// Bounded dual-simplex repair: the warm basis is dual feasible for the
/// phase-2 cost (A and c are unchanged since it was optimal), so pivoting
/// negative basic variables out restores primal feasibility while keeping
/// optimality conditions. Returns false on any trouble (iteration bound,
/// no eligible entering column, numerical failure) -- the caller then falls
/// back to the cold two-phase start.
bool warm_repair(const StandardForm& sf, SolveWorkspace& W, const Tolerances& tols,
                 std::uint64_t& iterations, SolveStats& stats) {
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();
  const double tol = tols.simplex;
  const std::uint64_t limit = 2 * static_cast<std::uint64_t>(m) + 16;
  W.in_basis.assign(n, false);
  for (std::size_t b : W.basis) W.in_basis[b] = true;

  for (std::uint64_t it = 0; it < limit; ++it) {
    if (W.pivots_since_factor >= kRefactorInterval) {
      if (!refactorize(sf, W, tols, &stats)) return false;
    }
    // Most infeasible row leaves.
    std::size_t leave = m;
    double worst = -tol;
    for (std::size_t r = 0; r < m; ++r) {
      if (W.xb[r] < worst) {
        worst = W.xb[r];
        leave = r;
      }
    }
    if (leave == m) return true;  // primal feasible again

    W.cb.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) W.cb[r] = sf.c[W.basis[r]];
    btran(W);

    // Dual ratio test over the leaving row alpha_j = (B^-1)_leave . A_j.
    // The factored basis has no explicit inverse row; recover it as
    // rho = B^-T e_leave through the transpose solve.
    W.rho.assign(m, 0.0);
    W.rho[leave] = 1.0;
    W.slu.btran(W.rho);
    std::size_t enter = n;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (W.in_basis[j] || sf.is_artificial[j]) continue;
      double alpha = 0.0;
      for (std::size_t t = sf.col_start[j]; t < sf.col_start[j + 1]; ++t)
        alpha += W.rho[sf.col_row[t]] * sf.col_val[t];
      if (alpha >= -tol) continue;
      double d = reduced_cost(sf, W, sf.c, j);
      if (d < 0.0) d = 0.0;  // tolerance dust; the basis was optimal
      const double ratio = d / (-alpha);
      if (ratio < best_ratio - tol || (ratio < best_ratio + tol && enter < n && j < enter)) {
        best_ratio = ratio;
        enter = j;
      }
    }
    if (enter == n) return false;  // row cannot be repaired: let cold path decide

    ftran(sf, W, enter);
    // Same column verification as run_phase: never commit a pivot from a
    // drifted product-form solve (see tableau_column_residual).
    if (W.pivots_since_factor > 0 &&
        tableau_column_residual(sf, W, enter) > tols.refactor_residual) {
      ++stats.residual_refactorizations;
      if (!refactorize(sf, W, tols, &stats)) return false;
      ftran(sf, W, enter);
    }
    if (std::fabs(W.w[leave]) <= tol) return false;  // numerical mismatch
    W.in_basis[W.basis[leave]] = false;
    W.in_basis[enter] = true;
    update(W, leave, enter, tols, stats);
    ++iterations;
  }
  return false;
}

/// Re-seat the previous optimal basis against the rebuilt standard form.
/// Returns true when the workspace is primal feasible and phase 1 can be
/// skipped entirely.
bool try_warm_start(const StandardForm& sf, SolveWorkspace& W, const Tolerances& tols,
                    std::uint64_t& iterations, SolveStats& stats) {
  const std::size_t m = sf.rows();
  if (W.warm_basis.size() != m) return false;
  W.basis = W.warm_basis;
  const bool factored = W.warm_factored && W.slu.factorized() && W.slu.dim() == m;
  if (!factored || W.pivots_since_factor >= kRefactorInterval) {
    if (!refactorize(sf, W, tols, &stats)) return false;
  } else {
    // The basis matrix is unchanged (same columns of the same A), so the
    // retained factorization is still exact: only x_B = B^-1 b must be
    // recomputed.
    compute_xb(sf, W, tols);
    // Self-heal a drifted (or corrupted) retained factorization: if the
    // basic solution does not satisfy B x_B = b to tolerance, the cached
    // factors are no longer trustworthy -- rebuild them from the basis
    // before pricing a single column against them.
    const double rel = xb_residual(sf, W);
    stats.max_xb_residual = std::max(stats.max_xb_residual, rel);
    if (rel > tols.refactor_residual) {
      ++stats.residual_refactorizations;
      if (!refactorize(sf, W, tols, &stats)) return false;
    }
  }
  double bnorm = 0.0;
  for (std::size_t r = 0; r < m; ++r) bnorm = std::max(bnorm, std::fabs(sf.b[r]));
  double min_xb = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    // A basic artificial pushed positive means an original row is violated
    // at this basis; that needs phase 1, not repair.
    if (sf.is_artificial[W.basis[r]] && W.xb[r] > scaled(tols.artificial, bnorm))
      return false;
    min_xb = std::min(min_xb, W.xb[r]);
  }
  if (min_xb >= -tols.simplex) return true;
  return warm_repair(sf, W, tols, iterations, stats);
}

}  // namespace

SolveResult revised_solve(const Problem& p, const SolveOptions& opts, SolveWorkspace* ws) {
  const Tolerances& tols = opts.tols;
  SolveResult res;
  if (p.num_variables() == 0) {
    res.status = Status::Optimal;
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      const auto& c = p.constraint(i);
      const double tol = scaled(tols.drop, std::fabs(c.rhs));
      const bool ok = (c.rel == Relation::LessEqual && 0.0 <= c.rhs + tol) ||
                      (c.rel == Relation::GreaterEqual && 0.0 >= c.rhs - tol) ||
                      (c.rel == Relation::Equal && std::fabs(c.rhs) <= tol);
      if (!ok) res.status = Status::Infeasible;
    }
    return res;
  }

  std::optional<SolveWorkspace> local;
  SolveWorkspace& W = ws ? *ws : local.emplace();
  // rhs-only motion (the trace loop / allocator patch path) skips the full
  // conversion: b is recomputed in O(m) from the cached offset dots and the
  // matrix, costs, and fingerprint stay valid -- so the warm start below
  // still engages.
  if (!repatch_standard_form_rhs(p, W.sf)) rebuild_standard_form(p, W.sf);
  const StandardForm& sf = W.sf;
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();

  double bnorm = 0.0;
  for (std::size_t r = 0; r < m; ++r) bnorm = std::max(bnorm, std::fabs(sf.b[r]));

  // Warm start only when the previous optimum used the exact same (A, c):
  // the fingerprint keys on the matrix and objective, so bounds/rhs motion
  // (the trace-loop perturbation) warms up while anything else cold-starts.
  bool warmed = false;
  if (ws && W.warm && W.warm_rows == m && W.warm_cols == n &&
      W.warm_fingerprint == sf.fingerprint) {
    warmed = try_warm_start(sf, W, tols, res.iterations, res.stats);
  } else if (ws) {
    W.warm = false;
  }
  // From here on the factorization moves off warm_basis; only an optimal
  // exit (which re-seats warm_basis) re-establishes it.
  W.warm_factored = false;

  if (!warmed) {
    W.basis = sf.initial_basis;
    if (!refactorize(sf, W, tols, &res.stats)) {
      // The initial slack/artificial basis is an identity; failure here would
      // be a construction bug.
      res.status = Status::Infeasible;
      return res;
    }

    if (sf.has_artificials()) {
      W.cost1.assign(n, 0.0);
      for (std::size_t j = 0; j < n; ++j)
        if (sf.is_artificial[j]) W.cost1[j] = 1.0;
      W.allowed.assign(n, true);
      const PhaseOutcome out = run_phase(sf, W, W.cost1, tols, res.iterations, res.stats);
      if (out == PhaseOutcome::IterationLimit || out == PhaseOutcome::NumericalFailure) {
        res.status = Status::IterationLimit;
        return res;
      }
      double art_sum = 0.0;
      for (std::size_t r = 0; r < m; ++r)
        if (sf.is_artificial[W.basis[r]]) art_sum += W.xb[r];
      if (art_sum > scaled(tols.artificial, bnorm)) {
        // Phase 1 ended at a positive artificial sum: the problem is
        // infeasible, and the phase-1 duals y = c1_B' B^-1 are a Farkas
        // certificate -- every real column has non-negative phase-1 reduced
        // cost (y'A_j <= 0) while y'b equals the positive artificial sum.
        W.cb.assign(m, 0.0);
        for (std::size_t r = 0; r < m; ++r) W.cb[r] = W.cost1[W.basis[r]];
        btran(W);
        res.farkas = W.y;
        res.status = Status::Infeasible;
        return res;
      }
    }
  }

  W.allowed.assign(n, true);
  for (std::size_t j = 0; j < n; ++j)
    if (sf.is_artificial[j]) W.allowed[j] = false;

  std::size_t unbounded_enter = n;
  const PhaseOutcome out =
      run_phase(sf, W, sf.c, tols, res.iterations, res.stats, &unbounded_enter);
  switch (out) {
    case PhaseOutcome::IterationLimit:
    case PhaseOutcome::NumericalFailure:
      res.status = Status::IterationLimit;
      return res;
    case PhaseOutcome::Unbounded: {
      // Certificate: the entering column's tableau column w = B^-1 A_q had
      // no blocking row, so d with d_q = 1, d_{basis[r]} = -w_r is a
      // non-negative recession direction with A d = 0 and c'd < 0. The
      // current basic point (feasible by phase invariant) rides along as
      // the point the ray improves from.
      res.ray.assign(n, 0.0);
      res.ray[unbounded_enter] = 1.0;
      for (std::size_t r = 0; r < m; ++r) {
        double v = -W.w[r];
        if (std::fabs(v) < tols.drop) v = 0.0;
        res.ray[W.basis[r]] = v;
      }
      W.ysol.assign(n, 0.0);
      for (std::size_t r = 0; r < m; ++r) W.ysol[W.basis[r]] = W.xb[r];
      res.x = recover_solution(sf, W.ysol, p.num_variables());
      res.status = Status::Unbounded;
      return res;
    }
    case PhaseOutcome::Optimal:
      break;
  }

  // Numerical self-check + one refinement step before the answer leaves the
  // solver (see refine_xb).
  refine_xb(sf, W, tols, res.stats);

  W.ysol.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) W.ysol[W.basis[r]] = W.xb[r];
  res.x = recover_solution(sf, W.ysol, p.num_variables());
  double obj = sf.c0;
  for (std::size_t j = 0; j < n; ++j) obj += sf.c[j] * W.ysol[j];
  res.objective = sf.obj_scale * obj;

  // Shadow prices: y = c_B' B^{-1}, mapped through row negation and sense.
  {
    W.cb.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) W.cb[r] = sf.c[W.basis[r]];
    btran(W);
    res.duals.assign(p.num_constraints(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t origin = sf.row_origin[r];
      if (origin == static_cast<std::size_t>(-1)) continue;
      res.duals[origin] = sf.obj_scale * (sf.row_negated[r] ? -W.y[r] : W.y[r]);
    }
  }
  res.status = Status::Optimal;

  if (ws) {
    W.warm_basis = W.basis;
    W.warm_rows = m;
    W.warm_cols = n;
    W.warm_fingerprint = sf.fingerprint;
    W.warm = true;
    W.warm_factored = true;
  }
  return res;
}

}  // namespace agora::lp
