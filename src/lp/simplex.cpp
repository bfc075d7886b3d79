#include "lp/simplex.h"

#include <cmath>
#include <limits>
#include <vector>

#include "lp/standard_form.h"
#include "lp/tolerances.h"
#include "util/matrix.h"

namespace agora::lp {

namespace {

/// Mutable tableau state for one solve.
struct Tableau {
  Matrix a;                      // m x n working matrix
  std::vector<double> rhs;       // length m, kept >= 0 (up to tolerance)
  std::vector<double> cost;      // reduced-cost row, length n
  double cost_rhs = 0.0;         // negative of current objective value
  std::vector<std::size_t> basis;  // length m: basic column per row
  double drop = 1e-12;             // denormal clamp (Tolerances::drop)

  std::size_t rows() const { return rhs.size(); }
  std::size_t cols() const { return cost.size(); }

  /// Pivot on (prow, pcol): make column pcol basic in row prow.
  void pivot(std::size_t prow, std::size_t pcol) {
    const std::size_t n = cols();
    const double pv = a.at_unchecked(prow, pcol);
    double* prow_ptr = a.row(prow).data();
    const double inv = 1.0 / pv;
    for (std::size_t j = 0; j < n; ++j) prow_ptr[j] *= inv;
    rhs[prow] *= inv;
    prow_ptr[pcol] = 1.0;  // kill round-off on the pivot element

    for (std::size_t i = 0; i < rows(); ++i) {
      if (i == prow) continue;
      const double f = a.at_unchecked(i, pcol);
      if (f == 0.0) continue;
      double* rowi = a.row(i).data();
      for (std::size_t j = 0; j < n; ++j) rowi[j] -= f * prow_ptr[j];
      rowi[pcol] = 0.0;
      rhs[i] -= f * rhs[prow];
      if (std::fabs(rhs[i]) < drop) rhs[i] = 0.0;
    }
    const double cf = cost[pcol];
    if (cf != 0.0) {
      for (std::size_t j = 0; j < n; ++j) cost[j] -= cf * prow_ptr[j];
      cost[pcol] = 0.0;
      cost_rhs -= cf * rhs[prow];
    }
    basis[prow] = pcol;
  }

  /// Rebuild the cost row for objective `c` by pricing out basic columns.
  void load_objective(const std::vector<double>& c) {
    cost = c;
    cost_rhs = 0.0;
    for (std::size_t i = 0; i < rows(); ++i) {
      const double cb = c[basis[i]];
      if (cb == 0.0) continue;
      const double* rowi = a.row(i).data();
      for (std::size_t j = 0; j < cols(); ++j) cost[j] -= cb * rowi[j];
      cost_rhs -= cb * rhs[i];
    }
    for (std::size_t i = 0; i < rows(); ++i) cost[basis[i]] = 0.0;
  }
};

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit };

/// Run simplex iterations until optimality (no negative reduced cost) or
/// failure. `allowed` masks which columns may enter (artificials are barred
/// from re-entering in phase 2). On Unbounded, `*unbounded_enter` receives
/// the entering column whose tableau column had no blocking row.
PhaseOutcome run_phase(Tableau& t, const std::vector<bool>& allowed, double tol,
                       std::uint64_t& iterations, SolveStats& stats,
                       std::size_t* unbounded_enter = nullptr) {
  std::uint64_t degenerate_streak = 0;
  for (std::uint64_t it = 0; it < kMaxIterations; ++it) {
    const bool bland = degenerate_streak >= kStallThreshold;

    // --- Entering variable -------------------------------------------------
    std::size_t enter = t.cols();
    if (bland) {
      for (std::size_t j = 0; j < t.cols(); ++j) {
        if (allowed[j] && t.cost[j] < -tol) {
          enter = j;
          break;
        }
      }
    } else {
      double best = -tol;
      for (std::size_t j = 0; j < t.cols(); ++j) {
        if (allowed[j] && t.cost[j] < best) {
          best = t.cost[j];
          enter = j;
        }
      }
    }
    if (enter == t.cols()) return PhaseOutcome::Optimal;

    // --- Ratio test ---------------------------------------------------------
    std::size_t leave_row = t.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      const double aij = t.a.at_unchecked(i, enter);
      if (aij <= tol) continue;
      const double ratio = t.rhs[i] / aij;
      const bool better =
          ratio < best_ratio - tol ||
          // Tie-break on smallest basic index: Bland's rule when stalling,
          // and a deterministic choice otherwise.
          (ratio < best_ratio + tol && leave_row < t.rows() &&
           t.basis[i] < t.basis[leave_row]);
      if (better) {
        best_ratio = ratio;
        leave_row = i;
      }
    }
    if (leave_row == t.rows()) {
      if (unbounded_enter) *unbounded_enter = enter;
      return PhaseOutcome::Unbounded;
    }

    degenerate_streak = best_ratio <= tol ? degenerate_streak + 1 : 0;
    if (bland) ++stats.bland_pivots;
    t.pivot(leave_row, enter);
    ++iterations;
  }
  return PhaseOutcome::IterationLimit;
}

}  // namespace

SolveResult tableau_solve(const Problem& p, const SolveOptions& opts) {
  SolveResult res;
  if (p.num_variables() == 0) {
    // Degenerate but legal: feasibility depends only on constant constraints.
    res.status = Status::Optimal;
    res.objective = 0.0;
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      const auto& c = p.constraint(i);
      const double tol = scaled(opts.tols.drop, std::fabs(c.rhs));
      const bool ok = (c.rel == Relation::LessEqual && 0.0 <= c.rhs + tol) ||
                      (c.rel == Relation::GreaterEqual && 0.0 >= c.rhs - tol) ||
                      (c.rel == Relation::Equal && std::fabs(c.rhs) <= tol);
      if (!ok) res.status = Status::Infeasible;
    }
    return res;
  }

  StandardForm sf = build_standard_form(p);
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();

  Tableau t;
  t.a = sf.a;
  t.rhs = sf.b;
  t.basis = sf.initial_basis;
  t.cost.assign(n, 0.0);
  t.drop = opts.tols.drop;

  double bnorm = 0.0;
  for (double b : sf.b) bnorm = std::max(bnorm, std::fabs(b));

  std::vector<bool> allow_all(n, true);

  // --- Phase 1: drive artificials to zero. ---------------------------------
  if (sf.has_artificials()) {
    std::vector<double> phase1_cost(n, 0.0);
    for (std::size_t j = 0; j < n; ++j)
      if (sf.is_artificial[j]) phase1_cost[j] = 1.0;
    t.load_objective(phase1_cost);

    const PhaseOutcome out =
        run_phase(t, allow_all, opts.tols.simplex, res.iterations, res.stats);
    if (out == PhaseOutcome::IterationLimit) {
      res.status = Status::IterationLimit;
      return res;
    }
    AGORA_INVARIANT(out != PhaseOutcome::Unbounded, "phase-1 objective is bounded below by 0");
    const double art_sum = -t.cost_rhs;  // cost_rhs holds -objective
    if (art_sum > scaled(opts.tols.artificial, bnorm)) {
      // Farkas certificate from the phase-1 duals: the final reduced cost of
      // row i's initial basic column (coefficient +e_i) is c1_j - y_i, so
      // y_i = c1[init_i] - cost[init_i]. At phase-1 optimality y'A_j <= 0
      // for every real column and y'b = art_sum > 0.
      res.farkas.assign(m, 0.0);
      for (std::size_t i = 0; i < m; ++i)
        res.farkas[i] = phase1_cost[sf.initial_basis[i]] - t.cost[sf.initial_basis[i]];
      res.status = Status::Infeasible;
      return res;
    }
    // Pivot remaining basic artificials (at zero level) out of the basis
    // where possible; rows where no structural pivot exists are redundant
    // and harmless (the artificial stays basic at zero and is barred from
    // growing because phase 2 forbids artificial entry and rhs stays >= 0).
    for (std::size_t i = 0; i < m; ++i) {
      if (!sf.is_artificial[t.basis[i]]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (sf.is_artificial[j]) continue;
        if (std::fabs(t.a.at_unchecked(i, j)) > opts.tols.pivot_out) {
          t.pivot(i, j);
          break;
        }
      }
    }
  }

  // --- Phase 2: optimize the real objective. --------------------------------
  std::vector<bool> allowed(n, true);
  for (std::size_t j = 0; j < n; ++j)
    if (sf.is_artificial[j]) allowed[j] = false;
  t.load_objective(sf.c);

  std::size_t unbounded_enter = n;
  const PhaseOutcome out = run_phase(t, allowed, opts.tols.simplex, res.iterations, res.stats,
                                     &unbounded_enter);
  switch (out) {
    case PhaseOutcome::IterationLimit:
      res.status = Status::IterationLimit;
      return res;
    case PhaseOutcome::Unbounded: {
      // Ray certificate: the entering column q had no blocking row, so
      // d_q = 1, d_{basis[i]} = -a(i, q) is a non-negative recession
      // direction with A d = 0 and c'd < 0; the current basic point is the
      // feasible point it improves from.
      res.ray.assign(n, 0.0);
      res.ray[unbounded_enter] = 1.0;
      for (std::size_t i = 0; i < m; ++i) {
        double v = -t.a.at_unchecked(i, unbounded_enter);
        if (std::fabs(v) < opts.tols.drop) v = 0.0;
        res.ray[t.basis[i]] = v;
      }
      std::vector<double> ypoint(n, 0.0);
      for (std::size_t i = 0; i < m; ++i) ypoint[t.basis[i]] = t.rhs[i];
      res.x = recover_solution(sf, ypoint, p.num_variables());
      res.status = Status::Unbounded;
      return res;
    }
    case PhaseOutcome::Optimal:
      break;
  }

  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) y[t.basis[i]] = t.rhs[i];
  res.x = recover_solution(sf, y, p.num_variables());
  res.objective = sf.obj_scale * (-t.cost_rhs + sf.c0);

  // Shadow prices: the final reduced cost of row i's *initial* basic column
  // (slack or artificial, both with coefficient +e_i and phase-2 cost 0) is
  // -y_i where y = c_B B^{-1} is the standard-form dual. Map back through
  // row negation and the objective sense.
  res.duals.assign(p.num_constraints(), 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t origin = sf.row_origin[i];
    if (origin == static_cast<std::size_t>(-1)) continue;  // bound row
    const double y_std = -t.cost[sf.initial_basis[i]];
    res.duals[origin] = sf.obj_scale * (sf.row_negated[i] ? -y_std : y_std);
  }
  res.status = Status::Optimal;
  return res;
}

}  // namespace agora::lp
