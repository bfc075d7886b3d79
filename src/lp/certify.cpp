#include "lp/certify.h"

#include <algorithm>
#include <cmath>

#include "util/matrix.h"

namespace agora::lp {

namespace {

/// max(residual, v) that never lets a NaN poison the running maximum
/// (NaN residuals are handled by the explicit finiteness checks instead).
void bump(double& residual, double v) {
  if (std::isfinite(v) && v > residual) residual = v;
}

/// bump(residual, num / den) without paying the divide unless this element
/// actually raises the maximum -- certification runs on every enforcement
/// solve, and on healthy answers nearly every ratio loses to the running
/// max, so the hot path is one multiply per element. `den` is always of the
/// form 1 + |...| > 0; a NaN in `num` fails the comparison and is skipped,
/// matching bump()'s NaN policy.
void bump_ratio(double& residual, double num, double den) {
  if (num > residual * den) {
    const double v = num / den;
    if (std::isfinite(v)) residual = v;
  }
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Relative violation of a constant (zero-variable) constraint row.
double constant_row_violation(const Constraint& c) {
  const double scale = 1.0 + std::fabs(c.rhs);
  switch (c.rel) {
    case Relation::LessEqual: return std::max(0.0, -c.rhs) / scale;
    case Relation::GreaterEqual: return std::max(0.0, c.rhs) / scale;
    case Relation::Equal: return std::fabs(c.rhs) / scale;
  }
  return 0.0;
}

}  // namespace

Certificate Verifier::certify(const Problem& p, const SolveResult& r) {
  switch (r.status) {
    case Status::Optimal: return certify_optimal(p, r.x, r.duals, r.objective);
    case Status::Infeasible: return certify_infeasible(p, r.farkas);
    case Status::Unbounded: return certify_unbounded(p, r.x, r.ray);
    case Status::IterationLimit: break;
  }
  Certificate cert;
  cert.reject = "solver hit its iteration limit: nothing to certify";
  return cert;
}

Certificate Verifier::certify_optimal(const Problem& p, const std::vector<double>& x,
                                      const std::vector<double>& duals, double objective) {
  Certificate cert;
  cert.claim = Certificate::Claim::Optimal;

  const std::size_t nv = p.num_variables();
  const std::size_t nc = p.num_constraints();

  if (x.size() != nv) {
    cert.reject = "solution vector has the wrong dimension";
    return cert;
  }
  if (!duals.empty() && duals.size() != nc) {
    cert.reject = "dual vector has the wrong dimension";
    return cert;
  }
  if (!std::isfinite(objective)) {
    cert.reject = "non-finite entry in claimed solution";
    return cert;
  }

  const double s = p.sense() == Sense::Minimize ? 1.0 : -1.0;
  const std::vector<double>& lob = p.lower_bounds();
  const std::vector<double>& hib = p.upper_bounds();
  const std::vector<double>& cost = p.objective();

  // --- One pass over the variables: bound feasibility, objective value
  // c'x, and the reduced-cost accumulators z_j = c~_j - sum_i y~_i a_ij
  // (zden_ carries the matching magnitude sum for the relative test; the
  // row terms are added in the constraint pass below). An infinite bound
  // needs no explicit guard: its violation is -inf (or its scale inf), and
  // bump_ratio's comparison rejects both without a divide. Finiteness of x
  // rides along as the |x| sum instead of a separate all_finite() pass: a
  // NaN or inf entry makes the sum non-finite (a sum of finite |x_j|
  // overflowing to inf is indistinguishable, but an answer with total
  // magnitude near 1e308 deserves rejection anyway). ------------------------
  z_.resize(nv);
  zden_.resize(nv);
  double primal_residual = 0.0;
  double cx = 0.0;
  double xmag = 0.0;
  for (std::size_t j = 0; j < nv; ++j) {
    const double lo = lob[j];
    const double hi = hib[j];
    xmag += std::fabs(x[j]);
    bump_ratio(primal_residual, lo - x[j], 1.0 + std::fabs(lo) + std::fabs(x[j]));
    bump_ratio(primal_residual, x[j] - hi, 1.0 + std::fabs(hi) + std::fabs(x[j]));
    const double craw = cost[j];
    cx += craw * x[j];
    const double cj = s * craw;
    z_[j] = cj;
    zden_[j] = 1.0 + std::fabs(cj);
  }
  if (!std::isfinite(xmag)) {
    cert.reject = "non-finite entry in claimed solution";
    return cert;
  }

  double dual_obj = 0.0;  // starts as b'y~, bound terms added below
  double dual_residual = 0.0;
  double compl_residual = 0.0;
  double ymag = 0.0;  // finiteness of the duals, same trick as xmag
  const bool have_duals = !duals.empty();
  double* __restrict zp = z_.data();
  double* __restrict zdp = zden_.data();
  const double* __restrict xp = x.data();
  const Constraint* rows = p.constraints().data();
  for (std::size_t i = 0; i < nc; ++i) {
    const Constraint& con = rows[i];
    // Coefficient vectors may be shorter than num_variables() when variables
    // were added after the constraint; the missing tail is zero.
    const std::size_t width = std::min(con.coeffs.size(), nv);
    const double y = have_duals ? s * duals[i] : 0.0;
    ymag += std::fabs(y);
    const double* __restrict ap = con.coeffs.data();
    double act = 0.0, mag = 0.0;
    // Branch-free fused pass: row activity and the y-weighted reduced-cost
    // update touch the same contiguous elements, and skipping zeros with a
    // branch costs more than multiplying by them (a zero coefficient
    // contributes exactly zero because x and y are already known finite).
    // The restrict-qualified locals tell the compiler the accumulators
    // cannot alias the coefficient row.
    if (y != 0.0) {
      for (std::size_t j = 0; j < width; ++j) {
        const double a = ap[j];
        const double ax = a * xp[j];
        act += ax;
        mag += std::fabs(ax);
        const double ya = y * a;
        zp[j] -= ya;
        zdp[j] += std::fabs(ya);
      }
    } else {
      for (std::size_t j = 0; j < width; ++j) {
        const double ax = ap[j] * xp[j];
        act += ax;
        mag += std::fabs(ax);
      }
    }
    const double row_scale = 1.0 + std::fabs(con.rhs) + mag;
    double viol = 0.0;
    switch (con.rel) {
      case Relation::LessEqual: viol = act - con.rhs; break;
      case Relation::GreaterEqual: viol = con.rhs - act; break;
      case Relation::Equal: viol = std::fabs(act - con.rhs); break;
    }
    bump_ratio(primal_residual, viol, row_scale);

    if (!have_duals) continue;
    const double y_scale = 1.0 + std::fabs(y);
    // Dual sign: raising the rhs of a <= row can only help a minimization,
    // so its (minimize-normalized) shadow price must be <= 0; mirrored for
    // >= rows; equality rows are free.
    if (con.rel == Relation::LessEqual) bump_ratio(dual_residual, y, y_scale);
    if (con.rel == Relation::GreaterEqual) bump_ratio(dual_residual, -y, y_scale);
    // Complementary slackness: a non-binding row must carry no price.
    if (con.rel != Relation::Equal)
      bump_ratio(compl_residual, std::fabs(y) * std::fabs(act - con.rhs),
                 y_scale * row_scale);
    dual_obj += y * con.rhs;
  }
  if (have_duals && !std::isfinite(ymag)) {
    cert.reject = "non-finite entry in claimed solution";
    return cert;
  }
  cert.primal_residual = primal_residual;
  cert.complementarity_residual = compl_residual;

  // --- Objective consistency: the reported value must match c'x. ----------
  bump_ratio(cert.objective_gap, std::fabs(cx - objective),
             1.0 + std::fabs(cx) + std::fabs(objective));

  if (!have_duals) {
    // No dual evidence (brute-force enumeration): certify feasibility and
    // objective consistency only.
    cert.primal_only = true;
    if (cert.primal_residual > tols_.feasibility)
      cert.reject = "claimed-optimal point is primal infeasible";
    else if (cert.objective_gap > tols_.objective_gap)
      cert.reject = "reported objective disagrees with c'x";
    cert.certified = cert.reject == nullptr;
    return cert;
  }

  // --- Stationarity: each variable's reduced cost must match which bound
  // (if any) the variable sits at. This is dual feasibility w.r.t. the
  // bound constraints plus their complementary slackness in one test. ------
  const double feas_tol = tols_.feasibility;
  for (std::size_t j = 0; j < nv; ++j) {
    const double lo = lob[j];
    const double hi = hib[j];
    const double zj = zp[j];
    const bool at_lo = std::isfinite(lo) && xp[j] - lo <= feas_tol * (1.0 + std::fabs(lo));
    const bool at_hi = std::isfinite(hi) && hi - xp[j] <= feas_tol * (1.0 + std::fabs(hi));
    double viol = 0.0;
    if (at_lo && at_hi) {
      viol = 0.0;  // fixed variable: any reduced cost is consistent
    } else if (at_lo) {
      viol = std::max(0.0, -zj);
    } else if (at_hi) {
      viol = std::max(0.0, zj);
    } else {
      viol = std::fabs(zj);
    }
    bump_ratio(dual_residual, viol, zdp[j]);

    // Bound contribution to the dual objective: a variable pinned by its
    // reduced cost contributes z_j times the bound it is pinned to.
    if (std::fabs(zj) <= tols_.dual * zdp[j]) continue;
    if (zj > 0.0 && std::isfinite(lo)) dual_obj += zj * lo;
    if (zj < 0.0 && std::isfinite(hi)) dual_obj += zj * hi;
  }
  cert.dual_residual = dual_residual;

  const double primal_obj = s * cx;
  bump(cert.objective_gap, std::fabs(primal_obj - dual_obj) /
                               (1.0 + std::fabs(primal_obj) + std::fabs(dual_obj)));

  if (cert.primal_residual > tols_.feasibility)
    cert.reject = "claimed-optimal point is primal infeasible";
  else if (cert.dual_residual > tols_.dual)
    cert.reject = "duals are sign-infeasible or reduced costs are non-stationary";
  else if (cert.complementarity_residual > tols_.complementarity)
    cert.reject = "complementary slackness violated";
  else if (cert.objective_gap > tols_.objective_gap)
    cert.reject = "primal-dual objective gap too large";
  cert.certified = cert.reject == nullptr;
  return cert;
}

Certificate Verifier::certify_admission(const Problem& p, const std::vector<double>& x,
                                        double objective) {
  Certificate cert;
  cert.claim = Certificate::Claim::Optimal;
  cert.primal_only = true;

  const std::size_t nv = p.num_variables();
  if (x.size() != nv) {
    cert.reject = "solution vector has the wrong dimension";
    return cert;
  }
  if (!std::isfinite(objective)) {
    cert.reject = "non-finite entry in claimed solution";
    return cert;
  }

  const std::vector<double>& lob = p.lower_bounds();
  const std::vector<double>& hib = p.upper_bounds();
  const std::vector<double>& cost = p.objective();

  double primal_residual = 0.0;
  double cx = 0.0;
  double xmag = 0.0;
  for (std::size_t j = 0; j < nv; ++j) {
    const double lo = lob[j];
    const double hi = hib[j];
    xmag += std::fabs(x[j]);
    bump_ratio(primal_residual, lo - x[j], 1.0 + std::fabs(lo) + std::fabs(x[j]));
    bump_ratio(primal_residual, x[j] - hi, 1.0 + std::fabs(hi) + std::fabs(x[j]));
    cx += cost[j] * x[j];
  }
  if (!std::isfinite(xmag)) {
    cert.reject = "non-finite entry in claimed solution";
    return cert;
  }

  const std::size_t nc = p.num_constraints();
  const Constraint* rows = p.constraints().data();
  const double* xp = x.data();
  for (std::size_t i = 0; i < nc; ++i) {
    const Constraint& con = rows[i];
    const std::size_t width = std::min(con.coeffs.size(), nv);
    const DotAbs row = vdot_abs(con.coeffs.data(), xp, width);
    double viol = 0.0;
    switch (con.rel) {
      case Relation::LessEqual: viol = row.value - con.rhs; break;
      case Relation::GreaterEqual: viol = con.rhs - row.value; break;
      case Relation::Equal: viol = std::fabs(row.value - con.rhs); break;
    }
    bump_ratio(primal_residual, viol, 1.0 + std::fabs(con.rhs) + row.magnitude);
  }
  cert.primal_residual = primal_residual;

  bump_ratio(cert.objective_gap, std::fabs(cx - objective),
             1.0 + std::fabs(cx) + std::fabs(objective));

  if (cert.primal_residual > tols_.feasibility)
    cert.reject = "claimed-optimal point is primal infeasible";
  else if (cert.objective_gap > tols_.objective_gap)
    cert.reject = "reported objective disagrees with c'x";
  cert.certified = cert.reject == nullptr;
  return cert;
}

Certificate Verifier::certify_infeasible(const Problem& p, const std::vector<double>& farkas) {
  Certificate cert;
  cert.claim = Certificate::Claim::Infeasible;

  if (p.num_variables() == 0) {
    // Constant problem: infeasibility is decidable by inspection.
    double worst = 0.0;
    for (std::size_t i = 0; i < p.num_constraints(); ++i)
      worst = std::max(worst, constant_row_violation(p.constraint(i)));
    cert.farkas_residual = worst;
    if (worst > tols_.feasibility) cert.certified = true;
    else cert.reject = "constant problem is feasible; infeasibility claim is wrong";
    return cert;
  }

  if (farkas.empty()) {
    cert.reject = "no Farkas certificate attached to the infeasibility claim";
    return cert;
  }
  if (!all_finite(farkas)) {
    cert.reject = "non-finite entry in Farkas certificate";
    return cert;
  }

  // The certificate lives in the row space of the standard form, which is
  // derived here independently from the problem data: repatched from its
  // rhs and bounds when sf_ was built from this problem's structure.
  if (!repatch_standard_form_rhs(p, sf_)) rebuild_standard_form(p, sf_);
  const std::size_t m = sf_.rows();
  if (farkas.size() != m) {
    cert.reject = "Farkas certificate has the wrong dimension";
    return cert;
  }

  double ynorm = 0.0;
  for (double y : farkas) ynorm = std::max(ynorm, std::fabs(y));
  if (ynorm == 0.0) {
    cert.reject = "Farkas certificate is identically zero";
    return cert;
  }

  // y'A_j <= 0 (up to slack) for every column of the real system -- the
  // artificial columns are not part of {A y = b, y >= 0}.
  for (std::size_t j = 0; j < sf_.cols(); ++j) {
    if (sf_.is_artificial[j]) continue;
    double t = 0.0, mag = 0.0;
    for (std::size_t k = sf_.col_start[j]; k < sf_.col_start[j + 1]; ++k) {
      const double v = farkas[sf_.col_row[k]] * sf_.col_val[k];
      t += v;
      mag += std::fabs(v);
    }
    bump(cert.farkas_residual, std::max(0.0, t) / (ynorm + mag));
  }

  double sigma = 0.0, bnorm = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    sigma += farkas[i] * sf_.b[i];
    bnorm = std::max(bnorm, std::fabs(sf_.b[i]));
  }

  if (cert.farkas_residual > tols_.farkas)
    cert.reject = "Farkas certificate violates y'A <= 0";
  else if (sigma < tols_.farkas * ynorm * (1.0 + bnorm))
    cert.reject = "Farkas certificate has y'b <= 0: proves nothing";
  cert.certified = cert.reject == nullptr;
  return cert;
}

Certificate Verifier::certify_unbounded(const Problem& p, const std::vector<double>& x,
                                        const std::vector<double>& ray) {
  Certificate cert;
  cert.claim = Certificate::Claim::Unbounded;

  if (ray.empty()) {
    cert.reject = "no ray attached to the unboundedness claim";
    return cert;
  }
  if (!all_finite(ray) || !all_finite(x)) {
    cert.reject = "non-finite entry in unboundedness certificate";
    return cert;
  }

  // Unboundedness = a feasible point plus an improving recession ray.
  if (x.size() != p.num_variables()) {
    cert.reject = "no feasible point attached to the unboundedness claim";
    return cert;
  }
  {
    // Reuse the optimal-claim machinery for the primal feasibility part.
    Certificate feas = certify_optimal(p, x, {}, p.objective_value(x));
    cert.primal_residual = feas.primal_residual;
    if (feas.primal_residual > tols_.feasibility) {
      cert.reject = "claimed feasible point of the unbounded problem is infeasible";
      return cert;
    }
  }

  if (!repatch_standard_form_rhs(p, sf_)) rebuild_standard_form(p, sf_);
  const std::size_t m = sf_.rows();
  const std::size_t n = sf_.cols();
  if (ray.size() != n) {
    cert.reject = "ray has the wrong dimension";
    return cert;
  }
  double dnorm = 0.0;
  for (double d : ray) dnorm = std::max(dnorm, std::fabs(d));
  if (dnorm == 0.0) {
    cert.reject = "ray is identically zero";
    return cert;
  }

  // d >= 0 and A d = 0 (checked scale-free on d / ||d||inf).
  z_.assign(m, 0.0);     // A d accumulator
  zden_.assign(m, 1.0);  // per-row magnitude of the cancellation
  double cd = 0.0, cd_mag = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d = ray[j] / dnorm;
    bump(cert.farkas_residual, -d);
    if (d == 0.0) continue;
    for (std::size_t k = sf_.col_start[j]; k < sf_.col_start[j + 1]; ++k) {
      const double v = sf_.col_val[k] * d;
      z_[sf_.col_row[k]] += v;
      zden_[sf_.col_row[k]] += std::fabs(v);
    }
    cd += sf_.c[j] * d;
    cd_mag += std::fabs(sf_.c[j] * d);
  }
  for (std::size_t i = 0; i < m; ++i) bump(cert.farkas_residual, std::fabs(z_[i]) / zden_[i]);

  if (cert.farkas_residual > tols_.farkas)
    cert.reject = "ray is not a non-negative recession direction (d >= 0, A d = 0)";
  else if (cd > -tols_.farkas * cd_mag)
    cert.reject = "ray does not improve the objective: c'd is not negative";
  cert.certified = cert.reject == nullptr;
  return cert;
}

}  // namespace agora::lp
