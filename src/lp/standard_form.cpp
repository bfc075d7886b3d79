#include "lp/standard_form.h"

#include <cmath>

namespace agora::lp {

namespace {

Relation flipped(Relation rel) {
  if (rel == Relation::LessEqual) return Relation::GreaterEqual;
  if (rel == Relation::GreaterEqual) return Relation::LessEqual;
  return Relation::Equal;
}

}  // namespace

bool StandardForm::has_artificials() const {
  for (bool a : is_artificial)
    if (a) return true;
  return false;
}

StandardForm build_standard_form(const Problem& p) {
  StandardForm sf;
  rebuild_standard_form(p, sf);
  return sf;
}

void rebuild_standard_form(const Problem& p, StandardForm& sf) {
  p.validate();
  const std::size_t nv = p.num_variables();
  const std::size_t nc = p.num_constraints();

  sf.obj_scale = p.sense() == Sense::Minimize ? 1.0 : -1.0;
  sf.c0 = 0.0;
  sf.var_map.assign(nv, StandardForm::VarMap{});

  // --- 1. Lay out structural columns and the variable mapping. ------------
  std::size_t ncols = 0;
  std::size_t n_bound_rows = 0;
  for (std::size_t j = 0; j < nv; ++j) {
    const double lo = p.lower_bound(j);
    const double hi = p.upper_bound(j);
    const double cost = sf.obj_scale * p.objective_coeff(j);
    auto& vm = sf.var_map[j];
    if (std::isfinite(lo)) {
      vm.kind = StandardForm::VarMap::Kind::Shifted;
      vm.col = ncols++;
      vm.offset = lo;
      sf.c0 += cost * lo;
      if (std::isfinite(hi)) ++n_bound_rows;
    } else if (std::isfinite(hi)) {
      vm.kind = StandardForm::VarMap::Kind::Mirrored;
      vm.col = ncols++;
      vm.offset = hi;
      sf.c0 += cost * hi;
    } else {
      vm.kind = StandardForm::VarMap::Kind::Split;
      vm.col = ncols++;
      vm.neg_col = ncols++;
    }
  }
  sf.num_structural = ncols;

  // --- 2. Row pass: transformed rhs, negation, aux-column counts. ---------
  // Rows are the original constraints followed by one y <= hi - lo row per
  // finite-range shifted variable. Only the transformed rhs decides the
  // negation, so coefficients need not be materialized yet.
  const std::size_t m = nc + n_bound_rows;
  sf.b.assign(m, 0.0);
  sf.row_origin.assign(m, static_cast<std::size_t>(-1));
  sf.row_negated.assign(m, false);
  sf.offset_dot.assign(nc, 0.0);

  // rel_of(i): the row's relation after negation; recomputed on demand so no
  // scratch vector is needed.
  const auto base_rel = [&](std::size_t i) {
    return i < nc ? p.constraint(i).rel : Relation::LessEqual;
  };
  const auto rel_of = [&](std::size_t i) {
    return sf.row_negated[i] ? flipped(base_rel(i)) : base_rel(i);
  };

  for (std::size_t i = 0; i < nc; ++i) {
    const Constraint& con = p.constraint(i);
    double rhs = con.rhs;
    for (std::size_t j = 0; j < nv; ++j) {
      const double a = con.coeffs[j];
      if (a == 0.0) continue;
      const auto& vm = sf.var_map[j];
      if (vm.kind != StandardForm::VarMap::Kind::Split) rhs -= a * vm.offset;
    }
    sf.b[i] = rhs;
    sf.offset_dot[i] = con.rhs - rhs;
    sf.row_origin[i] = i;
  }
  {
    sf.bound_row_var.clear();
    std::size_t row = nc;
    for (std::size_t j = 0; j < nv; ++j) {
      const auto& vm = sf.var_map[j];
      if (vm.kind != StandardForm::VarMap::Kind::Shifted) continue;
      const double hi = p.upper_bound(j);
      if (!std::isfinite(hi)) continue;
      sf.bound_row_var.push_back(j);
      sf.b[row++] = hi - p.lower_bound(j);
    }
  }

  std::size_t n_slack = 0;
  std::size_t n_art = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (sf.b[i] < 0.0) {
      sf.b[i] = -sf.b[i];
      sf.row_negated[i] = true;
    }
    const Relation rel = rel_of(i);
    if (rel != Relation::Equal) ++n_slack;
    if (rel != Relation::LessEqual) ++n_art;
  }

  // --- 3. Size the arrays (reusing capacity) and set the costs. -----------
  const std::size_t total = ncols + n_slack + n_art;
  sf.c.assign(total, 0.0);
  for (std::size_t j = 0; j < nv; ++j) {
    const auto& vm = sf.var_map[j];
    const double cost = sf.obj_scale * p.objective_coeff(j);
    switch (vm.kind) {
      case StandardForm::VarMap::Kind::Shifted: sf.c[vm.col] = cost; break;
      case StandardForm::VarMap::Kind::Mirrored: sf.c[vm.col] = -cost; break;
      case StandardForm::VarMap::Kind::Split:
        sf.c[vm.col] = cost;
        sf.c[vm.neg_col] = -cost;
        break;
    }
  }
  sf.is_artificial.assign(total, false);
  sf.initial_basis.assign(m, 0);

  // --- 4. Auxiliary columns, in row order, and the starting basis: a
  // slack (<=), a surplus then an artificial (>=), or an artificial (=). ---
  std::size_t next_aux = ncols;
  for (std::size_t i = 0; i < m; ++i) {
    if (rel_of(i) == Relation::GreaterEqual) ++next_aux;  // surplus
    sf.initial_basis[i] = next_aux;
    sf.is_artificial[next_aux++] = rel_of(i) != Relation::LessEqual;
  }
  AGORA_INVARIANT(next_aux == total, "auxiliary column accounting mismatch");

  // --- 5. A in compressed columns. `for_each_entry` visits every nonzero as
  // (row, column, value) with rows ascending: a counting pass sizes the
  // columns, and a fill pass, advancing each column's start as its cursor,
  // keeps every column's entries sorted by row. -------------------------
  const auto for_each_entry = [&](auto&& emit) {
    for (std::size_t i = 0; i < m; ++i) {
      const double sgn = sf.row_negated[i] ? -1.0 : 1.0;
      if (i < nc) {
        const Constraint& con = p.constraint(i);
        for (std::size_t j = 0; j < nv; ++j) {
          const double a = con.coeffs[j];
          if (a == 0.0) continue;
          const auto& vm = sf.var_map[j];
          switch (vm.kind) {
            case StandardForm::VarMap::Kind::Shifted: emit(i, vm.col, sgn * a); break;
            case StandardForm::VarMap::Kind::Mirrored: emit(i, vm.col, -(sgn * a)); break;
            case StandardForm::VarMap::Kind::Split:
              emit(i, vm.col, sgn * a);
              emit(i, vm.neg_col, -(sgn * a));
              break;
          }
        }
      } else {
        emit(i, sf.var_map[sf.bound_row_var[i - nc]].col, sgn);
      }
      const std::size_t basic = sf.initial_basis[i];
      if (rel_of(i) == Relation::GreaterEqual) emit(i, basic - 1, -1.0);
      emit(i, basic, 1.0);
    }
  };
  sf.col_start.assign(total + 1, 0);
  for_each_entry([&](std::size_t, std::size_t j, double) { ++sf.col_start[j + 1]; });
  for (std::size_t j = 0; j < total; ++j) sf.col_start[j + 1] += sf.col_start[j];
  sf.col_row.resize(sf.col_start[total]);
  sf.col_val.resize(sf.col_start[total]);
  for_each_entry([&](std::size_t i, std::size_t j, double v) {
    const std::size_t at = sf.col_start[j]++;
    sf.col_row[at] = i;
    sf.col_val[at] = v;
  });
  for (std::size_t j = total; j > 0; --j) sf.col_start[j] = sf.col_start[j - 1];
  sf.col_start[0] = 0;

  // --- 6. The (A, c, shape) fingerprint, in (column, row) order. ----------
  double fp = static_cast<double>(m) * 1e6 + static_cast<double>(total) * 1e3;
  for (std::size_t j = 0; j < total; ++j)
    for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k)
      fp += sf.col_val[k] *
            (static_cast<double>(sf.col_row[k] + 1) * 0.5 + static_cast<double>(j + 1) * 1.25);
  for (std::size_t j = 0; j < total; ++j)
    fp += sf.c[j] * static_cast<double>(j + 1) * 1e-3;
  sf.fingerprint = fp;
  sf.source_id = p.instance_id();
  sf.source_rev = p.structural_revision();
}

bool repatch_standard_form_rhs(const Problem& p, StandardForm& sf) {
  if (sf.source_id == 0 || sf.source_id != p.instance_id() ||
      sf.source_rev != p.structural_revision())
    return false;
  const std::size_t nc = p.num_constraints();
  if (sf.offset_dot.size() != nc || sf.b.size() != nc + sf.bound_row_var.size())
    return false;
  // Validate before committing: a transformed rhs that changes sign changes
  // the row's negation, i.e. the coefficients of A -- full rebuild territory.
  // The matching structural revision already guarantees lower bounds and
  // bound finiteness are as built, so bound rows recompute as hi - lo.
  for (std::size_t i = 0; i < nc; ++i) {
    const double t = p.constraint(i).rhs - sf.offset_dot[i];
    if (!std::isfinite(t)) return false;
    if ((t < 0.0) != sf.row_negated[i]) return false;
  }
  for (std::size_t r = 0; r < sf.bound_row_var.size(); ++r) {
    const std::size_t j = sf.bound_row_var[r];
    const double t = p.upper_bound(j) - p.lower_bound(j);
    if (!std::isfinite(t)) return false;
    if ((t < 0.0) != sf.row_negated[nc + r]) return false;
  }
  for (std::size_t i = 0; i < nc; ++i) {
    const double t = p.constraint(i).rhs - sf.offset_dot[i];
    sf.b[i] = t < 0.0 ? -t : t;
  }
  for (std::size_t r = 0; r < sf.bound_row_var.size(); ++r) {
    const std::size_t j = sf.bound_row_var[r];
    const double t = p.upper_bound(j) - p.lower_bound(j);
    sf.b[nc + r] = t < 0.0 ? -t : t;
  }
  return true;
}

std::vector<double> recover_solution(const StandardForm& sf, const std::vector<double>& y,
                                     std::size_t num_original_vars) {
  AGORA_REQUIRE(num_original_vars == sf.var_map.size(), "variable count mismatch");
  std::vector<double> x(num_original_vars, 0.0);
  for (std::size_t j = 0; j < num_original_vars; ++j) {
    const auto& vm = sf.var_map[j];
    switch (vm.kind) {
      case StandardForm::VarMap::Kind::Shifted:
        x[j] = vm.offset + y.at(vm.col);
        break;
      case StandardForm::VarMap::Kind::Mirrored:
        x[j] = vm.offset - y.at(vm.col);
        break;
      case StandardForm::VarMap::Kind::Split:
        x[j] = y.at(vm.col) - y.at(vm.neg_col);
        break;
    }
  }
  return x;
}

}  // namespace agora::lp
