// standard_form.h -- conversion of a natural-form Problem into the canonical
// computational form the revised simplex and the brute-force oracle solve:
//
//     min c' y + c0    subject to  A y = b,  y >= 0,  b >= 0
//
// Variable handling:
//   * finite lower bound:            x = lo + y          (shift)
//   * lower bound -inf, finite hi:   x = hi - y          (mirror)
//   * free (both infinite):          x = y_pos - y_neg   (split)
//   * finite upper bound on shifted variables becomes an explicit <= row.
//
// Rows gain slack (<=), surplus (>=) and artificial (>=, =) columns; rows
// with negative rhs are negated first. The initial basis is the slack or
// artificial column of each row, which is feasible by construction for
// phase 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/problem.h"

namespace agora::lp {

struct StandardForm {
  std::vector<double> b;    ///< length m, all entries >= 0.
  std::vector<double> c;    ///< length n, phase-2 objective (minimization).
  double c0 = 0.0;          ///< objective constant from shifting/mirroring.
  double obj_scale = 1.0;   ///< +1 for Minimize problems, -1 for Maximize.

  /// How each original variable maps back from y.
  struct VarMap {
    enum class Kind { Shifted, Mirrored, Split } kind = Kind::Shifted;
    std::size_t col = 0;      ///< primary column (pos part for Split).
    std::size_t neg_col = 0;  ///< negative part for Split.
    double offset = 0.0;      ///< lo (Shifted) or hi (Mirrored).
  };
  std::vector<VarMap> var_map;

  std::size_t num_structural = 0;        ///< columns representing original vars.
  std::vector<bool> is_artificial;       ///< per column.
  std::vector<std::size_t> initial_basis;  ///< per row: the starting basic column.

  /// Original constraint index per row, or SIZE_MAX for synthetic bound
  /// rows; with `row_negated`, lets solvers map standard-form duals back to
  /// shadow prices of the original constraints.
  std::vector<std::size_t> row_origin;
  std::vector<bool> row_negated;

  /// The m x n constraint matrix A, compressed by column: column j's
  /// nonzeros are col_row/col_val[col_start[j] .. col_start[j+1]), with row
  /// indices ascending. The allocation LPs are very sparse (flow rows have 2
  /// nonzeros), so the revised simplex prices and ftrans over these arrays
  /// instead of paying dense O(m) per column.
  std::vector<std::size_t> col_start;  ///< length cols()+1.
  std::vector<std::size_t> col_row;    ///< nnz row indices.
  std::vector<double> col_val;         ///< nnz values.

  /// Order-deterministic digest of (A, c, shape). Two standard forms with
  /// equal fingerprints were built from problems with the same constraint
  /// matrix and objective -- only b (rhs / bounds) may differ. Warm starts
  /// key on this: a reused basis is only valid against an unchanged matrix.
  double fingerprint = 0.0;

  /// Per original-constraint row: sum_j a_ij * offset_j, the bound-shift
  /// contribution folded into b at build time. Cached so an rhs-only change
  /// can recompute b[i] = |rhs_i - offset_dot[i]| in O(1) per row without
  /// touching the matrix (see repatch_standard_form_rhs).
  std::vector<double> offset_dot;
  /// Per bound row (rows num_constraints()..rows()-1, in order): the
  /// original variable whose y <= hi - lo row it is. Lets a value-only
  /// upper-bound move repatch b without a rebuild.
  std::vector<std::size_t> bound_row_var;
  /// (instance_id, structural_revision) of the Problem this form was built
  /// from; repatch_standard_form_rhs refuses to patch when either moved.
  std::uint64_t source_id = 0;
  std::uint64_t source_rev = 0;

  std::size_t rows() const { return b.size(); }
  std::size_t cols() const { return c.size(); }
  bool has_artificials() const;
};

/// Build the standard form. Throws PreconditionError on invalid problems.
StandardForm build_standard_form(const Problem& p);

/// In-place variant: rebuilds `sf` from `p`, reusing all of `sf`'s heap
/// storage. Repeated calls with problems of identical shape perform no
/// allocations -- this is the per-request path of the trace-driven
/// enforcement loop. Produces exactly the same standard form as
/// build_standard_form(p).
void rebuild_standard_form(const Problem& p, StandardForm& sf);

/// Fast path for the consult loop's rhs-only motion -- Problem::set_rhs and
/// value-only Problem::set_bounds (the allocator's per-request patch): when
/// `sf` was built from this exact problem structure (same instance, same
/// structural revision) and no transformed rhs changes sign -- a sign flip
/// negates the row's coefficients, i.e. changes A -- update sf.b in place
/// (constraint rows from the cached offset dots, bound rows from the moved
/// bounds), O(rows), and return true. Any mismatch returns false with sf.b
/// possibly half-written; the caller must then rebuild_standard_form().
/// A, c, and the fingerprint are untouched, so warm starts keyed on the
/// fingerprint survive the patch.
bool repatch_standard_form_rhs(const Problem& p, StandardForm& sf);

/// Map a standard-form point y back to the original variable space.
std::vector<double> recover_solution(const StandardForm& sf, const std::vector<double>& y,
                                     std::size_t num_original_vars);

}  // namespace agora::lp
