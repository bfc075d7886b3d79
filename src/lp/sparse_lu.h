// sparse_lu.h -- sparse LU factorization of a simplex basis with
// product-form eta updates.
//
// The revised simplex only ever needs three operations on the basis matrix
// B (the m columns of the standard form selected by the current basis):
//
//   FTRAN:  solve B x = v      (entering column, x_B recompute, refinement)
//   BTRAN:  solve B' y = c     (pricing multipliers, dual rows, Farkas)
//   UPDATE: replace one column of B after a pivot
//
// An explicit dense m x m inverse would cost O(m^2) memory and O(m^2) work
// per iteration regardless of sparsity, and O(m^3) per refactorization.
// This class keeps B = L U in sparse factored form instead:
//
//   * Factorization is right-looking Gaussian elimination with MARKOWITZ
//     pivoting: each step picks an admissible pivot minimizing the fill
//     bound (r_i - 1)(c_j - 1), subject to a threshold test |a_ij| >=
//     tau * max|row i| (tau = 0.1), so sparsity is preserved without giving
//     up numerical stability. Candidate rows are kept in count-ordered
//     buckets and the search stops after examining a handful of rows that
//     offered an admissible pivot (Suhl-style candidate cap), so a step
//     costs O(candidate row nnz), not O(m * nnz). L holds
//     the multipliers per elimination step, U the pivot rows; both are
//     stored as pooled sparse arrays whose capacity survives
//     refactorization (the solve loop allocates nothing at steady state).
//
//   * Pivots between refactorizations are absorbed as PRODUCT-FORM eta
//     vectors: replacing the basic column at position r by a column with
//     tableau form w = B^-1 a_q appends the elementary matrix E = I +
//     (w - e_r) e_r', so B_new = B_old E and both solves just sweep the eta
//     file (FTRAN forward, BTRAN in reverse, transposed). The eta vector IS
//     the ftran result the ratio test already computed, so an update costs
//     exactly one sparse copy. The classical Forrest-Tomlin refinement
//     (folding the spike into U to keep the file shorter) is deliberately
//     not implemented: the refactorization cadence (every kRefactorInterval
//     pivots, plus the section-9 residual triggers in revised.cpp) bounds
//     the eta file far below where FT starts to win, and product form keeps
//     every update O(nnz(w)).
//
// The factorization is deterministic: identical input produces an identical
// pivot order, so solves are reproducible bit for bit across runs (the
// warm-start repeatability tests rely on this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/standard_form.h"

namespace agora::lp {

class SparseLu {
 public:
  /// Factorize the basis matrix whose i-th column is column basis[i] of
  /// sf's CSC mirror. Clears the eta file. Returns false when the basis is
  /// numerically singular (no admissible pivot at some step); the solve
  /// then reports a numerical failure.
  bool factorize(const StandardForm& sf, const std::vector<std::size_t>& basis);

  /// x := B^-1 x. On entry x is indexed by standard-form row; on exit by
  /// basis position. Applies the LU solve, then the eta file in order.
  void ftran(std::vector<double>& x) const;

  /// y := B^-T y. On entry y is indexed by basis position (a cost gather);
  /// on exit by standard-form row. Applies the eta file in reverse
  /// (transposed), then the LU transpose solve.
  void btran(std::vector<double>& y) const;

  /// Absorb a pivot: the basic column at position `pos` is replaced by a
  /// column whose current tableau form (B^-1 a_enter, etas included) is `w`.
  /// w[pos] must be the ratio-test pivot (nonzero). Entries with |w_i| <=
  /// drop are not stored -- they are at the level the solver's denormal
  /// clamp (Tolerances::drop) already discards.
  void push_eta(std::size_t pos, const std::vector<double>& w, double drop);

  bool factorized() const { return dim_ > 0; }
  std::size_t dim() const { return dim_; }
  std::size_t eta_count() const { return eta_pos_.size(); }
  /// Nonzeros currently held in the eta file.
  std::size_t eta_nnz() const { return eta_idx_.size(); }
  /// Nonzeros of L + U (diagonals included) at the last factorization.
  std::size_t lu_nnz() const { return lu_nnz_; }
  /// Nonzeros of the basis columns handed to the last factorization; the
  /// difference lu_nnz() - basis_nnz() is the factorization fill-in.
  std::size_t basis_nnz() const { return basis_nnz_; }
  /// Cheap condition proxy: ||B||_inf scaled by the extreme U diagonals
  /// (|d|max / |d|min bounds the growth the elimination admitted).
  double condition_estimate() const;

 private:
  struct Entry {
    std::size_t col;
    double val;
  };

  std::size_t dim_ = 0;
  std::size_t lu_nnz_ = 0;
  std::size_t basis_nnz_ = 0;
  double bnorm_ = 0.0;     ///< ||B||_inf of the factored matrix.
  double udiag_max_ = 0.0;
  double udiag_min_ = 0.0;

  // L: per elimination step k, the multipliers (row, m) applied below the
  // pivot; stored pooled in step order.
  std::vector<std::size_t> l_start_;  ///< length dim_+1.
  std::vector<std::size_t> l_row_;
  std::vector<double> l_val_;
  // U: per step k, the pivot row (diag first), columns in basis-position
  // space; stored pooled in step order.
  std::vector<std::size_t> u_start_;  ///< length dim_+1.
  std::vector<std::size_t> u_col_;
  std::vector<double> u_val_;
  std::vector<double> u_diag_;        ///< per step.
  std::vector<std::size_t> pivot_row_;  ///< step -> standard-form row.
  std::vector<std::size_t> pivot_col_;  ///< step -> basis position.

  // Product-form eta file (cleared on factorize).
  std::vector<std::size_t> eta_start_;  ///< length eta_count()+1.
  std::vector<std::size_t> eta_pos_;    ///< leaving basis position per eta.
  std::vector<double> eta_pivot_;       ///< w[pos] per eta.
  std::vector<std::size_t> eta_idx_;
  std::vector<double> eta_val_;

  // Factorization workspace (capacity persists across refactorizations).
  std::vector<std::vector<Entry>> rows_;
  std::vector<std::size_t> row_count_, col_count_;
  std::vector<std::vector<std::size_t>> col_rows_;
  // Pivot-search acceleration: rows bucketed by current count, maintained
  // lazily (entries go stale when counts change and are dropped as the
  // search touches them). row_bucket_[i] is the count row i was last
  // enqueued under, so a row is never double-enqueued into its own bucket.
  std::vector<std::vector<std::size_t>> cnt_bucket_;
  std::vector<std::size_t> row_bucket_;
  std::vector<bool> row_alive_, col_alive_;
  std::vector<double> merge_val_;      ///< dense accumulator for row merges.
  std::vector<unsigned char> merge_mark_;
  std::vector<std::size_t> merge_cols_;
  // Solve scratch (mutable: ftran/btran are logically const).
  mutable std::vector<double> scratch_;
};

}  // namespace agora::lp
