// matrix.h -- small dense linear-algebra kernels used by the agreement algebra
// and the LP substrate.
//
// The matrices in agora are modest (n = number of principals, or LP bases
// of a few hundred rows), so a simple contiguous row-major dense
// representation is the right tool: cache-friendly, trivially copyable,
// easy to reason about.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/error.h"

namespace agora {

/// Dense row-major matrix of doubles with value semantics.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Reshape to rows x cols with every entry set to `fill`, reusing the
  /// existing heap allocation when capacity allows. Hot-path friendly:
  /// repeated assign() to the same shape performs no allocation.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    AGORA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    AGORA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops.
  double& at_unchecked(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at_unchecked(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// View of row r as a contiguous span.
  std::span<double> row(std::size_t r) {
    AGORA_REQUIRE(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    AGORA_REQUIRE(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product (this * o).
  Matrix operator*(const Matrix& o) const;

  /// Matrix-vector product.
  std::vector<double> operator*(std::span<const double> v) const;

  Matrix transposed() const;

  /// Maximum absolute entry (infinity norm of the flattened matrix).
  double max_abs() const;

  /// True when every entry differs from `o` by at most `tol`.
  bool approx_equal(const Matrix& o, double tol = 1e-9) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Result of an LU factorization with partial pivoting.
class LuFactorization {
 public:
  /// Factor a square matrix. Throws PreconditionError on non-square input.
  explicit LuFactorization(const Matrix& a);

  /// True when the matrix was (numerically) singular; solve() then throws.
  bool singular() const { return singular_; }

  /// Solve A x = b for x.
  std::vector<double> solve(std::span<const double> b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

// --- Small vector helpers (used throughout the allocator & simulator) -----

/// Dot product. Spans must be the same length.
double dot(std::span<const double> a, std::span<const double> b);

/// Sum of all elements.
double sum(std::span<const double> v);

/// axpy: y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// L-infinity distance between two equally sized vectors.
double linf_distance(std::span<const double> a, std::span<const double> b);

// --- Vectorized kernels (hot-path math; see AGORA_SIMD in CMakeLists) -----
//
// The plan cache's re-certification accumulates capacity drops with
// `vaxpy`, and the revised simplex prices columns with `gather_dot`.
// `vaxpy` has an AVX2 path (compiled when AGORA_SIMD is on and the compiler
// targets AVX2) with explicit multiplies and adds, no FMA contraction; it is
// elementwise, so it is bit-identical to `axpy` and to the portable
// fallback, and callers may switch freely.
//
// They deliberately skip the length AGORA_REQUIREs of their scalar
// counterparts: every call site is an inner loop that has already validated
// its shapes once per solve, not once per element.

/// y += alpha * x, vector-width strides. Elementwise, hence bit-identical
/// to `axpy` and across builds.
void vaxpy(double alpha, const double* x, double* y, std::size_t n);
inline void vaxpy(double alpha, std::span<const double> x, std::span<double> y) {
  vaxpy(alpha, x.data(), y.data(), x.size());
}

/// Sparse gather dot: sum_t row[idx[t]] * val[t]. The revised simplex ftran
/// iterates basis-inverse rows against a CSC column with this.
double gather_dot(const double* row, const std::size_t* idx, const double* val,
                  std::size_t nnz);

}  // namespace agora
