#include "util/matrix.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#if defined(AGORA_SIMD_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace agora {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    AGORA_REQUIRE(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at_unchecked(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  AGORA_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  AGORA_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(const Matrix& o) const {
  AGORA_REQUIRE(cols_ == o.rows_, "shape mismatch in matrix product");
  Matrix out(rows_, o.cols_);
  // ikj loop order keeps the inner loop streaming over contiguous rows.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = at_unchecked(i, k);
      if (aik == 0.0) continue;
      const double* orow = o.data_.data() + k * o.cols_;
      double* outrow = out.data_.data() + i * o.cols_;
      for (std::size_t j = 0; j < o.cols_; ++j) outrow[j] += aik * orow[j];
    }
  }
  return out;
}

std::vector<double> Matrix::operator*(std::span<const double> v) const {
  AGORA_REQUIRE(cols_ == v.size(), "shape mismatch in matrix-vector product");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = dot(row(i), v);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.at_unchecked(j, i) = at_unchecked(i, j);
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Matrix::approx_equal(const Matrix& o, double tol) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::fabs(data_[i] - o.data_[i]) > tol) return false;
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < m.cols(); ++j) os << (j ? " " : "") << m(i, j);
    os << (i + 1 == m.rows() ? "]" : "\n");
  }
  return os;
}

LuFactorization::LuFactorization(const Matrix& a) : lu_(a), perm_(a.rows()) {
  AGORA_REQUIRE(a.rows() == a.cols(), "LU factorization needs a square matrix");
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest |entry| at or below the diagonal.
    std::size_t pivot = col;
    double best = std::fabs(lu_.at_unchecked(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu_.at_unchecked(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-13) {
      singular_ = true;
      return;
    }
    if (pivot != col) {
      std::swap(perm_[pivot], perm_[col]);
      perm_sign_ = -perm_sign_;
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu_.at_unchecked(pivot, j), lu_.at_unchecked(col, j));
    }
    const double d = lu_.at_unchecked(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = lu_.at_unchecked(r, col) / d;
      lu_.at_unchecked(r, col) = f;
      if (f == 0.0) continue;
      for (std::size_t j = col + 1; j < n; ++j)
        lu_.at_unchecked(r, j) -= f * lu_.at_unchecked(col, j);
    }
  }
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  AGORA_REQUIRE(!singular_, "cannot solve with a singular factorization");
  AGORA_REQUIRE(b.size() == lu_.rows(), "rhs length mismatch");
  const std::size_t n = lu_.rows();
  std::vector<double> x(n);
  // Forward substitution with the permuted rhs (L has implicit unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) v -= lu_.at_unchecked(i, j) * x[j];
    x[i] = v;
  }
  // Back substitution through U.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) v -= lu_.at_unchecked(ii, j) * x[j];
    x[ii] = v / lu_.at_unchecked(ii, ii);
  }
  return x;
}

double LuFactorization::determinant() const {
  if (singular_) return 0.0;
  double d = perm_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_.at_unchecked(i, i);
  return d;
}

std::vector<double> solve_linear_system(const Matrix& a, std::span<const double> b) {
  LuFactorization lu(a);
  AGORA_REQUIRE(!lu.singular(), "singular linear system");
  return lu.solve(b);
}

double dot(std::span<const double> a, std::span<const double> b) {
  AGORA_REQUIRE(a.size() == b.size(), "dot: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double sum(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double max_element(std::span<const double> v) {
  AGORA_REQUIRE(!v.empty(), "max_element of empty span");
  return *std::max_element(v.begin(), v.end());
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  AGORA_REQUIRE(x.size() == y.size(), "axpy: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double linf_distance(std::span<const double> a, std::span<const double> b) {
  AGORA_REQUIRE(a.size() == b.size(), "linf_distance: length mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

// --- Vectorized kernels ----------------------------------------------------
//
// The AVX2 path uses explicit mul+add (never fmadd), so -ffp-contract
// settings cannot make the sanitizer builds drift from the tier-1 build,
// and the fallback's four scalar accumulators replay the exact lane
// arithmetic of the 4-wide register. Tail elements are folded into lane
// (i % 4) in both paths.

#if defined(AGORA_SIMD_AVX2) && defined(__AVX2__)

DotAbs vdot_abs(const double* a, const double* x, std::size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc = _mm256_setzero_pd();
  __m256d mag = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(x + i));
    acc = _mm256_add_pd(acc, p);
    mag = _mm256_add_pd(mag, _mm256_andnot_pd(sign_mask, p));
  }
  alignas(32) double vlane[4], mlane[4];
  _mm256_store_pd(vlane, acc);
  _mm256_store_pd(mlane, mag);
  for (; i < n; ++i) {
    const double p = a[i] * x[i];
    vlane[i & 3] += p;
    mlane[i & 3] += std::fabs(p);
  }
  return {(vlane[0] + vlane[1]) + (vlane[2] + vlane[3]),
          (mlane[0] + mlane[1]) + (mlane[2] + mlane[3])};
}

void vaxpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                                          _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

#else  // scalar fallback, lane-for-lane identical to the AVX2 path

DotAbs vdot_abs(const double* a, const double* x, std::size_t n) {
  double vlane[4] = {0.0, 0.0, 0.0, 0.0};
  double mlane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double p = a[i + l] * x[i + l];
      vlane[l] += p;
      mlane[l] += std::fabs(p);
    }
  }
  for (; i < n; ++i) {
    const double p = a[i] * x[i];
    vlane[i & 3] += p;
    mlane[i & 3] += std::fabs(p);
  }
  return {(vlane[0] + vlane[1]) + (vlane[2] + vlane[3]),
          (mlane[0] + mlane[1]) + (mlane[2] + mlane[3])};
}

void vaxpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

#endif  // AGORA_SIMD_AVX2

double gather_dot(const double* row, const std::size_t* idx, const double* val,
                  std::size_t nnz) {
  double s = 0.0;
  for (std::size_t t = 0; t < nnz; ++t) s += row[idx[t]] * val[t];
  return s;
}

}  // namespace agora
