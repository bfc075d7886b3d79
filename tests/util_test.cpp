// Unit tests for the util substrate: matrix/LU kernels, RNG distributions,
// streaming statistics, tables, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "util/csv.h"
#include "util/error.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/task_queue.h"

namespace agora {
namespace {

// ---------------------------------------------------------------- Matrix ---

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 4.5;
  EXPECT_DOUBLE_EQ(m(1, 2), 4.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), PreconditionError);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), PreconditionError);
  EXPECT_THROW(m(0, 2), PreconditionError);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, Arithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix s = a + b;
  EXPECT_DOUBLE_EQ(s(0, 0), 6.0);
  const Matrix d = b - a;
  EXPECT_DOUBLE_EQ(d(1, 1), 4.0);
  const Matrix sc = a * 2.0;
  EXPECT_DOUBLE_EQ(sc(1, 0), 6.0);
}

TEST(Matrix, Product) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 50.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, PreconditionError);
}

TEST(Matrix, MatVec) {
  Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1.0, 1.0};
  const auto r = a * std::span<const double>(v);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 7.0);
}

TEST(Matrix, Transposed) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, ApproxEqual) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b = a;
  b(0, 0) += 1e-12;
  EXPECT_TRUE(a.approx_equal(b));
  b(0, 0) += 1.0;
  EXPECT_FALSE(a.approx_equal(b));
}

// ------------------------------------------------------------------- LU ---

TEST(Lu, SolvesWellConditionedSystem) {
  Matrix a{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  const std::vector<double> b{5, 5, 3};
  const auto x = solve_linear_system(a, b);
  const auto back = a * std::span<const double>(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-10);
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1, 2}, {2, 4}};
  LuFactorization lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0, 1}, {1, 0}};
  const std::vector<double> b{2, 3};
  const auto x = solve_linear_system(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, Determinant) {
  Matrix a{{2, 0}, {0, 3}};
  LuFactorization lu(a);
  EXPECT_NEAR(lu.determinant(), 6.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_u32(8);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-5, 5);
    // Diagonal dominance keeps it nonsingular.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-10, 10);
    const auto x = solve_linear_system(a, b);
    const auto back = a * std::span<const double>(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], b[i], 1e-8);
  }
}

// --------------------------------------------------------------- vectors ---

TEST(VecOps, DotSumMax) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
  EXPECT_DOUBLE_EQ(max_element(a), 3.0);
}

TEST(VecOps, Axpy) {
  const std::vector<double> x{1, 2};
  std::vector<double> y{10, 20};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(VecOps, LinfDistance) {
  const std::vector<double> a{1, 5};
  const std::vector<double> b{2, 3};
  EXPECT_DOUBLE_EQ(linf_distance(a, b), 2.0);
}

// ------------------------------------------------------------------ RNG ---

TEST(Rng, Deterministic) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange) {
  Pcg32 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformU32Unbiased) {
  Pcg32 rng(11);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u32(3)];
  for (int c : counts) EXPECT_NEAR(c, n / 3, n / 30);
}

TEST(Rng, ExponentialMean) {
  Pcg32 rng(13);
  StreamingStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, PoissonMean) {
  Pcg32 rng(17);
  StreamingStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(static_cast<double>(rng.poisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.add(static_cast<double>(rng.poisson(120.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 120.0, 1.0);
}

TEST(Rng, LognormalMedian) {
  Pcg32 rng(19);
  Percentiles p;
  for (int i = 0; i < 20000; ++i) p.add(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(p.quantile(0.5), std::exp(1.0), 0.1);
}

TEST(Rng, ParetoSupport) {
  Pcg32 rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, SplitIndependence) {
  Pcg32 rng(29);
  Pcg32 a = rng.split(1);
  Pcg32 b = rng.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------- stats ---

TEST(StreamingStats, Basics) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(StreamingStats, MergeMatchesPooled) {
  Pcg32 rng(31);
  StreamingStats a, b, pooled;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0, 10);
    (i % 2 ? a : b).add(v);
    pooled.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, QuantilesOfUniform) {
  Histogram h(0.0, 1.0, 100);
  Pcg32 rng(37);
  for (int i = 0; i < 100000; ++i) h.add(rng.next_double());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
}

TEST(Histogram, OverUnderflow) {
  Histogram h(0.0, 1.0, 10);
  h.add(-1.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(SlottedSeries, RoutesToSlots) {
  SlottedSeries s(100.0, 10.0);
  EXPECT_EQ(s.slots(), 10u);
  s.add(5.0, 1.0);
  s.add(5.0, 3.0);
  s.add(95.0, 10.0);
  EXPECT_DOUBLE_EQ(s.slot(0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.slot(9).mean(), 10.0);
  EXPECT_DOUBLE_EQ(s.peak_slot_mean(), 10.0);
  EXPECT_EQ(s.peak_slot(), 9u);
  EXPECT_EQ(s.total_count(), 3u);
}

TEST(SlottedSeries, ClampsOutOfRange) {
  SlottedSeries s(10.0, 1.0);
  s.add(-5.0, 1.0);
  s.add(100.0, 2.0);
  EXPECT_EQ(s.slot(0).count(), 1u);
  EXPECT_EQ(s.slot(9).count(), 1u);
}

TEST(Percentiles, InterpolatedQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 5; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 2.0);
}

TEST(Percentiles, AddAfterQuantile) {
  Percentiles p;
  p.add(1.0);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 3.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 10.0);
}

// ----------------------------------------------------------------- Table ---

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({1.0, 2.0});
  t.add_row({3.5, -1.0});
  std::ostringstream ss;
  t.write_csv(ss);
  EXPECT_EQ(ss.str(), "a,b\n1,2\n3.5,-1\n");
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.5);
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), PreconditionError);
}

TEST(Table, CsvEscape) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
}

TEST(Table, PrettyHasHeaderAndRows) {
  Table t({"col"});
  t.add_row({1.25});
  std::ostringstream ss;
  t.write_pretty(ss, 2);
  EXPECT_NE(ss.str().find("col"), std::string::npos);
  EXPECT_NE(ss.str().find("1.25"), std::string::npos);
}

// --------------------------------------------------- vectorized kernels ---

namespace {
std::vector<double> ramp(std::size_t n, double base, double step) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + step * static_cast<double>(i);
  return v;
}
}  // namespace

TEST(VectorKernels, VaxpyBitIdenticalToAxpy) {
  for (std::size_t n : {0u, 1u, 5u, 64u, 131u}) {
    const auto x = ramp(n, 0.1, 0.7);
    auto y1 = ramp(n, 3.0, -0.2);
    auto y2 = y1;
    axpy(-1.75, x, y1);
    vaxpy(-1.75, x, y2);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]) << "n=" << n << " i=" << i;
  }
}

TEST(VectorKernels, VdotAbsValueAndMagnitude) {
  const std::vector<double> a = {1.0, -2.0, 3.0, -4.0, 5.0};
  const std::vector<double> x = {2.0, 2.0, 2.0, 2.0, 2.0};
  const DotAbs r = vdot_abs(a, x);
  EXPECT_NEAR(r.value, 6.0, 1e-12);
  EXPECT_NEAR(r.magnitude, 30.0, 1e-12);
}

TEST(VectorKernels, GatherDotMatchesDense) {
  const auto row = ramp(10, 1.0, 1.0);  // 1..10
  const std::size_t idx[] = {0, 3, 7};
  const double val[] = {2.0, -1.0, 0.5};
  // 1*2 - 4 + 8*0.5 = 2
  EXPECT_NEAR(gather_dot(row.data(), idx, val, 3), 2.0, 1e-12);
  EXPECT_EQ(gather_dot(row.data(), idx, val, 0), 0.0);
}

// ---------------------------------------------------------- BlockingQueue ---

TEST(BlockingQueue, SizeApproxTracksDepth) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.size_approx(), 0u);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size_approx(), 2u);
  std::vector<int> out;
  EXPECT_EQ(q.try_drain(out), 2u);
  EXPECT_EQ(q.size_approx(), 0u);
}

TEST(BlockingQueue, WaiterIsWokenByPush) {
  BlockingQueue<int> q;
  std::atomic<int> got{0};
  std::thread consumer([&] {
    int v = 0;
    if (q.wait_pop(v)) got.store(v);
  });
  // Give the consumer a chance to park before the (waiter-counted) notify.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.push(42);
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

}  // namespace
}  // namespace agora
