#include "lp/brute_force.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "lp/standard_form.h"
#include "util/matrix.h"

namespace agora::lp {

namespace {

/// Count C(n, k) saturating at `cap`.
std::uint64_t binomial_capped(std::uint64_t n, std::uint64_t k, std::uint64_t cap) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    // r *= (n - k + i) / i, carefully.
    const double next = static_cast<double>(r) * static_cast<double>(n - k + i) /
                        static_cast<double>(i);
    if (next > static_cast<double>(cap)) return cap + 1;
    r = static_cast<std::uint64_t>(next + 0.5);
  }
  return r;
}

}  // namespace

SolveResult brute_force_solve(const Problem& p, BruteForceOptions opts) {
  SolveResult res;
  StandardForm sf = build_standard_form(p);
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();
  AGORA_REQUIRE(m <= n, "standard form must have at least as many columns as rows");
  AGORA_REQUIRE(binomial_capped(n, m, opts.max_bases) <= opts.max_bases,
                "problem too large for brute-force enumeration");

  std::vector<std::size_t> pick(m);
  std::iota(pick.begin(), pick.end(), 0);

  bool found = false;
  double best_obj = 0.0;
  std::vector<double> best_y;

  const auto evaluate = [&](const std::vector<std::size_t>& cols) {
    Matrix bmat(m, m);
    for (std::size_t c = 0; c < m; ++c)
      for (std::size_t k = sf.col_start[cols[c]]; k < sf.col_start[cols[c] + 1]; ++k)
        bmat.at_unchecked(sf.col_row[k], c) = sf.col_val[k];
    LuFactorization lu(bmat);
    if (lu.singular()) return;
    const std::vector<double> xb = lu.solve(sf.b);
    for (std::size_t c = 0; c < m; ++c) {
      if (xb[c] < -opts.tol) return;  // not primal feasible
      // A basic artificial above zero means the *original* system is not
      // satisfied at this basis.
      if (sf.is_artificial[cols[c]] && xb[c] > opts.tol) return;
    }
    double obj = sf.c0;
    for (std::size_t c = 0; c < m; ++c) obj += sf.c[cols[c]] * xb[c];
    if (!found || obj < best_obj - 1e-12) {
      found = true;
      best_obj = obj;
      best_y.assign(n, 0.0);
      for (std::size_t c = 0; c < m; ++c) best_y[cols[c]] = std::max(0.0, xb[c]);
    }
  };

  // Lexicographic enumeration of all m-subsets of {0..n-1}. With no rows
  // the empty basis is the only one, evaluated once.
  for (;;) {
    evaluate(pick);
    std::size_t i = m;  // advance the last position not at its maximum
    while (i > 0 && pick[i - 1] == i - 1 + n - m) --i;
    if (i == 0) break;
    ++pick[i - 1];
    for (std::size_t j = i; j < m; ++j) pick[j] = pick[j - 1] + 1;
  }
  if (!found) {
    res.status = Status::Infeasible;
    return res;
  }
  res.status = Status::Optimal;
  res.objective = sf.obj_scale * best_obj;
  res.x = recover_solution(sf, best_y, p.num_variables());
  return res;
}

}  // namespace agora::lp
