#include "agree/matrices.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

namespace agora::agree {

double AgreementSystem::share_out(std::size_t i) const {
  AGORA_REQUIRE(i < size(), "principal index out of range");
  double s = 0.0;
  for (std::size_t j = 0; j < size(); ++j) s += relative(i, j);
  return s;
}

void AgreementSystem::validate(bool allow_overdraft) const {
  const std::size_t n = size();
  AGORA_REQUIRE(relative.rows() == n && relative.cols() == n, "S shape mismatch");
  AGORA_REQUIRE(absolute.rows() == n && absolute.cols() == n, "A shape mismatch");
  AGORA_REQUIRE(retained.size() == n, "retained length mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    AGORA_REQUIRE(capacity[i] >= 0.0 && std::isfinite(capacity[i]),
                  "capacity must be non-negative and finite");
    AGORA_REQUIRE(retained[i] >= 0.0 && retained[i] <= 1.0 + 1e-12,
                  "retained fraction must lie in [0, 1]");
    AGORA_REQUIRE(relative(i, i) == 0.0, "S must have a zero diagonal");
    AGORA_REQUIRE(absolute(i, i) == 0.0, "A must have a zero diagonal");
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      AGORA_REQUIRE(relative(i, j) >= 0.0, "S entries must be non-negative");
      AGORA_REQUIRE(absolute(i, j) >= 0.0, "A entries must be non-negative");
      row += relative(i, j);
    }
    if (!allow_overdraft)
      AGORA_REQUIRE(row <= 1.0 + 1e-9,
                    "row sum of S exceeds 1 (overdraft); pass allow_overdraft to permit");
  }
}

std::vector<std::vector<std::size_t>> connected_components(const AgreementSystem& sys) {
  const std::size_t n = sys.size();
  AGORA_REQUIRE(sys.relative.rows() == n && sys.relative.cols() == n, "S shape mismatch");
  AGORA_REQUIRE(sys.absolute.rows() == n && sys.absolute.cols() == n, "A shape mismatch");
  // Union-find over one row-major pass of S and A. A union keeps the smaller
  // root, so every root is its component's smallest member.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto root = [&](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];  // path halving
    return i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> s = sys.relative.row(i);
    const std::span<const double> a = sys.absolute.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (!(s[j] > 0.0 || a[j] > 0.0)) continue;
      const std::size_t ri = root(i), rj = root(j);
      if (ri != rj) parent[std::max(ri, rj)] = std::min(ri, rj);
    }
  }
  // Visiting principals ascending emits components in order of their
  // smallest member (the root), each with its members ascending.
  std::vector<std::vector<std::size_t>> comps;
  std::vector<std::size_t> index(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = root(i);
    if (index[r] == n) {
      index[r] = comps.size();
      comps.emplace_back();
    }
    comps[index[r]].push_back(i);
  }
  return comps;
}

AgreementSystem induced_system(const AgreementSystem& sys,
                               const std::vector<std::size_t>& members) {
  const std::size_t m = members.size();
  AgreementSystem sub(m);
  for (std::size_t l = 0; l < m; ++l) {
    sub.capacity[l] = sys.capacity[members[l]];
    sub.retained[l] = sys.retained[members[l]];
    for (std::size_t k = 0; k < m; ++k) {
      sub.relative(l, k) = sys.relative(members[l], members[k]);
      sub.absolute(l, k) = sys.absolute(members[l], members[k]);
    }
  }
  return sub;
}

}  // namespace agora::agree
