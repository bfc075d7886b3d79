#include "alloc/model_cache.h"

#include <algorithm>
#include <numeric>

#include "lp/model_builder.h"

namespace agora::alloc {

void AllocationModelCache::build(const agree::AgreementSystem& sys,
                                 const agree::CapacityReport& report) {
  std::vector<std::size_t> all(sys.size());
  std::iota(all.begin(), all.end(), 0);
  build(sys, report, std::move(all));
}

void AllocationModelCache::build(const agree::AgreementSystem& sys,
                                 const agree::CapacityReport& report,
                                 std::vector<std::size_t> members) {
  const std::size_t m = members.size();
  lp::ModelBuilder mb(lp::Sense::Minimize);
  // Same variable and row order as the historical per-request build in
  // Allocator::solve_compact, but unnamed. Bounds/rhs are placeholders.
  std::vector<lp::Var> d = mb.add_vars(m, 0.0, 0.0);
  const lp::Var theta = mb.add_var(0.0);

  mb.add(lp::sum(d) == 0.0, "demand");

  for (const std::size_t i : members) {
    lp::LinExpr drop;
    for (std::size_t l = 0; l < m; ++l) {
      const std::size_t k = members[l];
      const double coeff = k == i ? sys.retained[i] : report.shares(k, i);
      if (coeff > 0.0) drop += coeff * d[l];
    }
    mb.add(drop - 1.0 * theta <= 0.0, "perturb");
  }

  mb.minimize(lp::LinExpr(theta));
  problem_ = std::move(mb.problem());
  farkas_.assign(2 * m + 1, 0.0);
  farkas_[0] = 1.0;
  std::fill(farkas_.begin() + static_cast<std::ptrdiff_t>(m + 1), farkas_.end(), -1.0);
  members_ = std::move(members);
  built_ = true;
  ws_.invalidate();
}

void AllocationModelCache::patch(const agree::CapacityReport& report, std::size_t a,
                                 double amount) {
  AGORA_REQUIRE(built_, "patch() before build()");
  for (std::size_t l = 0; l < members_.size(); ++l)
    problem_.set_bounds(l, 0.0, report.entitlement(members_[l], a));
  problem_.set_rhs(0, amount);
}

}  // namespace agora::alloc
