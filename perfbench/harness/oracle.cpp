#include "oracle.h"

#include <algorithm>

#include "obs/sink.h"

namespace agora::perf {

namespace {

alloc::AllocatorOptions oracle_options(const agree::TransitiveOptions& transitive) {
  alloc::AllocatorOptions o;
  o.transitive = transitive;
  o.solve.backend = lp::Backend::Revised;
  o.sink = obs::Sink::none();  // the oracle's solves must not count as the system's
  return o;
}

}  // namespace

ThetaGapOracle::ThetaGapOracle(const agree::AgreementSystem& sys,
                               const agree::TransitiveOptions& transitive)
    : that_(agree::overdraft_clamp(agree::transitive_shares(sys.relative, transitive))),
      exact_(sys, oracle_options(transitive)),
      tol_(lp::SolveOptions{}.tols.feasibility) {
  for (std::size_t i = 0; i < sys.size(); ++i) that_(i, i) = sys.retained[i];
}

double ThetaGapOracle::theta_global(std::span<const double> draw) const {
  const std::size_t n = that_.rows();
  std::vector<double> drop(n, 0.0);
  for (std::size_t k = 0; k < n && k < draw.size(); ++k) {
    if (draw[k] == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) drop[i] += draw[k] * that_(k, i);
  }
  return n == 0 ? 0.0 : *std::max_element(drop.begin(), drop.end());
}

std::optional<double> ThetaGapOracle::gap_rel(std::size_t a, double amount,
                                              const alloc::AllocationPlan& plan) {
  if (!plan.satisfied()) return std::nullopt;
  const alloc::AllocationPlan ref = exact_.allocate(a, amount);
  if (!ref.satisfied()) return std::nullopt;
  const double gap = theta_global(plan.draw) - ref.theta;
  if (gap <= tol_ * (1.0 + ref.theta)) return 0.0;
  return gap / std::max(ref.theta, 1.0);
}

void ThetaGapOracle::set_capacities(std::span<const double> capacity) {
  exact_.set_capacities(capacity);
}

}  // namespace agora::perf
