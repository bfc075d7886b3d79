#include "alloc/multi_resource.h"

#include <algorithm>
#include <limits>

namespace agora::alloc {

bool MultiPlan::satisfied() const {
  if (per_resource.empty()) return false;
  return std::all_of(per_resource.begin(), per_resource.end(),
                     [](const AllocationPlan& p) { return p.satisfied(); });
}

MultiResourceAllocator::MultiResourceAllocator(std::vector<agree::AgreementSystem> systems,
                                               std::vector<std::string> resource_names,
                                               AllocatorOptions opts)
    : names_(std::move(resource_names)) {
  AGORA_REQUIRE(!systems.empty(), "need at least one resource system");
  AGORA_REQUIRE(systems.size() == names_.size(), "system/name count mismatch");
  const std::size_t n = systems[0].size();
  for (const auto& s : systems)
    AGORA_REQUIRE(s.size() == n, "all resource systems must cover the same principals");
  allocators_.reserve(systems.size());
  for (auto& s : systems) allocators_.emplace_back(std::move(s), opts);
}

MultiPlan MultiResourceAllocator::allocate(const MultiRequest& req) const {
  AGORA_REQUIRE(req.amounts.size() == allocators_.size(),
                "request must name an amount per resource");
  MultiPlan plan;
  plan.per_resource.reserve(allocators_.size());
  for (std::size_t r = 0; r < allocators_.size(); ++r)
    plan.per_resource.push_back(allocators_[r].allocate(req.principal, req.amounts[r]));
  return plan;
}

void MultiResourceAllocator::apply(const MultiPlan& plan) {
  AGORA_REQUIRE(plan.satisfied(), "cannot apply a partially satisfied multi-plan");
  AGORA_REQUIRE(plan.per_resource.size() == allocators_.size(), "plan size mismatch");
  // All or nothing: the capacity rule runs on every resource before any
  // resource's capacities are stored.
  std::vector<std::vector<double>> next(allocators_.size());
  for (std::size_t r = 0; r < allocators_.size(); ++r)
    next_capacities(allocators_[r].system().capacity,
                    {CapacityWrite::Kind::Draw, plan.per_resource[r].draw, {}}, next[r]);
  for (std::size_t r = 0; r < allocators_.size(); ++r) allocators_[r].set_capacities(next[r]);
}

agree::AgreementSystem make_bundle(const std::vector<agree::AgreementSystem>& systems,
                                   const std::vector<double>& weights) {
  AGORA_REQUIRE(!systems.empty(), "need at least one component system");
  AGORA_REQUIRE(systems.size() == weights.size(), "system/weight count mismatch");
  const std::size_t n = systems[0].size();
  bool any = false;
  for (std::size_t r = 0; r < systems.size(); ++r) {
    AGORA_REQUIRE(systems[r].size() == n, "component systems must cover the same principals");
    AGORA_REQUIRE(weights[r] >= 0.0, "bundle weights must be non-negative");
    if (weights[r] > 0.0) any = true;
  }
  AGORA_REQUIRE(any, "bundle needs at least one positive weight");

  agree::AgreementSystem b(n);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    double cap = inf, ret = 1.0;
    for (std::size_t r = 0; r < systems.size(); ++r) {
      if (weights[r] == 0.0) continue;
      cap = std::min(cap, systems[r].capacity[i] / weights[r]);
      ret = std::min(ret, systems[r].retained[i]);
    }
    b.capacity[i] = cap;
    b.retained[i] = ret;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double s = inf, a = inf;
      for (std::size_t r = 0; r < systems.size(); ++r) {
        if (weights[r] == 0.0) continue;
        s = std::min(s, systems[r].relative(i, j));
        a = std::min(a, systems[r].absolute(i, j) / weights[r]);
      }
      b.relative(i, j) = s;
      b.absolute(i, j) = a;
    }
  }
  return b;
}

}  // namespace agora::alloc
