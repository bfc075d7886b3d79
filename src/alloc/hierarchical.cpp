#include "alloc/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lp/model_builder.h"
#include "obs/timer.h"

namespace agora::alloc {

namespace {
lp::PipelineOptions fine_pipeline_options(const AllocatorOptions& opts) {
  lp::PipelineOptions po;
  po.tols = opts.solve.tols;
  po.sink = opts.sink;
  return po;
}
}  // namespace

HierarchicalAllocator::HierarchicalAllocator(agree::AgreementSystem sys,
                                             std::vector<std::size_t> group_of,
                                             AllocatorOptions opts)
    : flat_(std::move(sys), opts),
      group_of_(std::move(group_of)),
      opts_(opts),
      fine_pipeline_(fine_pipeline_options(opts)) {
  AGORA_REQUIRE(group_of_.size() == flat_.size(), "group assignment size mismatch");
  std::size_t ng = 0;
  for (std::size_t g : group_of_) ng = std::max(ng, g + 1);
  groups_.resize(ng);
  for (std::size_t i = 0; i < group_of_.size(); ++i) {
    AGORA_REQUIRE(group_of_[i] < ng, "bad group index");
    groups_[group_of_[i]].push_back(i);
  }
  for (std::size_t g = 0; g < ng; ++g)
    AGORA_REQUIRE(!groups_[g].empty(), "empty group " + std::to_string(g));
  group_cache_.resize(ng);
  obs_plan_seconds_ = &opts_.sink.histogram("alloc.hier.plan.seconds");
  obs_fast_path_ = &opts_.sink.counter("alloc.hier.fast_path");
  obs_coarse_solves_ = &opts_.sink.counter("alloc.hier.coarse_solves");
  obs_fine_solves_ = &opts_.sink.counter("alloc.hier.fine_solves");
  obs_flat_fallbacks_ = &opts_.sink.counter("alloc.hier.flat_fallbacks");
}

Allocator& HierarchicalAllocator::group_allocator(std::size_t g) const {
  if (!group_cache_[g])
    group_cache_[g] = std::make_unique<Allocator>(
        agree::induced_system(flat_.system(), groups_[g]), opts_);
  return *group_cache_[g];
}

Allocator& HierarchicalAllocator::coarse_allocator() const {
  if (!coarse_cache_) coarse_cache_ = std::make_unique<Allocator>(coarse_system(), opts_);
  return *coarse_cache_;
}

agree::AgreementSystem HierarchicalAllocator::coarse_system() const {
  const agree::AgreementSystem& sys = flat_.system();
  const std::size_t ng = groups_.size();
  agree::AgreementSystem coarse(ng);
  for (std::size_t g = 0; g < ng; ++g) {
    double cap = 0.0;
    for (std::size_t m : groups_[g]) cap += sys.capacity[m];
    coarse.capacity[g] = cap;
  }
  // Inter-group share: capacity-weighted member shares crossing the
  // boundary; with zero group capacity fall back to a plain average.
  for (std::size_t g = 0; g < ng; ++g) {
    for (std::size_t h = 0; h < ng; ++h) {
      if (g == h) continue;
      double share = 0.0, abs_amount = 0.0;
      for (std::size_t i : groups_[g]) {
        double out = 0.0;
        for (std::size_t j : groups_[h]) {
          out += sys.relative(i, j);
          abs_amount += sys.absolute(i, j);
        }
        // Each member can give at most `out` of its own capacity to group h.
        const double weight = coarse.capacity[g] > 0.0
                                  ? sys.capacity[i] / coarse.capacity[g]
                                  : 1.0 / static_cast<double>(groups_[g].size());
        share += std::min(out, 1.0) * weight;
      }
      coarse.relative(g, h) = std::min(share, 1.0);
      coarse.absolute(g, h) = abs_amount;
    }
    // Keep the coarse system valid even if member rows sum close to 1.
    double row = 0.0;
    for (std::size_t h = 0; h < ng; ++h) row += coarse.relative(g, h);
    if (row > 1.0) {
      for (std::size_t h = 0; h < ng; ++h) coarse.relative(g, h) /= row;
    }
  }
  return coarse;
}

AllocationPlan HierarchicalAllocator::allocate(std::size_t a, double amount) const {
  const agree::AgreementSystem& sys = flat_.system();
  const agree::CapacityReport& full = flat_.capacities();
  AGORA_REQUIRE(a < sys.size(), "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");
  const std::size_t n = sys.size();
  const std::size_t ga = group_of_[a];

  obs::ScopedTimer plan_timer(obs_plan_seconds_);
  AllocationPlan plan;
  plan.draw.assign(n, 0.0);
  // Report theta with the same meaning as the flat allocator: the largest
  // *global* linearized availability drop (a group LP's theta only covers
  // its group).
  const auto price_globally = [&] {
    plan.theta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double drop = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        drop += plan.draw[k] * (k == i ? sys.retained[i] : full.shares(k, i));
      plan.theta = std::max(plan.theta, drop);
    }
  };

  // --- Fast path: the requester's own group can satisfy the request. ------
  {
    std::size_t local_a = 0;
    for (std::size_t m = 0; m < groups_[ga].size(); ++m)
      if (groups_[ga][m] == a) local_a = m;
    Allocator& group_alloc = group_allocator(ga);
    if (group_alloc.available_to(local_a) >= amount - 1e-9) {
      const AllocationPlan sub_plan = group_alloc.allocate(local_a, amount);
      if (sub_plan.satisfied()) {
        obs_fast_path_->inc();
        for (std::size_t m = 0; m < groups_[ga].size(); ++m)
          plan.draw[groups_[ga][m]] = sub_plan.draw[m];
        plan.status = PlanStatus::Satisfied;
        plan.certified = sub_plan.certified;
        plan.solver_fallbacks = sub_plan.solver_fallbacks;
        plan.lp_iterations = sub_plan.lp_iterations;
        price_globally();
        return plan;
      }
    }
  }

  // --- Coarse level: distribute the request across groups. -----------------
  obs_coarse_solves_->inc();
  const AllocationPlan coarse_plan = coarse_allocator().allocate(ga, amount);
  plan.lp_iterations += coarse_plan.lp_iterations;
  plan.solver_fallbacks += coarse_plan.solver_fallbacks;
  if (!coarse_plan.satisfied()) {
    obs_flat_fallbacks_->inc();
    // The coarse model under-approximates reachable capacity (it collapses
    // member-level detail); fall back to the flat LP before giving up.
    AllocationPlan flat_plan = flat_.allocate(a, amount);
    flat_plan.lp_iterations += plan.lp_iterations;
    return flat_plan;
  }

  // --- Fine level: split each group's contribution among its members. -----
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const double x_g = coarse_plan.draw[g];
    if (x_g <= 1e-12) continue;
    const auto& members = groups_[g];

    // Distribute x_g among members: minimize the max member draw subject to
    // each member's entitlement toward the requester in the full system.
    lp::ModelBuilder mb(lp::Sense::Minimize);
    std::vector<lp::Var> d(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::size_t i = members[m];
      const double cap = i == a ? sys.capacity[a] : full.entitlement(i, a);
      d[m] = mb.add_var(0.0, cap);
    }
    const lp::Var t = mb.add_var(0.0);
    mb.add(lp::sum(d) == x_g);
    for (std::size_t m = 0; m < members.size(); ++m) mb.add(1.0 * d[m] - 1.0 * t <= 0.0);
    mb.minimize(lp::LinExpr(t));
    obs_fine_solves_->inc();
    const lp::PipelineResult fine = fine_pipeline_.solve(mb.problem());
    plan.solver_fallbacks += fine.fallbacks;
    plan.lp_iterations += fine.result.iterations;
    if (!fine.certified() || fine.result.status != lp::Status::Optimal) {
      // Member entitlements cannot cover the coarse assignment (or its
      // answer did not certify); flat solve.
      obs_flat_fallbacks_->inc();
      AllocationPlan flat_plan = flat_.allocate(a, amount);
      flat_plan.lp_iterations += plan.lp_iterations;
      return flat_plan;
    }
    for (std::size_t m = 0; m < members.size(); ++m)
      plan.draw[members[m]] = fine.result.x[d[m].index];
  }

  plan.status = PlanStatus::Satisfied;
  plan.certified = coarse_plan.certified;
  price_globally();
  return plan;
}

void HierarchicalAllocator::commit(const CapacityWrite& write) {
  const std::vector<double>& current = flat_.system().capacity;
  next_capacities(current, write, next_capacity_);
  if (next_capacity_ == current) return;
  flat_.set_capacities(next_capacity_);
  // Capacity motion does not change share matrices, so live caches are
  // refreshed in place; the coarse system's shares *are* capacity-weighted,
  // so that cache is dropped and lazily rebuilt.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!group_cache_[g]) continue;
    std::vector<double> caps(groups_[g].size());
    for (std::size_t m = 0; m < caps.size(); ++m) caps[m] = next_capacity_[groups_[g][m]];
    group_cache_[g]->set_capacities(caps);
  }
  coarse_cache_.reset();
}

}  // namespace agora::alloc
