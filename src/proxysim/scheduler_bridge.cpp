#include "proxysim/scheduler_bridge.h"

#include <algorithm>

#include "obs/timer.h"

namespace agora::proxysim {

SchedulerBridge::SchedulerBridge(const SimConfig& cfg)
    : kind_(cfg.scheduler), n_(cfg.num_proxies) {
  AGORA_REQUIRE(kind_ == SchedulerKind::None ||
                    (cfg.agreements.rows() == n_ && cfg.agreements.cols() == n_),
                "agreement matrix must be num_proxies x num_proxies");
  obs_plan_seconds_ = &cfg.alloc_opts.sink.histogram("proxysim.bridge.plan.seconds");
  obs_plans_ = &cfg.alloc_opts.sink.counter("proxysim.bridge.plans");
  if (kind_ == SchedulerKind::Lp) {
    agree::AgreementSystem sys(n_);
    sys.relative = cfg.agreements;
    allocator_ = std::make_unique<alloc::Allocator>(std::move(sys), cfg.alloc_opts);
  } else if (kind_ == SchedulerKind::Endpoint) {
    // Static per-epoch processing budget per proxy: the only capacity view
    // the *endpoint* scheme is allowed to use (it has no availability
    // information -- that is the point of the Figure 13 comparison).
    endpoint_sys_ = agree::AgreementSystem(n_);
    endpoint_sys_.relative = cfg.agreements;
    for (std::size_t k = 0; k < n_; ++k)
      endpoint_sys_.capacity[k] = cfg.planning_window * cfg.proxy_power(k);
  }
}

RedirectDecision SchedulerBridge::plan(std::size_t origin, double overflow,
                                       const std::vector<double>& spare) {
  AGORA_REQUIRE(origin < n_, "unknown proxy");
  AGORA_REQUIRE(spare.size() == n_, "spare capacity vector size mismatch");
  obs::ScopedTimer plan_timer(obs_plan_seconds_);
  obs_plans_->inc();
  RedirectDecision dec;
  dec.absorb.assign(n_, 0.0);
  if (overflow <= 0.0 || kind_ == SchedulerKind::None) {
    dec.absorb[origin] = std::max(0.0, overflow);
    return dec;
  }

  if (kind_ == SchedulerKind::Lp) {
    // Only components whose spare moved are refreshed (Allocator::commit).
    allocator_->set_capacities(spare);
    // Partial redirection: place as much of the overflow as transitive
    // agreements allow; the LP decides the local/remote split (the origin's
    // own spare enters as d_origin) and minimizes the global perturbation.
    const double reachable = allocator_->available_to(origin);
    const double x = std::min(overflow, reachable * (1.0 - 1e-9));
    if (x <= 1e-12) {
      dec.absorb[origin] = overflow;
      return dec;
    }
    alloc::AllocationPlan plan = allocator_->allocate(origin, x);
    dec.lp_iterations = plan.lp_iterations;
    dec.certified = plan.certified;
    dec.solver_fallbacks = plan.solver_fallbacks;
    if (!plan.satisfied()) {
      // Either a certified "cannot place this much" or an exhausted solve
      // chain (PlanStatus::Denied). Both degrade to local-only admission:
      // the overflow is absorbed at the origin, never redirected on an
      // unverified answer.
      dec.degraded_local = plan.status == alloc::PlanStatus::Denied;
      dec.absorb[origin] = overflow;
      return dec;
    }
    dec.absorb = plan.draw;
    // Whatever the plan placed "at the origin itself" plus the unplaceable
    // remainder stays local.
    dec.absorb[origin] += overflow - x;
    return dec;
  }

  // Endpoint baseline: proportional split over direct shares against the
  // *static* per-epoch budgets -- deliberately blind to current load, as in
  // the paper ("the non-linear scheme tends to redistribute requests to
  // nearby ISPs no matter whether they are busy or not"). Remainder stays
  // local (endpoint_allocate puts it into draw[origin]).
  const alloc::AllocationPlan plan = alloc::endpoint_allocate(endpoint_sys_, origin, overflow);
  dec.absorb = plan.draw;
  return dec;
}

}  // namespace agora::proxysim
