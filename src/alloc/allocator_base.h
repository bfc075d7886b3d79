// allocator_base.h -- the one interface every admission decider implements.
//
// Three classes decide allocations today: the flat LP Allocator, the
// two-level HierarchicalAllocator, and the sharded engine::EnforcementEngine
// that fronts either at scale. Call sites that serve more than one backend
// (net::AgoraService, user code reaching in through agora/agora.h) take any
// of the three polymorphically; callers with one backend (the simulator's
// SchedulerBridge, the GRM) hold a concrete Allocator.
//
// Contract (all of it inherited from Allocator's documented semantics):
//   * allocate() is logically const: it decides but does not commit. Commit
//     with apply(); return capacity with release().
//   * set_capacities() replaces every V_i without touching the agreement
//     structure (the per-epoch refresh path of trace-driven enforcement).
//   * apply(), release() and set_capacities() are implemented here, once:
//     each hands its write to commit(), which every implementation overrides
//     to run the capacity rule (ledger.h) on its own current capacities and
//     store the result. A write the rule refuses throws PreconditionError
//     and changes nothing, on every backend.
//   * Thread safety is implementation-defined: the two direct allocators are
//     single-threaded, the engine is safe for any number of callers.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "agree/matrices.h"
#include "alloc/ledger.h"
#include "alloc/plan.h"
#include "lp/solve_pipeline.h"
#include "util/error.h"

namespace agora::alloc {

class AllocatorBase {
 public:
  virtual ~AllocatorBase() = default;

  /// Number of principals covered.
  virtual std::size_t size() const = 0;

  /// The agreement system (capacities reflect the latest set_capacities /
  /// apply / release).
  virtual const agree::AgreementSystem& system() const = 0;

  /// Decide an allocation for principal `a` requesting `amount`. Does not
  /// mutate observable state; call apply() to commit the plan.
  virtual AllocationPlan allocate(std::size_t a, double amount) const = 0;

  /// Largest request principal `a` could have satisfied right now (C_a).
  virtual double available_to(std::size_t a) const = 0;

  /// Commit a satisfied plan: subtract its draws from capacities.
  void apply(const AllocationPlan& plan) {
    AGORA_REQUIRE(plan.satisfied(), "cannot apply an unsatisfied plan");
    commit({CapacityWrite::Kind::Draw, plan.draw, plan.borrowed});
  }

  /// Return capacity to principals (e.g. when borrowed work completes).
  void release(const std::vector<double>& give_back) {
    commit({CapacityWrite::Kind::Release, give_back, {}});
  }

  /// Replace all capacities without touching the agreement matrices.
  void set_capacities(std::span<const double> v) {
    commit({CapacityWrite::Kind::Replace, v, {}});
  }
  void set_capacities(const std::vector<double>& v) {
    set_capacities(std::span<const double>(v));
  }

  /// Degradation telemetry of the certified solve chain, a copy the caller
  /// owns; nullopt when the implementation has none to report (or
  /// aggregation is not meaningful).
  virtual std::optional<lp::PipelineStats> solver_stats() const { return std::nullopt; }

 protected:
  /// The one store behind apply, release and set_capacities: compute the
  /// next capacities with next_capacities() from the implementation's own
  /// current ones, under its own lock, and store them. When the rule throws,
  /// nothing may have changed.
  virtual void commit(const CapacityWrite& write) = 0;
};

}  // namespace agora::alloc
