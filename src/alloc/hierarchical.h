// hierarchical.h -- multi-grid allocation for hierarchical agreement
// structures (Section 3.2):
//
// "once a request comes to a group, and that group cannot satisfy the
//  request, we use LP to find the distribution of resources among groups;
//  based on the distribution result, we run LP inside each group to further
//  refine the resource allocation, iterating this process as required."
//
// The coarse level aggregates each group into one super-principal (capacity
// = sum of members; inter-group share = capacity-weighted sum of member
// shares crossing the boundary). The fine level distributes each group's
// assigned contribution among its members, bounding each member's draw by
// its entitlement toward the requester in the *full* system.
//
// This trades a single (n+1)-variable LP for one (g+1)-variable LP plus a
// handful of (|group|+1)-variable LPs -- the micro_formulation bench
// measures the crossover.
//
// The flat Allocator over the full system is built with the hierarchical
// one and is its only copy of the capacities and of the full-system report
// (entitlements, clamped shares, C_i): the fine level's draw bounds, the
// flat fallback and available_to() all read it. A capacity write runs the
// one capacity rule (ledger.h) on the flat allocator's capacities, stores
// the result there -- refreshing only the components it moved -- and pushes
// the new capacities into the live per-group allocators.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/allocator.h"

namespace agora::alloc {

class HierarchicalAllocator : public AllocatorBase {
 public:
  /// `group_of[i]` assigns principal i to a group (0-based, contiguous).
  HierarchicalAllocator(agree::AgreementSystem sys, std::vector<std::size_t> group_of,
                        AllocatorOptions opts = {});

  std::size_t num_groups() const { return groups_.size(); }
  const agree::AgreementSystem& system() const override { return flat_.system(); }
  std::size_t size() const override { return flat_.size(); }

  /// Allocate `amount` for principal `a` using the two-level scheme.
  /// Fast path: when a's own group can cover the request, only that group's
  /// LP runs.
  AllocationPlan allocate(std::size_t a, double amount) const override;

  /// Largest request principal `a` could have satisfied right now, in the
  /// *full* system (the two-level scheme may place less; see allocate()).
  double available_to(std::size_t a) const override { return flat_.available_to(a); }

  /// Telemetry of the fine-level (within-group) certified solve chain; the
  /// per-level Allocators carry their own pipelines.
  std::optional<lp::PipelineStats> solver_stats() const override {
    return fine_pipeline_.stats();
  }

 private:
  /// The store behind apply/release/set_capacities: the capacity rule on the
  /// flat allocator's capacities, stored there; live per-group caches are
  /// refreshed in place and the capacity-weighted coarse cache is dropped
  /// and lazily rebuilt. A write that moves no capacity does nothing.
  void commit(const CapacityWrite& write) override;

  /// Coarse system over groups.
  agree::AgreementSystem coarse_system() const;

  // Lazily built, persistent per-level Allocators. Building an Allocator
  // runs the transitive-closure share computation, so reconstructing one per
  // allocate() (the historical behavior) dominated trace-driven runs. The
  // share matrices depend only on the agreement structure, which is fixed,
  // so a capacity write just pushes new capacities into live caches --
  // except the coarse level, whose inter-group shares are capacity-weighted
  // and must be rebuilt (it is reset and re-created on next use).
  Allocator& group_allocator(std::size_t g) const;
  Allocator& coarse_allocator() const;

  /// The full system: capacities, the full-system report, the flat fallback.
  Allocator flat_;
  std::vector<std::size_t> group_of_;
  std::vector<std::vector<std::size_t>> groups_;  ///< each group's members, ascending
  AllocatorOptions opts_;
  mutable std::vector<std::unique_ptr<Allocator>> group_cache_;
  mutable std::unique_ptr<Allocator> coarse_cache_;
  /// Scratch for the capacity vector commit() stores.
  std::vector<double> next_capacity_;
  /// Certified solve chain for the fine-level (within-group) LPs; the
  /// per-level Allocators carry their own pipelines.
  mutable lp::SolvePipeline fine_pipeline_;
  /// Cached registry handles (see obs/metrics.h).
  obs::LogHistogram* obs_plan_seconds_ = nullptr;
  obs::Counter* obs_fast_path_ = nullptr;
  obs::Counter* obs_coarse_solves_ = nullptr;
  obs::Counter* obs_fine_solves_ = nullptr;
  obs::Counter* obs_flat_fallbacks_ = nullptr;
};

}  // namespace agora::alloc
