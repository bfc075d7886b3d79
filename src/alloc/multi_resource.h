// multi_resource.h -- requests spanning several resource types
// (Section 3.2): "a request for k types of resources is in the form of a
// vector <r_1, ..., r_k> ... we need to solve k linear systems, one for each
// resource requested". The k solves are independent; they run in resource
// order on the caller's thread.
//
// Coupled resources ("CPU and memory need to be on the same machine") are
// handled the way the paper suggests: *bind* them into a new synthetic
// resource type allocated as a unit; make_bundle() constructs the bound
// system from the component systems and the per-unit composition.
//
// Committing a multi-plan is all or nothing: the capacity rule (ledger.h)
// checks every resource's draw before any resource's capacities are stored.
#pragma once

#include <string>
#include <vector>

#include "alloc/allocator.h"

namespace agora::alloc {

struct MultiRequest {
  std::size_t principal = 0;
  /// amount requested per resource index (into the allocator's resources).
  std::vector<double> amounts;
};

struct MultiPlan {
  /// One plan per resource, in resource order.
  std::vector<AllocationPlan> per_resource;
  /// Satisfied only if every component is.
  bool satisfied() const;
};

class MultiResourceAllocator {
 public:
  /// One AgreementSystem per resource type, with human-readable names.
  MultiResourceAllocator(std::vector<agree::AgreementSystem> systems,
                         std::vector<std::string> resource_names, AllocatorOptions opts = {});

  std::size_t num_resources() const { return allocators_.size(); }
  const std::string& resource_name(std::size_t r) const { return names_.at(r); }
  const Allocator& allocator(std::size_t r) const { return allocators_.at(r); }

  /// Solve the k independent LPs, in resource order on the caller's
  /// thread. All-or-nothing: when any resource cannot be satisfied, no plan
  /// is applied and the failing component's status is reported.
  MultiPlan allocate(const MultiRequest& req) const;

  /// Commit a satisfied multi-plan, all or nothing (see the file comment).
  void apply(const MultiPlan& plan);

 private:
  std::vector<Allocator> allocators_;
  std::vector<std::string> names_;
};

/// Bind component resources into one synthetic "bundle" resource: one bundle
/// unit consumes weights[r] units of component r. Capacities become
/// min_r V_i(r) / w_r; relative shares the component-wise minimum (a bundle
/// moves only as much as the *scarcest* covered component); absolute
/// agreements min_r A_ij(r) / w_r. Components with weight 0 are ignored.
agree::AgreementSystem make_bundle(const std::vector<agree::AgreementSystem>& systems,
                                   const std::vector<double>& weights);

}  // namespace agora::alloc
