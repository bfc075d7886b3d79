// scheduler_bridge.h -- the simulator's view of the global resource
// scheduler: given an overloaded proxy and the current spare capacities of
// all proxies, decide how much queued work each other proxy should absorb.
//
// The bridge owns an Allocator (transitive closure precomputed once; only
// capacities refresh each consult) for the LP scheme, and falls back to the
// proportional endpoint split for the baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/endpoint.h"
#include "proxysim/config.h"

namespace agora::proxysim {

struct RedirectDecision {
  /// Demand (unit-power service seconds) each proxy should absorb;
  /// entry [origin] is work that stays local.
  std::vector<double> absorb;
  std::uint64_t lp_iterations = 0;
  /// The LP answer behind this decision carried a verified certificate
  /// (always false for the non-LP schemes, which make no LP claim).
  bool certified = false;
  /// The certified solve chain was exhausted and the scheduler degraded to
  /// local-only admission: all overflow stays at the origin.
  bool degraded_local = false;
  /// Solve-chain stages tried beyond the first (see lp::SolvePipeline).
  std::uint64_t solver_fallbacks = 0;
};

class SchedulerBridge {
 public:
  SchedulerBridge(const SimConfig& cfg);

  /// Plan redirection of up to `overflow` demand away from `origin`,
  /// given per-proxy spare capacity over the planning window.
  RedirectDecision plan(std::size_t origin, double overflow,
                        const std::vector<double>& spare);

  SchedulerKind kind() const { return kind_; }

 private:
  SchedulerKind kind_;
  std::size_t n_;
  /// LP scheme state (unused for Endpoint). Persistent, so the transitive
  /// closure, model cache and solver workspace all amortize across the
  /// thousands of per-epoch consults of a trace run.
  std::unique_ptr<alloc::Allocator> allocator_;
  /// Endpoint scheme state: the agreement structure and the static
  /// per-epoch budgets, both fixed at construction.
  agree::AgreementSystem endpoint_sys_;
  /// Cached registry handles (see obs/metrics.h); resolved from the
  /// config's alloc_opts sink so bridge and allocator report to one place.
  obs::LogHistogram* obs_plan_seconds_ = nullptr;
  obs::Counter* obs_plans_ = nullptr;
};

}  // namespace agora::proxysim
