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
#include <optional>
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
  /// Donors excluded because their availability was stale/unreachable.
  std::size_t masked_donors = 0;
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

  /// Degradation-aware variant: `reachable[k]` false means proxy k's
  /// availability report is stale or the proxy is unreachable, so it must
  /// not be planned as a donor (its spare is treated as zero -- the same
  /// graceful degradation the GRM applies under its staleness TTL). The
  /// origin itself is always planned. An empty mask means all reachable.
  RedirectDecision plan(std::size_t origin, double overflow,
                        const std::vector<double>& spare,
                        const std::vector<bool>& reachable);

  SchedulerKind kind() const { return kind_; }

  /// Degradation telemetry of the LP scheme's certified solve chain
  /// (nullopt for non-LP schemes).
  std::optional<lp::PipelineStats> solver_stats() const {
    return allocator_ ? allocator_->solver_stats() : std::nullopt;
  }

 private:
  SchedulerKind kind_;
  std::size_t n_;
  Matrix agreements_;
  std::vector<double> retained_;
  std::vector<double> static_budget_;
  /// LP scheme state (unused for Endpoint): either a direct Allocator
  /// (scheduler_threads == 0) or a sharded engine::EnforcementEngine, both
  /// behind the AllocatorBase interface. Persistent either way, so the
  /// transitive closure, model cache and solver workspace all amortize
  /// across the thousands of per-epoch consults of a trace run.
  std::unique_ptr<alloc::AllocatorBase> allocator_;
  /// Endpoint scheme state: the agreement structure never changes between
  /// consults, only the capacity vector is patched per plan() call.
  agree::AgreementSystem endpoint_sys_;
  /// Reused per-consult scratch (masked spare / budget vectors).
  std::vector<double> usable_, budget_;
  /// The capacity vector last pushed into the allocator. When a consult's
  /// masked spare is bitwise-unchanged, the set_capacities call is a
  /// semantic no-op and is skipped -- identical decisions either way, but
  /// the engine backend keeps its snapshot epoch, which is what lets the
  /// plan cache (engine/plan_cache.h) serve repeated shapes during stable
  /// spare-capacity windows.
  std::vector<double> last_caps_;
  /// Cached registry handles (see obs/metrics.h); resolved from the
  /// config's alloc_opts sink so bridge and allocator report to one place.
  obs::LogHistogram* obs_plan_seconds_ = nullptr;
  obs::Counter* obs_plans_ = nullptr;
  obs::Counter* obs_masked_donors_ = nullptr;
};

}  // namespace agora::proxysim
