// allocator.h -- LP-based enforcement of sharing agreements (Section 3).
//
// Given an AgreementSystem and a request (principal A wants amount x of the
// resource), the allocator decides which principals' physical capacity to
// draw on, such that
//
//   * every draw is covered by a (possibly transitive) agreement:
//       0 <= d_k <= U_kA (entitlement of A at k; own node bounded by V_A),
//   * the request is met:  sum_k d_k = x,
//   * the *global perturbation* theta = max_i (C_i - C'_i) is minimized,
//     leaving the system maximally able to serve future requests from any
//     principal (the paper's optimization criterion).
//
// Two formulations are provided and cross-checked in tests:
//
//   * Compact: n draw variables + theta. The capacity drop at i is the
//     linear map  drop_i = sum_k d_k * That_ki  with That_ii = retained_i
//     and That_ki = K_ki, so the whole model is (n+1) variables and (n+1)
//     rows. This is what the simulator uses. Every consult solves it over
//     the requester's connected agreement component only -- (m+1) variables
//     and rows for a component of m -- which has the same optimum (see
//     AllocationModelCache). In relaxed mode a request above C_A is denied
//     in closed form, without an LP, and the denial is certified by a
//     Farkas vector.
//   * FullPaper: the paper's verbatim variable set -- I'_ij, C'_i, V'_i and
//     theta, i.e. n^2 + n + 1 variables with constraints (1)-(6). Useful
//     for fidelity and as a stress test for the LP substrate.
//
// Constraint (3) of the paper, C'_A = C_A - x, conflicts with constraint
// (5) whenever capacity is drawn over an agreement with share < 1 (see
// DESIGN.md). EqualityMode::Relaxed (default) drops (3); Exact keeps it and
// falls back to Relaxed when it renders the program infeasible.
//
// Every answer comes from the certified solve chain (lp::SolvePipeline): an
// answer the chain cannot certify is an explicit PlanStatus::Denied, never
// an uncertified grant.
#pragma once

#include <cstddef>
#include <cstdint>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "alloc/allocator_base.h"
#include "alloc/model_cache.h"
#include "alloc/plan.h"
#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/result.h"
#include "lp/solve_pipeline.h"

namespace agora::alloc {

enum class Formulation { Compact, FullPaper };
enum class EqualityMode { Relaxed, Exact };

struct AllocatorOptions {
  agree::TransitiveOptions transitive;  ///< level limit etc. (Figs 8-11)
  Formulation formulation = Formulation::Compact;
  EqualityMode equality = EqualityMode::Relaxed;
  /// LP tolerances (see lp/solve.h), shared by the solve chain and the
  /// Verifier. The allocator reads only `solve.tols`: each stage of the
  /// chain sets its own backend, so `solve.backend` is never read. It stays
  /// an lp::SolveOptions because the benchmark harness (perfbench/harness)
  /// writes `solve.backend`; it narrows to lp::Tolerances with that
  /// harness's next change.
  lp::SolveOptions solve;
  /// Warm-start each consult from the previous optimal basis of its
  /// requester's component model. Off, every consult solves that model
  /// cold, with no solver workspace, so a plan depends only on the current
  /// system and the request, never on the allocator's past consults (what a
  /// replicated decision core restored from a snapshot needs). The decisions
  /// agree either way in status and in the certified optimal theta, but not
  /// in their last bits: a warm solve reaches the same vertex with
  /// different round-off (DESIGN.md section 11.4). Either way the model
  /// structure is built once per component and patched per request. An
  /// Allocator is not synchronized: one instance must not serve concurrent
  /// allocate() calls.
  bool reuse_context = true;
  /// Telemetry destination, propagated into the solve pipeline. Metric
  /// handles are resolved once at Allocator construction.
  obs::Sink sink = obs::Sink::global();
};

class Allocator : public AllocatorBase {
 public:
  Allocator(agree::AgreementSystem sys, AllocatorOptions opts = {});

  /// Availability report (T/K shares, entitlements U, capacities C).
  const agree::CapacityReport& capacities() const { return report_; }
  const agree::AgreementSystem& system() const override { return sys_; }
  std::size_t size() const override { return sys_.size(); }

  /// Decide an allocation for principal `a` requesting `amount`. Does not
  /// mutate the system; call apply() to commit the plan.
  AllocationPlan allocate(std::size_t a, double amount) const override;

  /// Largest request principal `a` could have satisfied right now (C_a).
  double available_to(std::size_t a) const override { return report_.capacity.at(a); }

  /// Degradation telemetry of the certified solve chain (attempts,
  /// certification failures, fallback depth, solver health counters).
  std::optional<lp::PipelineStats> solver_stats() const override { return pipeline_.stats(); }

 private:
  /// Closed-form denial on `model` (a's component, patched for the request):
  /// the relaxed compact LP is feasible exactly when amount <= C_a =
  /// sum_k U_ka (DESIGN.md section 3). When the amount exceeds C_a by more
  /// than the Farkas tolerance and the Verifier certifies the model's
  /// demand Farkas vector, fills `plan` as a certified Insufficient with no
  /// LP and returns true; otherwise returns false to fall through to the LP.
  bool try_closed_form_denial(std::size_t a, double amount, AllocationModelCache& model,
                              AllocationPlan& plan) const;
  /// The cached model of a's component (built on first use), patched for
  /// request (a, amount).
  AllocationModelCache& component_model(std::size_t a, double amount) const;
  AllocationPlan solve_compact(std::size_t a, double amount, bool exact) const;
  AllocationPlan solve_full(std::size_t a, double amount, bool exact) const;
  /// Run the certified chain on `p` (warm from `ws` when given) and record
  /// on `plan` its certification, fallback depth, pivots and status: an
  /// answer the chain could not certify is Denied, a certified optimum
  /// Satisfied, a certified infeasibility Insufficient. Returns the answer;
  /// its x holds the draws when the plan is Satisfied.
  lp::SolveResult run_certified(const lp::Problem& p, lp::SolveWorkspace* ws,
                                AllocationPlan& plan) const;
  /// The store behind apply, release and set_capacities: run the capacity
  /// rule on the current capacities, then store the result and refresh
  /// every component whose capacities moved. The transitive closure depends
  /// only on S, so a refresh costs O(m^2) for a component of m, and
  /// components left unchanged cost one comparison per member; an unchanged
  /// vector is a no-op. Allocation-free once the scratch vector is sized.
  void commit(const CapacityWrite& write) override;
  /// Recompute U_ki for k, i in component c and C_i for its members from
  /// the current capacities. Sums run in ascending principal order like a
  /// whole-matrix pass, whose extra terms (U_ki across components) are
  /// exact zeros, so the report is bitwise that of a full refresh. Returns
  /// how many entitlements were clamped at V_k.
  std::uint64_t refresh_component(std::size_t c);

  agree::AgreementSystem sys_;
  AllocatorOptions opts_;
  agree::CapacityReport report_;
  /// Cached registry handles (see obs/metrics.h); plan counters mutate
  /// behind const allocate(). alloc.clamp.entitlement_u counts the U_ki
  /// clamped at V_k in each component a capacity write refreshes, so a
  /// commit adds only the clamps of the components it moved.
  /// alloc.plans.closed_form_denials counts the Insufficient plans decided
  /// without an LP (a subset of alloc.plans.insufficient).
  obs::LogHistogram* obs_plan_seconds_ = nullptr;
  obs::Counter* obs_cache_hits_ = nullptr;
  obs::Counter* obs_cache_misses_ = nullptr;
  obs::Counter* obs_clamp_k_ = nullptr;
  obs::Counter* obs_clamp_u_ = nullptr;
  obs::Counter* obs_plans_satisfied_ = nullptr;
  obs::Counter* obs_plans_insufficient_ = nullptr;
  obs::Counter* obs_plans_denied_ = nullptr;
  obs::Counter* obs_plans_failed_ = nullptr;
  obs::Counter* obs_closed_form_denials_ = nullptr;
  /// Connected agreement components (agree::connected_components), fixed at
  /// construction, and each principal's component and index within it.
  std::vector<std::vector<std::size_t>> components_;
  std::vector<std::size_t> component_of_;
  std::vector<std::size_t> local_of_;
  /// One lazily built compact model + solver workspace per component;
  /// logically a memo of (sys_, report_), hence mutable behind const
  /// allocate().
  mutable std::vector<AllocationModelCache> models_;
  /// Certified solve chain (statistics mutate behind const allocate()).
  mutable lp::SolvePipeline pipeline_;
  /// Verifier of the closed-form denials, one per component model: a
  /// Verifier repatches its standard form only while it keeps checking the
  /// same Problem, so sharing one across components would rebuild it on
  /// every switch.
  mutable std::vector<lp::Verifier> verifiers_;
  /// Scratch for the capacity vector commit() stores.
  std::vector<double> next_capacity_;
};

}  // namespace agora::alloc
