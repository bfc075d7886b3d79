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
//     rows. This is what the simulator uses. With reuse_context on (the
//     default) each consult solves it over the requester's connected
//     agreement component only -- (m+1) variables and rows for a component
//     of m -- which has the same optimum (see AllocationModelCache). On
//     that path a request above C_A is denied in closed form, without an
//     LP, and the denial is certified by a Farkas vector.
//   * FullPaper: the paper's verbatim variable set -- I'_ij, C'_i, V'_i and
//     theta, i.e. n^2 + n + 1 variables with constraints (1)-(6). Useful
//     for fidelity and as a stress test for the LP substrate.
//
// Constraint (3) of the paper, C'_A = C_A - x, conflicts with constraint
// (5) whenever capacity is drawn over an agreement with share < 1 (see
// DESIGN.md). EqualityMode::Relaxed (default) drops (3); Exact keeps it and
// falls back to Relaxed when it renders the program infeasible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

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
  /// Every LP knob in one struct (see lp/solve.h): backend choice and
  /// tolerances. The backend is lp::SolveOptions' own, the revised simplex.
  lp::SolveOptions solve;
  /// Reuse the compact model structure and the previous optimal basis, as
  /// a warm start, across allocate() calls, one model per connected
  /// agreement component, each consult solving only its requester's. Off,
  /// every consult rebuilds the whole-system model and solves it cold. The
  /// decisions agree either way in status and in the certified optimal
  /// theta, but not in their last bits: a warm solve reaches the same
  /// vertex with different round-off, so with reuse on a plan depends on
  /// the allocator's past consults too (DESIGN.md section 11.4). This
  /// removes per-request model rebuilding, solver allocations, and the
  /// variables and rows a requester's entitlements cannot touch. The reuse
  /// state is per Allocator and not synchronized: turn this off if one
  /// Allocator instance must serve concurrent allocate() calls. Compact
  /// relaxed solves only (exact mode always takes the rebuild path).
  bool reuse_context = true;
  /// Verify every LP answer against the original problem (lp::Verifier) and
  /// escalate through the staged solve chain (lp::SolvePipeline) until one
  /// certifies. A consult whose chain is exhausted yields an explicit
  /// PlanStatus::Denied -- never an uncertified grant. Certification always
  /// checks against the problem actually posed.
  bool certify = true;
  /// Admission fast path: a request that fits inside the requester's own
  /// retained entitlement (U_aa) is granted as the self-draw plan
  /// d = amount * e_a with theta = amount * max_i That_ai, skipping the LP
  /// entirely. The plan is still certified -- lp::Verifier::certify_admission
  /// proves it feasible against the current compact model -- so the "no
  /// uncertified grant" invariant holds, but theta is the self-draw
  /// perturbation, not the LP minimum (the LP may spread the draw thinner).
  /// Off by default; turn on where throughput beats perturbation optimality
  /// (see DESIGN.md section 13). Requires the Compact/Relaxed reuse_context
  /// configuration; other configurations ignore the flag.
  bool fast_path = false;
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
  /// All-zero when `certify` is off.
  std::optional<lp::PipelineStats> solver_stats() const override { return pipeline_.stats(); }

  /// Fast-path telemetry (zero unless AllocatorOptions::fast_path), the same
  /// counts alloc.fastpath.* is fed. Readable from other threads (the
  /// engine aggregates these into EngineStats).
  std::uint64_t fastpath_granted() const { return fastpath_granted_.value(); }
  std::uint64_t fastpath_fallthrough() const { return fastpath_fallthrough_.value(); }
  /// Continue `retired`'s fast-path counts (an engine shard whose allocator
  /// is rebuilt keeps its history).
  void carry_fastpath_counts(const Allocator& retired) {
    fastpath_granted_ = retired.fastpath_granted_;
    fastpath_fallthrough_ = retired.fastpath_fallthrough_;
  }

 private:
  /// Attempt the theta<=1 self-draw grant; true when `plan` was filled with a
  /// certified Satisfied plan, false to fall through to the LP.
  bool try_fast_path(std::size_t a, double amount, AllocationPlan& plan) const;
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
  lp::SolveResult run_solver(const lp::Problem& p) const;
  /// Certified path: run the staged pipeline and record certification
  /// outcome + fallback depth on the plan.
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
  /// Verifier of the fast path's admissions and the closed-form denials,
  /// one per component model: a Verifier repatches its standard form only
  /// while it keeps checking the same Problem, so sharing one across
  /// components would rebuild it on every switch.
  mutable std::vector<lp::Verifier> verifiers_;
  mutable std::vector<double> fast_x_;
  /// Scratch for the capacity vector commit() stores.
  std::vector<double> next_capacity_;
  mutable obs::Tally fastpath_granted_;
  mutable obs::Tally fastpath_fallthrough_;
};

}  // namespace agora::alloc
