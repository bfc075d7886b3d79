// plan.h -- the outcome of one allocation decision.
#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace agora::alloc {

enum class PlanStatus {
  Satisfied,     ///< the full requested amount was allocated
  Insufficient,  ///< the requester's capacity C_A is below the request
  SolverFailed,  ///< the LP solver gave up (iteration limit); should not
                 ///< happen on well-formed systems
  Denied,        ///< conservative denial: the certified solve chain was
                 ///< exhausted without a verifiable answer, so no grant is
                 ///< issued (never an uncertified grant)
};

/// The agora::Status a plan outcome maps to (DESIGN.md §11.5): the unified
/// error currency carried by engine submit results and rms replies.
inline Status to_status(PlanStatus s) {
  switch (s) {
    case PlanStatus::Satisfied: return Status();
    case PlanStatus::Insufficient: return Status::insufficient();
    case PlanStatus::SolverFailed: return Status::solver_failed();
    case PlanStatus::Denied: return Status::denied();
  }
  return Status::internal("unknown PlanStatus");
}

/// One border-credit spend inside a federated plan: `amount` of the plan's
/// bank draw is attributed to the loan `credit` (engine::Credit id), i.e. to
/// that credit's lender's physical capacity. Only federated engine plans
/// carry these; a bare Allocator never does.
struct BorrowedDraw {
  std::uint64_t credit = 0;
  double amount = 0.0;
};

struct AllocationPlan {
  PlanStatus status = PlanStatus::Insufficient;

  /// Physical amount drawn from each principal's capacity (d_k in DESIGN.md;
  /// V_k - V'_k in the paper). Sums to the request when Satisfied.
  std::vector<double> draw;

  /// Global perturbation theta: the bound the LP minimizes on the
  /// linearized availability drop sum_k d_k * That_ki at every principal i
  /// (DESIGN.md section 6). A plan carries the decision only: the
  /// availability it leaves is read from its allocator after apply().
  double theta = 0.0;

  /// Simplex iterations spent.
  std::uint64_t lp_iterations = 0;

  /// True when the paper-exact equality C'_A = C_A - x was requested but
  /// infeasible, and the allocator fell back to the relaxed model.
  bool exact_mode_fell_back = false;

  /// True when the LP answer behind this plan (grant OR denial) carries an
  /// lp::Certificate that survived independent verification. Always false
  /// when the allocator runs with certification disabled.
  bool certified = false;

  /// Solve-chain stages tried beyond the first before an answer certified
  /// (0 on the happy path; see lp::SolvePipeline).
  std::uint64_t solver_fallbacks = 0;

  /// Capacity-snapshot epoch this decision was made against, stamped by the
  /// engine (see engine::CapacitySnapshot::epoch). 0 for plans produced by a
  /// bare Allocator outside the engine.
  std::uint64_t decision_epoch = 0;

  /// Border-credit spends backing the draws attributed to remote lenders
  /// (federated engine plans only; empty otherwise). Applying the plan
  /// consumes exactly these amounts from the named credits.
  std::vector<BorrowedDraw> borrowed;

  bool satisfied() const { return status == PlanStatus::Satisfied; }
  /// Unified-status view of `status` (see to_status(PlanStatus)).
  Status to_status() const { return alloc::to_status(status); }
  double total_drawn() const {
    double s = 0.0;
    for (double d : draw) s += d;
    return s;
  }
};

}  // namespace agora::alloc
