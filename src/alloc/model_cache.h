// model_cache.h -- amortized model structure for the compact allocation LP.
//
// The compact formulation's constraint matrix depends only on the transitive
// share matrix K and the retained fractions -- both fixed for an Allocator's
// lifetime. Requests and capacity updates move only the draw-variable upper
// bounds (U_kA entitlements) and the demand right-hand side. So the model is
// built ONCE (unnamed variables, no string churn) and thereafter patched in
// place before each solve: no ModelBuilder, no vector reallocation, no
// per-request Problem construction.
//
// A cache spans one set of principals, the *members*: ascending global
// indices, normally one connected component of the agreement graph (see
// agree::connected_components). Its variables are the members' draws in
// member order, then theta; its rows are demand, then one perturbation row
// per member. A requester's entitlements are zero outside its component and
// no member's capacity drop involves a non-member, so the component model
// has the whole-system model's optimum (DESIGN.md section 8). It is the only
// builder of the compact LP: Allocator::solve_compact solves every consult
// on its requester's component model (exact mode on a copy with one more
// row), and the tests build the whole-system model as a reference by
// passing every principal.
//
// The cache also owns the lp::SolveWorkspace the certified chain
// (lp::SolvePipeline) threads into its revised stages, so successive solves
// of the patched model warm-start from the previous optimal basis; an
// Allocator with reuse_context off solves the model cold, without it.
//
// Not thread-safe: a cache belongs to one Allocator and must not be used by
// concurrent solves.
#pragma once

#include <cstddef>
#include <vector>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "lp/problem.h"
#include "lp/workspace.h"

namespace agora::alloc {

class AllocationModelCache {
 public:
  bool built() const { return built_; }

  /// Build the compact relaxed model structure over every principal of
  /// `sys` (bounds and rhs are placeholders; patch() must run before any
  /// solve).
  void build(const agree::AgreementSystem& sys, const agree::CapacityReport& report);

  /// Build it over `members` only (ascending global indices).
  void build(const agree::AgreementSystem& sys, const agree::CapacityReport& report,
             std::vector<std::size_t> members);

  /// Point the model at request (a, amount) under the current entitlements:
  /// the draw on member k in [0, U_kA] and demand rhs = amount. `a` is a
  /// global index and must be a member.
  void patch(const agree::CapacityReport& report, std::size_t a, double amount);

  /// Global index of each draw variable, in variable order.
  const std::vector<std::size_t>& members() const { return members_; }
  /// Standard-form Farkas multipliers (lp::Verifier::certify_infeasible)
  /// for "the demand exceeds the sum of the draw bounds": +1 on the demand
  /// row, 0 on each perturbation row, -1 on each draw's bound row. Standard
  /// form lays out the constraint rows, then one y <= hi - lo row per draw
  /// in variable order (theta has no finite upper bound, hence no row). So
  /// y'A is 1 - 1 = 0 on a draw column, 0 on theta and the perturbation
  /// slacks, -1 on a bound slack, and y'b = amount - sum_k U_kA: a valid
  /// certificate exactly when the request exceeds the component's C_A.
  /// Fixed by the structure, so built once with it.
  const std::vector<double>& demand_farkas() const { return farkas_; }
  lp::Problem& problem() { return problem_; }
  lp::SolveWorkspace& workspace() { return ws_; }

  /// Drop the cached structure (and warm-start state). The next solve
  /// rebuilds. Call if the agreement matrices ever change.
  void invalidate() {
    built_ = false;
    ws_.invalidate();
  }

 private:
  bool built_ = false;
  std::vector<std::size_t> members_;
  std::vector<double> farkas_;
  lp::Problem problem_;
  lp::SolveWorkspace ws_;
};

}  // namespace agora::alloc
