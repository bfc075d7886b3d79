// certify.h -- independent verification of LP answers.
//
// The enforcement guarantee (paper Section 3) is only as strong as the LP
// answer backing each consult, and the warm-started revised simplex reuses a
// cached basis factorization across hundreds of perturbed solves -- exactly
// the regime where accumulated floating-point drift or a degenerate basis can
// silently return a wrong allocation. The Verifier closes that gap: it
// checks any returned solution against the ORIGINAL problem, using only the
// problem data (never the solver's internal state), and returns a typed
// Certificate with the worst residual of every check.
//
// What is certified, per claimed status:
//   * Optimal    -- primal feasibility (constraints + bounds), dual sign
//                   feasibility, stationarity of the reduced costs,
//                   complementary slackness, and the primal-dual objective
//                   gap. Together these bound the suboptimality of the
//                   answer by weak duality. With no duals available
//                   (brute-force solves), only primal feasibility and
//                   objective consistency are checked and the certificate is
//                   marked `primal_only`.
//   * Infeasible -- a Farkas certificate: standard-form row multipliers y
//                   with y'A_j <= 0 for all non-artificial columns and
//                   y'b > 0, proving {A y = b, y >= 0} empty.
//   * Unbounded  -- a feasible point plus a standard-form ray d >= 0 with
//                   A d = 0 and c'd < 0.
//
// All residual tests are RELATIVE (scaled by the magnitudes involved; see
// tolerances.h) -- an absolute 1e-7 slack is meaningless when coefficients
// span 1e-8..1e8.
//
// A Verifier keeps reusable scratch so steady-state certification of the
// warm consult loop allocates nothing; like SolveWorkspace it is therefore
// single-threaded state. The Farkas and ray checks need the standard form;
// a Verifier that checks the same Problem again (same instance id and
// structural revision, only rhs and bound values moved) repatches b in its
// scratch instead of rebuilding A, so one Verifier per model keeps repeated
// denials cheap. Either way the form is derived from the problem data
// alone, never from a solver's workspace.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/standard_form.h"
#include "lp/tolerances.h"

namespace agora::lp {

/// Outcome of one verification. `certified` is the only field callers need
/// for control flow; the residuals exist for telemetry and diagnosis.
struct Certificate {
  enum class Claim { None, Optimal, Infeasible, Unbounded };

  Claim claim = Claim::None;
  /// The claim survived every applicable check.
  bool certified = false;
  /// Optimal claim checked without duals: feasibility proven, optimality
  /// taken on the solver's word (brute-force enumeration is exact by
  /// construction). Counts as certified for admission purposes -- the grant
  /// is backed by a feasible allocation -- but flagged for telemetry.
  bool primal_only = false;

  /// Worst relative residuals seen (0 when the check did not apply).
  double primal_residual = 0.0;        ///< constraints + bounds
  double dual_residual = 0.0;          ///< dual signs + stationarity
  double complementarity_residual = 0.0;
  double objective_gap = 0.0;          ///< |primal - dual| / (1+|p|+|d|)
  double farkas_residual = 0.0;        ///< Farkas / ray certificate slack

  /// Human-readable reason when !certified; nullptr otherwise.
  const char* reject = nullptr;
};

inline const char* to_string(Certificate::Claim c) {
  switch (c) {
    case Certificate::Claim::None: return "none";
    case Certificate::Claim::Optimal: return "optimal";
    case Certificate::Claim::Infeasible: return "infeasible";
    case Certificate::Claim::Unbounded: return "unbounded";
  }
  return "unknown";
}

class Verifier {
 public:
  explicit Verifier(Tolerances tols = {}) : tols_(tols) {}

  const Tolerances& tolerances() const { return tols_; }

  /// Dispatch on the result's status. IterationLimit (and any claim whose
  /// certificate data is missing) yields an uncertified Certificate with a
  /// reject reason -- never a throw; a wrong answer is an expected outcome
  /// here, not a programming error.
  Certificate certify(const Problem& p, const SolveResult& r);

  /// Check a claimed-optimal (x, duals, objective) triple. `duals` may be
  /// empty (primal-only certification, see Certificate::primal_only).
  Certificate certify_optimal(const Problem& p, const std::vector<double>& x,
                              const std::vector<double>& duals, double objective);

  /// Admission fast path: certify that (x, objective) is a FEASIBLE answer to
  /// `p` -- bounds, every constraint row, and objective consistency -- without
  /// any of the dual/stationarity machinery. This is the check backing plan-
  /// cache hits and theta<=1 fast-path grants: the "no uncertified grant"
  /// invariant needs the allocation to be provably admissible against the
  /// CURRENT problem, while optimality of a reused plan is already pinned by
  /// the epoch key (same problem => same optimum). The certificate is marked
  /// `primal_only`, claim Optimal. Roughly 3x cheaper than certify_optimal
  /// with duals; the row pass runs on the vectorized vdot_abs kernel.
  Certificate certify_admission(const Problem& p, const std::vector<double>& x,
                                double objective);

  /// Check a Farkas certificate (standard-form row multipliers) for a
  /// claimed-infeasible problem. The certificate need not come from a
  /// solver: the allocator's closed-form denials pass a vector built from
  /// the model's structure (AllocationModelCache::demand_farkas).
  Certificate certify_infeasible(const Problem& p, const std::vector<double>& farkas);

  /// Check a feasible point + standard-form ray for a claimed-unbounded
  /// problem.
  Certificate certify_unbounded(const Problem& p, const std::vector<double>& x,
                                const std::vector<double>& ray);

 private:
  Tolerances tols_;
  /// Standard form of the last problem a Farkas/ray check saw (optimal
  /// claims are checked purely in the original problem space).
  StandardForm sf_;
  std::vector<double> z_;     ///< reduced-cost / row-sum scratch
  std::vector<double> zden_;  ///< matching magnitude sums for relative tests
};

}  // namespace agora::lp
