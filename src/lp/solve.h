// solve.h -- the single public LP entry point.
//
//   SolveResult r = lp::solve(problem);                       // defaults
//   SolveResult r = lp::solve(problem, opts);                 // tuned
//   SolveResult r = lp::solve(problem, opts, &workspace);     // amortized
//
// Callers pick a Backend instead of calling a concrete solver; the
// implementations (revised_solve, brute_force_solve) are an internal detail
// of src/lp and their headers are not installed. The revised simplex is the
// one simplex; brute force is an exact oracle for tiny problems.
// SolveOptions also owns the presolve switch: by default a
// workspace-free solve runs presolve -> reduced solve -> postsolve, with the
// mapped result (primal, duals, objective) valid for -- and certifiable
// against -- the ORIGINAL problem. Presolve is transparently skipped when it
// cannot help or would break a stronger contract:
//
//   * workspace solves never presolve: warm-start fingerprints key on the
//     original matrix and the steady-state hot loop must stay
//     allocation-free (presolve rebuilds a Problem), so the trace-driven
//     enforcement path is byte-for-byte the historical one;
//   * a non-Optimal reduced outcome (infeasible/unbounded/decided-
//     infeasible) falls back to solving the original problem directly, so
//     Farkas/ray certificates always refer to the caller's problem;
//   * the brute-force backend is an oracle for tiny problems and always
//     solves the original directly.
//
// With `presolve = false` the call is bit-identical to invoking the chosen
// concrete solver directly, which is exactly what the historical API did.
#pragma once

#include <cstdint>

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/tolerances.h"
#include "lp/workspace.h"

namespace agora::lp {

/// Refactorize the basis every this many pivots to bound numerical drift
/// (shared by the periodic cadence, warm-start bookkeeping, and tests).
inline constexpr std::uint64_t kRefactorInterval = 64;
/// Hard cap on simplex iterations per phase.
inline constexpr std::uint64_t kMaxIterations = 100000;
/// Consecutive degenerate pivots before switching to Bland's rule.
inline constexpr std::uint64_t kStallThreshold = 64;
/// Basis-enumeration cap for Backend::BruteForce.
inline constexpr std::uint64_t kBruteForceMaxBases = 200'000;

enum class Backend {
  /// Revised simplex over a sparse-LU factored basis; the only backend that
  /// accepts a SolveWorkspace for warm starts.
  Revised,
  /// Exhaustive basic-solution enumeration: exact oracle for tiny problems.
  /// Cannot detect unboundedness; throws PreconditionError past
  /// kBruteForceMaxBases.
  BruteForce,
};

inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::Revised: return "revised";
    case Backend::BruteForce: return "brute-force";
  }
  return "unknown";
}

/// Every knob of an LP solve in one struct: backend choice, presolve switch,
/// and the centralized numerical tolerances.
struct SolveOptions {
  Backend backend = Backend::Revised;
  /// Run presolve -> solve -> postsolve (see file comment for when it is
  /// transparently skipped). Off reproduces the historical direct solve
  /// bit for bit.
  bool presolve = true;
  /// Centralized numerical thresholds (shared with presolve and the
  /// certification layer).
  Tolerances tols;
};

/// Solve `p` with the selected backend. `ws` (revised backend only) supplies
/// reusable scratch and the previous optimal basis as a warm start; passing
/// nullptr is a cold solve. See the file comment for the presolve contract.
SolveResult solve(const Problem& p, const SolveOptions& opts = {},
                  SolveWorkspace* ws = nullptr);

}  // namespace agora::lp
