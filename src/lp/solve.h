// solve.h -- the single public LP entry point.
//
//   SolveResult r = lp::solve(problem);                       // defaults
//   SolveResult r = lp::solve(problem, opts);                 // tuned
//   SolveResult r = lp::solve(problem, opts, &workspace);     // amortized
//
// Callers pick a Backend instead of calling a concrete solver; the
// implementations (revised_solve, brute_force_solve) are an internal detail
// of src/lp and their headers are not installed. The revised simplex is the
// one simplex; brute force is an exact oracle for tiny problems. The call
// is exactly the chosen backend's solve of `problem` as posed.
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

/// Every knob of an LP solve in one struct: backend choice and the
/// centralized numerical tolerances.
struct SolveOptions {
  Backend backend = Backend::Revised;
  /// Centralized numerical thresholds (shared with the certification
  /// layer).
  Tolerances tols;
};

/// Solve `p` with the selected backend. `ws` (revised backend only) supplies
/// reusable scratch and the previous optimal basis as a warm start; passing
/// nullptr is a cold solve.
SolveResult solve(const Problem& p, const SolveOptions& opts = {},
                  SolveWorkspace* ws = nullptr);

}  // namespace agora::lp
