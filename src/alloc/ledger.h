// ledger.h -- the one rule every capacity write follows (DESIGN.md §6).
//
// A capacity write is a draw (a plan), a release (capacity handed back) or
// a replacement (a fresh report of every V_i). Allocator,
// HierarchicalAllocator, the engine, MultiResourceAllocator and the GRM's
// known availability all compute their next capacities here, so the part of
// the paper's constraint (4), 0 <= V_i - V'_i <= I_iA, that a commit can
// check is checked once: the whole write before anything changes (sizes
// match, entries finite, draws and releases >= 0, a draw at most its
// capacity + kOverdrawTol), with a draw's result clamped at 0. From finite,
// non-negative capacities the result is finite and non-negative. The LRM is
// the one exception: it is the physical truth and clamps a stale decision's
// overshoot to what exists (DESIGN.md §7).
#pragma once

#include <span>
#include <vector>

#include "alloc/plan.h"

namespace agora::alloc {

/// How far, in absolute units, a draw may exceed its principal's capacity:
/// the round-off a certified plan's draw carries past the bound it sits on.
inline constexpr double kOverdrawTol = 1e-7;

struct CapacityWrite {
  enum class Kind { Draw, Release, Replace };
  Kind kind = Kind::Replace;
  /// The draw, the amounts given back, or the new capacities; one per principal.
  std::span<const double> amounts;
  /// The border credits a federated draw spends (its plan's `borrowed`).
  std::span<const BorrowedDraw> spend;
};

/// Store `write` applied to `current` in `next` (resized to current.size()).
/// Throws PreconditionError, leaving `next` as it was, when any entry breaks
/// the rule.
void next_capacities(std::span<const double> current, const CapacityWrite& write,
                     std::vector<double>& next);

}  // namespace agora::alloc
