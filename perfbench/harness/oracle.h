// oracle.h -- the theta-gap oracle: how far a decision's global
// perturbation is from the exact full-system optimum.
//
// A federated engine certifies each grant against its shard-local problem,
// so the grant is feasible but its theta can exceed the global least
// perturbation. The oracle measures that distance from outside the engine:
//
//   theta_global = max_i sum_k draw_k * That_ki    (the plan's real drop)
//   theta_exact  = theta of a full-system alloc::Allocator for the same
//                  (participant, amount) at the same capacities
//   gap_rel      = (theta_global - theta_exact) / max(theta_exact, 1)
//
// That is the clamped transitive share matrix with retained_i on the
// diagonal, exactly the coefficients of the compact LP's perturbation rows.
// The oracle's allocator runs Backend::Revised so that its own solves stay
// cheap; the engine under test keeps whatever options it was given.
// Differences within the LP feasibility tolerance count as no gap, so an
// exact decision reads exactly 0.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "agree/matrices.h"
#include "agree/transitive.h"
#include "alloc/allocator.h"
#include "util/matrix.h"

namespace agora::perf {

class ThetaGapOracle {
 public:
  ThetaGapOracle(const agree::AgreementSystem& sys, const agree::TransitiveOptions& transitive);

  /// Worst capacity drop the draw vector induces anywhere in the system.
  double theta_global(std::span<const double> draw) const;

  /// Relative gap of a satisfied `plan` for (a, amount) at the oracle's
  /// current capacities; nullopt when the plan is not a grant or the exact
  /// LP cannot grant the request.
  std::optional<double> gap_rel(std::size_t a, double amount, const alloc::AllocationPlan& plan);

  /// Mirror an availability report sent to the system under test.
  void set_capacities(std::span<const double> capacity);

 private:
  Matrix that_;
  alloc::Allocator exact_;
  double tol_;
};

}  // namespace agora::perf
