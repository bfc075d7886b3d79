// matrices.h -- the matrix view of a sharing-agreement network for one
// resource type, as used by the paper's enforcement model (Section 3):
//
//   V_i  : actual capacity owned by principal i
//   S_ij : relative share issued by i's currency backing j's currency
//   A_ij : absolute amount issued by i backing j
//
// plus `retained_i`, agora's support for the paper's *granting* taxonomy:
// a granting agreement removes the granted share from the grantor's own
// use, so i's usable fraction of its own capacity is retained_i <= 1.
// Pure sharing economies have retained_i = 1 everywhere.
#pragma once

#include <cstddef>
#include <vector>

#include "util/matrix.h"

namespace agora::agree {

struct AgreementSystem {
  std::vector<double> capacity;  ///< V, length n
  Matrix relative;               ///< S, n x n, S(i,i) == 0
  Matrix absolute;               ///< A, n x n, A(i,i) == 0
  std::vector<double> retained;  ///< usable own fraction, length n, default 1

  AgreementSystem() = default;
  explicit AgreementSystem(std::size_t n)
      : capacity(n, 0.0), relative(n, n), absolute(n, n), retained(n, 1.0) {}

  std::size_t size() const { return capacity.size(); }

  /// Row sum of S for principal i (total relative share given away).
  double share_out(std::size_t i) const;

  /// Structural checks: shapes agree, S_ii = A_ii = 0, entries >= 0,
  /// capacities >= 0, retained in [0, 1]. When `allow_overdraft` is false
  /// additionally enforces the paper's basic-model restriction
  /// sum_k S_ik <= 1. Throws PreconditionError on violation.
  void validate(bool allow_overdraft = false) const;
};

/// Connected components of the symmetrized agreement support S + A: i and j
/// share a component when a chain of relative or absolute agreements, in
/// either direction, links them. Capacity can only flow along such chains,
/// so every entitlement between two components is identically zero. Members
/// are ascending; components are ordered by their smallest member.
std::vector<std::vector<std::size_t>> connected_components(const AgreementSystem& sys);

/// The system restricted to `members` (global ids; local index l is
/// members[l]): their capacities and retained fractions and the agreements
/// among them. Loses no entitlement when `members` is a union of components.
AgreementSystem induced_system(const AgreementSystem& sys, const std::vector<std::size_t>& members);

}  // namespace agora::agree
