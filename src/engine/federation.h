// federation.h -- federated cross-shard enforcement: loan policy, border
// banks, and epoch-boundary settlement (DESIGN.md §15).
//
// Without federation a single-component agreement graph runs on one exact
// shard, so sharding adds no parallelism exactly on the graph shape a
// production economy has. Federation splits it: the partition cuts the
// *lightest* agreement edges (partition.h, federated mode); every cut edge
// (lender -> borrower) becomes a border Credit (credit.h); and each shard's
// local allocator runs over its members plus one extra slot -- the *border
// bank* -- whose capacity is the sum of inbound loan balances and whose
// absolute agreements earmark each borrower's share of them. A consult
// therefore touches only shard-local state: the LP, the lp::Verifier
// certification, and the bank bounds are all local, and no consult ever
// blocks on a remote shard.
//
// Soundness: a loan target never exceeds the cut edge's *global*
// entitlement min(V_l * K_la + A_la, V_l), and issuing it debits the
// lender's shard-local capacity, so
//
//   * any bank draw the local LP certifies is also feasible for the global
//     LP (draws attributed to lenders stay within global entitlements);
//   * two shards can never spend the same physical unit (the lender's
//     shard no longer sees loaned capacity; the borrower's bank is the only
//     holder of it).
//
// The price is optimality, not safety: the local theta the Verifier
// certifies ignores capacity drops at remote lenders, so federated plans
// can be worse than the exact global optimum. Federation measures that gap
// instead of assuming it: each settlement round re-solves a sample of the
// epoch's decisions against an exact full-system allocator and reports the
// theta gap through obs (engine.federation.gap_*).
//
// Settlement rides the engine's existing mutation machinery: consume the
// credits applied plans spent, re-plan every balance toward the policy
// target for the new capacities (CreditLedger::plan_settlement + commit,
// idempotent), and hand each shard its new local slice -- a capacity-only
// patch when earmarks are unchanged, a rebuilt local system when they
// moved. Consults queued behind the patch on one shard never wait on any
// other shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "agree/matrices.h"
#include "alloc/plan.h"
#include "engine/credit.h"
#include "engine/partition.h"
#include "util/matrix.h"

namespace agora::engine {

struct FederationOptions {
  /// Master switch: when true (and threads > 1), single-component graphs
  /// are split by edge-scored partitioning with border credits instead of
  /// running on one exact shard.
  bool enabled = false;
  /// How many of the epoch's decisions each settlement re-solves against
  /// the exact global LP to measure the optimality gap. 0 disables the
  /// probe (and the gap telemetry).
  std::size_t gap_probes = 4;
};

/// A cut agreement edge: lender's shard != borrower's shard and the edge
/// carries entitlement (S or A nonzero in the lender -> borrower direction).
struct BorderEdge {
  std::size_t lender = 0;
  std::size_t borrower = 0;
};

/// Every directed cut edge of `part` with nonzero entitlement, ordered by
/// (lender, borrower) for determinism.
std::vector<BorderEdge> find_border_edges(const agree::AgreementSystem& sys,
                                          const Partition& part);

/// A federated consult sampled for the settlement round's gap probe.
struct GapSample {
  std::size_t participant = 0;
  double amount = 0.0;
  double theta_global = 0.0;  ///< measured global perturbation of the plan
};

class Federation {
 public:
  /// `shares` is the global clamped transitive share matrix with retained_i
  /// on the diagonal (the engine's recertification matrix): loan targets and
  /// gap measurements both price draws with it.
  Federation(const agree::AgreementSystem& sys, const Partition& part, const Matrix& shares,
             FederationOptions opts);

  /// True when the partition produced at least one border credit. Inactive
  /// federation (no cut entitlements) is exactly connectivity sharding.
  bool active() const { return ledger_.size() > 0; }

  const CreditLedger& ledger() const { return ledger_; }
  const FederationOptions& options() const { return opts_; }

  /// Local index of shard `s`'s border bank, or npos when the shard has no
  /// inbound credits (its local system then has no bank slot).
  std::size_t bank_index(std::size_t shard) const { return bank_index_[shard]; }
  /// Local system size for shard `s` (members + bank slot when present).
  std::size_t local_size(std::size_t shard) const;

  /// Policy: the per-credit loan balance the next settlement steers toward,
  /// given global capacities -- the cut edge's global entitlement, scaled
  /// down pro-rata where a lender's total would exceed kLendCap * V_lender
  /// (federation.cpp).
  std::vector<double> targets(std::span<const double> capacity) const;

  /// What one settlement round hands each shard.
  struct ShardUpdate {
    /// New local capacity slice: members (own capacity minus loans out),
    /// then the bank slot (sum of inbound balances) when the shard has one.
    std::vector<double> capacity;
    /// Rebuilt local system when the shard's earmarks changed this round
    /// (bank agreements are matrix data, which a capacity patch cannot
    /// express); null when `capacity` alone carries the round.
    std::shared_ptr<agree::AgreementSystem> rebuild;
    /// The shard's inbound credit table after the round, ascending by id --
    /// what the shard's consults use to attribute bank draws to lenders.
    std::vector<CreditSlice> credits;
  };

  /// Run one settlement round against `capacity` (the new global capacity
  /// vector): plan + commit the ledger adjustments, then emit every shard's
  /// updated local slice. Deterministic; call under the engine's mutation
  /// lock.
  std::vector<ShardUpdate> settle(std::span<const double> capacity);

  /// Materialize shard `s`'s local agreement system against the current
  /// ledger: members first (capacity debited by their outstanding loans),
  /// then the bank slot when the shard has inbound credits. The engine uses
  /// this to build the initial per-shard allocators after the first settle.
  agree::AgreementSystem local_system(std::size_t shard,
                                      std::span<const double> capacity) const {
    return build_local(shard, capacity);
  }

  /// Spend the credits an applied plan drew on (alloc::AllocationPlan::
  /// borrowed). Throws PreconditionError on overdraw -- the stale-plan
  /// double-spend guard.
  void consume(std::span<const alloc::BorrowedDraw> borrowed, double tol);

  std::uint64_t settlements() const { return settlements_; }

 private:
  agree::AgreementSystem build_local(std::size_t shard,
                                     std::span<const double> capacity) const;

  const agree::AgreementSystem& sys_;
  const Partition& part_;
  const Matrix& shares_;  ///< global clamped K with retained on the diagonal
  FederationOptions opts_;
  CreditLedger ledger_;
  std::vector<std::size_t> bank_index_;           ///< per shard; npos = no bank
  std::vector<std::vector<std::uint64_t>> in_;    ///< per shard: inbound credit ids
  std::vector<std::vector<std::uint64_t>> out_by_member_;  ///< flat per-participant outbound ids
  std::vector<std::vector<double>> last_earmarks_;  ///< per shard: earmark per member
  std::uint64_t settlements_ = 0;
};

}  // namespace agora::engine
