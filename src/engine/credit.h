// credit.h -- border credits: capacity loaned across the cut edges of a
// federated partition (DESIGN.md §15).
//
// When a single-component agreement graph is split across shards, the cut
// edges carry entitlements that no shard-local LP can see. Following the
// resource-credit discipline of distributed resource managers (credits are
// *owned* by a lender, *loaned* to a borrower, and *revoked* back -- never
// created or destroyed in flight), every cut edge (lender -> borrower) gets
// one Credit: the lender's shard gives up `remaining` units of the lender's
// physical capacity, and the borrower's shard may grant requests against
// exactly that much via its border bank (see federation.h).
//
// The ledger is the single source of truth for loan state. Three invariants
// are enforced here and property-tested in tests/credit_conservation_test:
//
//   * conservation -- sum(shard-local capacity) + nothing == sum(global
//     capacity): every unit loaned out of a lender is debited from its
//     shard-local capacity and credited to exactly one borrower bank, so
//     no settlement order can mint or lose capacity;
//   * no double-spend -- consume() clamps to the credit's remaining balance
//     and throws on overdraw, so a stale federated plan can never spend the
//     same loaned unit twice;
//   * reconciliation -- a settlement round is planned as a pure function of
//     (ledger, targets) and committed atomically and idempotently (keyed by
//     a monotone settle id), so replaying a committed round -- a crashed
//     coordinator retrying, a duplicated message -- is a no-op.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace agora::engine {

/// One border credit: the full lifecycle accounting for a single cut edge.
/// Amounts are cumulative so the lifecycle is auditable after the fact:
/// remaining() is what the borrower's bank may still spend, and
/// granted == consumed + revoked + remaining() at all times.
struct Credit {
  std::uint64_t id = 0;
  std::uint32_t lender = 0;          ///< global participant owning the capacity
  std::uint32_t borrower = 0;        ///< global participant the loan is earmarked for
  std::uint32_t lender_shard = 0;
  std::uint32_t borrower_shard = 0;
  double granted = 0.0;              ///< cumulative amount ever loaned
  double consumed = 0.0;             ///< cumulative amount spent by applied plans
  double revoked = 0.0;              ///< cumulative amount returned to the lender

  double remaining() const { return granted - consumed - revoked; }
};

/// The shard-visible slice of a credit: what a borrower shard needs to
/// attribute bank draws back to lenders. Plain data, safe to ship in a
/// settlement message (see rms::CreditGrant).
struct CreditSlice {
  std::uint64_t id = 0;
  std::uint32_t lender = 0;
  std::uint32_t borrower = 0;
  double remaining = 0.0;
};

class CreditLedger {
 public:
  /// Register the credit for one cut edge (no capacity moves yet). Returns
  /// the credit id. The credit set is fixed once settlement begins: cut
  /// edges are a property of the partition, only balances vary.
  std::uint64_t add_credit(std::size_t lender, std::size_t borrower,
                           std::size_t lender_shard, std::size_t borrower_shard);

  const std::vector<Credit>& credits() const { return credits_; }
  std::size_t size() const { return credits_.size(); }

  /// Spend `amount` of a credit (an applied federated plan drew this much of
  /// the loan). Throws PreconditionError when the credit is unknown or the
  /// amount overdraws remaining() beyond `tol` -- that is a stale plan, and
  /// honoring it would double-spend loaned capacity. Amounts within tol of
  /// the balance are clamped to it.
  void consume(std::uint64_t id, double amount, double tol = 1e-9);

  // --- settlement (two-phase, idempotent) --------------------------------

  struct Adjustment {
    std::uint64_t credit = 0;
    double delta = 0.0;  ///< > 0: additional grant, < 0: revocation
  };

  struct SettlementPlan {
    std::uint64_t settle_id = 0;
    std::vector<Adjustment> adjust;
  };

  /// Plan the round that moves every credit's balance to `targets[id]`
  /// (clamped: a revocation never exceeds remaining). Pure -- no state
  /// changes; the same ledger + targets always plan the same round, which
  /// is what makes a crashed-and-replanned settlement deterministic.
  SettlementPlan plan_settlement(std::span<const double> targets) const;

  /// Apply a planned round. Idempotent by settle id: a plan at or below the
  /// last committed id is ignored (returns false), so duplicate delivery or
  /// a coordinator replaying after a crash cannot double-apply. Deltas are
  /// re-clamped against the live balance defensively.
  bool commit(const SettlementPlan& plan);

  std::uint64_t last_settle_id() const { return last_settle_id_; }
  std::uint64_t next_settle_id() const { return last_settle_id_ + 1; }

  // --- audits ------------------------------------------------------------

  /// Total un-spent, un-revoked loan volume currently debited from `lender`.
  double outstanding_from(std::size_t lender) const;

  struct Totals {
    double granted = 0.0;
    double consumed = 0.0;
    double revoked = 0.0;
    double outstanding = 0.0;  ///< granted - consumed - revoked
  };
  Totals totals() const;

  /// Exact textual fingerprint of the ledger state (ids, balances as hex
  /// bit patterns, settle id). Two ledgers that ran the same op sequence
  /// digest identically -- the replay/idempotency tests compare these.
  std::string digest() const;

 private:
  std::vector<Credit> credits_;  ///< id == index
  std::uint64_t last_settle_id_ = 0;
};

}  // namespace agora::engine
