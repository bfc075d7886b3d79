// Property tests for the border-credit ledger (engine/credit.h): across
// random loan / revoke / settle / consume / crash interleavings,
//
//   * conservation -- sum(lender-local capacity) + sum(borrower banks) is
//     exactly the global capacity total: no interleaving mints or loses a
//     unit (loaned capacity moves, it never duplicates);
//   * no double-spend -- consuming past a credit's live balance throws
//     instead of spending the same loaned unit twice;
//   * reconciliation -- every committed settlement lands each credit on its
//     clamped target, replaying a committed round (coordinator crash,
//     duplicated message) is a no-op, and a crashed-and-replanned round is
//     bit-deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "engine/credit.h"
#include "util/error.h"

namespace agora::engine {
namespace {

/// A model economy around a ledger: global capacities, shard assignment,
/// and the derived local views the conservation invariant is stated over.
struct Model {
  std::vector<double> capacity;       ///< global V_k
  std::vector<std::size_t> shard_of;  ///< participant -> shard
  std::size_t shards = 0;
  CreditLedger ledger;

  double global_total() const {
    double s = 0.0;
    for (double v : capacity) s += v;
    return s;
  }

  /// sum over lenders of (V_k - outstanding loans) + sum over banks of
  /// inbound balances. Conservation says this equals global_total().
  double local_total() const {
    double s = 0.0;
    for (std::size_t k = 0; k < capacity.size(); ++k)
      s += capacity[k] - ledger.outstanding_from(k);
    for (const Credit& c : ledger.credits()) s += c.remaining();
    return s;
  }
};

Model random_model(std::mt19937_64& rng, std::size_t n, std::size_t shards,
                   std::size_t credits) {
  Model m;
  m.shards = shards;
  m.capacity.resize(n);
  m.shard_of.resize(n);
  std::uniform_real_distribution<double> cap(10.0, 50.0);
  for (std::size_t i = 0; i < n; ++i) {
    m.capacity[i] = cap(rng);
    m.shard_of[i] = i % shards;
  }
  std::uniform_int_distribution<std::size_t> who(0, n - 1);
  std::size_t made = 0;
  while (made < credits) {
    const std::size_t l = who(rng), b = who(rng);
    if (l == b || m.shard_of[l] == m.shard_of[b]) continue;
    m.ledger.add_credit(l, b, m.shard_of[l], m.shard_of[b]);
    ++made;
  }
  return m;
}

/// Random settlement targets, each bounded so no lender can be asked to
/// loan more than it owns in total (matching Federation's kLendCap role).
std::vector<double> random_targets(std::mt19937_64& rng, const Model& m) {
  std::vector<double> t(m.ledger.size(), 0.0);
  std::vector<double> headroom = m.capacity;
  std::uniform_real_distribution<double> frac(0.0, 0.4);
  for (const Credit& c : m.ledger.credits()) {
    t[c.id] = std::min(frac(rng) * m.capacity[c.lender], headroom[c.lender]);
    headroom[c.lender] -= t[c.id];
  }
  return t;
}

TEST(CreditConservation, RandomInterleavingsConserveCapacity) {
  std::mt19937_64 rng(31337);
  for (int econ = 0; econ < 8; ++econ) {
    Model m = random_model(rng, 12 + 4 * econ, 2 + econ % 3, 6 + 2 * econ);
    ASSERT_NEAR(m.local_total(), m.global_total(), 1e-9);  // nothing loaned yet

    double consumed_total = 0.0;
    std::uniform_real_distribution<double> frac(0.0, 1.0);
    std::uniform_int_distribution<int> op(0, 3);
    for (int step = 0; step < 200; ++step) {
      switch (op(rng)) {
        case 0: {  // settle toward fresh random targets
          const auto targets = random_targets(rng, m);
          const auto plan = m.ledger.plan_settlement(targets);
          ASSERT_TRUE(m.ledger.commit(plan));
          // Reconciliation: every credit lands exactly on its clamped target.
          for (const Credit& c : m.ledger.credits())
            EXPECT_NEAR(c.remaining(), std::max(0.0, targets[c.id]), 1e-9);
          break;
        }
        case 1: {  // consume part of a live loan (a federated apply)
          for (const Credit& c : m.ledger.credits()) {
            if (c.remaining() <= 0.0) continue;
            const double amount = frac(rng) * c.remaining();
            m.ledger.consume(c.id, amount);
            // The spend leaves the economy entirely (the requester used it):
            // the lender's global capacity drops with it.
            m.capacity[c.lender] -= amount;
            consumed_total += amount;
            break;
          }
          break;
        }
        case 2: {  // coordinator crash: a committed round is replayed
          const auto targets = random_targets(rng, m);
          const auto plan = m.ledger.plan_settlement(targets);
          ASSERT_TRUE(m.ledger.commit(plan));
          const std::string before = m.ledger.digest();
          EXPECT_FALSE(m.ledger.commit(plan));  // duplicate delivery: no-op
          EXPECT_EQ(m.ledger.digest(), before);
          break;
        }
        case 3: {  // crash between plan and commit: replanning is identical
          const auto targets = random_targets(rng, m);
          const auto lost = m.ledger.plan_settlement(targets);
          const auto replanned = m.ledger.plan_settlement(targets);
          ASSERT_EQ(lost.settle_id, replanned.settle_id);
          ASSERT_EQ(lost.adjust.size(), replanned.adjust.size());
          for (std::size_t i = 0; i < lost.adjust.size(); ++i) {
            EXPECT_EQ(lost.adjust[i].credit, replanned.adjust[i].credit);
            EXPECT_EQ(lost.adjust[i].delta, replanned.adjust[i].delta);
          }
          ASSERT_TRUE(m.ledger.commit(replanned));
          break;
        }
      }
      // THE invariant: local views partition the global capacity exactly,
      // after every single step.
      ASSERT_NEAR(m.local_total(), m.global_total(), 1e-7 * (1.0 + m.global_total()))
          << "econ=" << econ << " step=" << step;
    }
    // Lifecycle audit closes: granted = consumed + revoked + outstanding,
    // and what was consumed here is exactly what left the economy.
    const CreditLedger::Totals t = m.ledger.totals();
    EXPECT_NEAR(t.granted, t.consumed + t.revoked + t.outstanding,
                1e-7 * (1.0 + t.granted));
    EXPECT_NEAR(t.consumed, consumed_total, 1e-7 * (1.0 + consumed_total));
  }
}

TEST(CreditConservation, OverdrawThrowsInsteadOfDoubleSpending) {
  CreditLedger ledger;
  const std::uint64_t id = ledger.add_credit(0, 1, 0, 1);
  std::vector<double> targets{5.0};
  ASSERT_TRUE(ledger.commit(ledger.plan_settlement(targets)));
  ledger.consume(id, 3.0);
  EXPECT_NEAR(ledger.credits()[id].remaining(), 2.0, 1e-12);
  // Within tolerance of the balance: clamped, not thrown.
  ledger.consume(id, 2.0 + 1e-12);
  EXPECT_NEAR(ledger.credits()[id].remaining(), 0.0, 1e-9);
  // Beyond it: a stale plan trying to double-spend the loan.
  EXPECT_THROW(ledger.consume(id, 0.5), PreconditionError);
  // Revocation can only take back what is still live, never the spent part.
  std::vector<double> zero{0.0};
  ASSERT_TRUE(ledger.commit(ledger.plan_settlement(zero)));
  const CreditLedger::Totals t = ledger.totals();
  EXPECT_NEAR(t.consumed, 5.0, 1e-9);
  EXPECT_NEAR(t.outstanding, 0.0, 1e-9);
}

TEST(CreditConservation, CreditsMustCrossShards) {
  CreditLedger ledger;
  EXPECT_THROW(ledger.add_credit(0, 0, 0, 1), PreconditionError);
  EXPECT_THROW(ledger.add_credit(0, 1, 2, 2), PreconditionError);
}

TEST(CreditConservation, SameSeedReplayDigestsIdentically) {
  const auto run = [](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Model m = random_model(rng, 16, 3, 10);
    std::uniform_real_distribution<double> frac(0.0, 1.0);
    for (int step = 0; step < 60; ++step) {
      const auto targets = random_targets(rng, m);
      EXPECT_TRUE(m.ledger.commit(m.ledger.plan_settlement(targets)));
      for (const Credit& c : m.ledger.credits()) {
        if (c.remaining() <= 0.0) continue;
        m.ledger.consume(c.id, frac(rng) * c.remaining());
        break;
      }
    }
    return m.ledger.digest();
  };
  const std::string a = run(777);
  const std::string b = run(777);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a, run(778));  // the digest actually discriminates states
}

}  // namespace
}  // namespace agora::engine
