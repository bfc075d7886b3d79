#include "engine/credit.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/error.h"

namespace agora::engine {

std::uint64_t CreditLedger::add_credit(std::size_t lender, std::size_t borrower,
                                       std::size_t lender_shard, std::size_t borrower_shard) {
  AGORA_REQUIRE(lender != borrower, "a credit must cross participants");
  AGORA_REQUIRE(lender_shard != borrower_shard, "a credit must cross shards");
  Credit c;
  c.id = credits_.size();
  c.lender = static_cast<std::uint32_t>(lender);
  c.borrower = static_cast<std::uint32_t>(borrower);
  c.lender_shard = static_cast<std::uint32_t>(lender_shard);
  c.borrower_shard = static_cast<std::uint32_t>(borrower_shard);
  credits_.push_back(c);
  return c.id;
}

void CreditLedger::consume(std::uint64_t id, double amount, double tol) {
  AGORA_REQUIRE(id < credits_.size(), "unknown credit");
  AGORA_REQUIRE(amount >= 0.0, "credit consumption must be non-negative");
  Credit& c = credits_[id];
  const double rem = c.remaining();
  AGORA_REQUIRE(amount <= rem + tol * (1.0 + rem),
                "stale federated plan: credit overdraw would double-spend a loan");
  c.consumed += std::min(amount, rem);
}

CreditLedger::SettlementPlan CreditLedger::plan_settlement(
    std::span<const double> targets) const {
  AGORA_REQUIRE(targets.size() == credits_.size(), "settlement target size mismatch");
  SettlementPlan plan;
  plan.settle_id = last_settle_id_ + 1;
  plan.adjust.reserve(credits_.size());
  for (const Credit& c : credits_) {
    const double target = std::max(0.0, targets[c.id]);
    const double delta = target - c.remaining();
    // A revocation can never take back more than is still on loan (the
    // consumed part is spent, not returnable); plan_settlement clamps so a
    // committed round always lands exactly on the clamped target.
    const double clamped = std::max(delta, -c.remaining());
    if (clamped != 0.0) plan.adjust.push_back(Adjustment{c.id, clamped});
  }
  return plan;
}

bool CreditLedger::commit(const SettlementPlan& plan) {
  if (plan.settle_id <= last_settle_id_) return false;  // replayed round
  for (const Adjustment& a : plan.adjust) {
    AGORA_REQUIRE(a.credit < credits_.size(), "settlement names an unknown credit");
    Credit& c = credits_[a.credit];
    if (a.delta >= 0.0) {
      c.granted += a.delta;
    } else {
      // Defensive re-clamp: between plan and commit the balance can only
      // have shrunk (consumption), never grown, so a revocation past the
      // live balance revokes what is actually left.
      c.revoked += std::min(-a.delta, c.remaining());
    }
  }
  last_settle_id_ = plan.settle_id;
  return true;
}

double CreditLedger::outstanding_from(std::size_t lender) const {
  double out = 0.0;
  for (const Credit& c : credits_)
    if (c.lender == lender) out += c.remaining();
  return out;
}

CreditLedger::Totals CreditLedger::totals() const {
  Totals t;
  for (const Credit& c : credits_) {
    t.granted += c.granted;
    t.consumed += c.consumed;
    t.revoked += c.revoked;
    t.outstanding += c.remaining();
  }
  return t;
}

std::string CreditLedger::digest() const {
  std::string out;
  out.reserve(credits_.size() * 64 + 32);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "settle=%" PRIu64 "\n", last_settle_id_);
  out += buf;
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  for (const Credit& c : credits_) {
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " %u->%u g=%016" PRIx64 " c=%016" PRIx64 " r=%016" PRIx64 "\n",
                  c.id, c.lender, c.borrower, bits(c.granted), bits(c.consumed),
                  bits(c.revoked));
    out += buf;
  }
  return out;
}

}  // namespace agora::engine
