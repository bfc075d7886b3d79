#include "engine/federation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace agora::engine {

namespace {
constexpr std::size_t kNoBank = std::numeric_limits<std::size_t>::max();
/// Cap on the total fraction of a lender's capacity on loan at once; the
/// rest stays home so the lender's own shard keeps admitting locally.
constexpr double kLendCap = 0.5;
}  // namespace

std::vector<BorderEdge> find_border_edges(const agree::AgreementSystem& sys,
                                          const Partition& part) {
  std::vector<BorderEdge> edges;
  const std::size_t n = sys.size();
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t b = 0; b < n; ++b) {
      if (l == b || part.shard_of[l] == part.shard_of[b]) continue;
      if (sys.relative(l, b) > 0.0 || sys.absolute(l, b) > 0.0)
        edges.push_back(BorderEdge{l, b});
    }
  }
  return edges;
}

Federation::Federation(const agree::AgreementSystem& sys, const Partition& part,
                       const Matrix& shares, FederationOptions opts)
    : sys_(sys), part_(part), shares_(shares), opts_(opts) {
  AGORA_REQUIRE(shares_.rows() == sys_.size() && shares_.cols() == sys_.size(),
                "federation share matrix shape mismatch");
  bank_index_.assign(part_.shards, kNoBank);
  in_.assign(part_.shards, {});
  out_by_member_.assign(sys_.size(), {});
  for (const BorderEdge& e : find_border_edges(sys_, part_)) {
    const std::size_t bs = part_.shard_of[e.borrower];
    const std::uint64_t id =
        ledger_.add_credit(e.lender, e.borrower, part_.shard_of[e.lender], bs);
    in_[bs].push_back(id);
    out_by_member_[e.lender].push_back(id);
  }
  last_earmarks_.resize(part_.shards);
  for (std::size_t s = 0; s < part_.shards; ++s) {
    if (!in_[s].empty()) bank_index_[s] = part_.members[s].size();
    last_earmarks_[s].assign(part_.members[s].size(), 0.0);
  }
}

std::size_t Federation::local_size(std::size_t shard) const {
  return part_.members[shard].size() + (bank_index_[shard] == kNoBank ? 0 : 1);
}

std::vector<double> Federation::targets(std::span<const double> capacity) const {
  AGORA_REQUIRE(capacity.size() == sys_.size(), "federation capacity size mismatch");
  // Price every cut edge at its global entitlement, using the *current*
  // capacity for V_l (entitlements scale with capacity).
  std::vector<double> t(ledger_.size(), 0.0);
  std::vector<double> per_lender(sys_.size(), 0.0);
  for (const Credit& c : ledger_.credits()) {
    const double v = capacity[c.lender];
    const double ent =
        std::min(v * shares_(c.lender, c.borrower) + sys_.absolute(c.lender, c.borrower), v);
    t[c.id] = std::max(0.0, ent);
    per_lender[c.lender] += t[c.id];
  }
  // Keep at least (1 - kLendCap) of every lender home: scale its loans
  // pro-rata when their sum would exceed kLendCap * V_l.
  for (const Credit& c : ledger_.credits()) {
    const double cap = kLendCap * capacity[c.lender];
    const double want = per_lender[c.lender];
    if (want > cap && want > 0.0) t[c.id] *= cap / want;
  }
  return t;
}

agree::AgreementSystem Federation::build_local(std::size_t shard,
                                               std::span<const double> capacity) const {
  const std::vector<std::size_t>& members = part_.members[shard];
  const std::size_t m = members.size();
  const std::size_t bank = bank_index_[shard];
  agree::AgreementSystem local(bank == kNoBank ? m : m + 1);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t g = members[i];
    local.capacity[i] = std::max(0.0, capacity[g] - ledger_.outstanding_from(g));
    local.retained[i] = sys_.retained[g];
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      const std::size_t h = members[j];
      local.relative(i, j) = sys_.relative(g, h);
      local.absolute(i, j) = sys_.absolute(g, h);
    }
  }
  if (bank != kNoBank) {
    // The bank holds the inbound loan balances, earmarked per borrower via
    // absolute agreements: U(bank -> b) = min(earmark_b, V_bank), and the
    // bank shares nothing else (no relative rows/cols), so a borrower can
    // spend its own earmark and nothing more.
    double pool = 0.0;
    for (std::uint64_t id : in_[shard]) {
      const Credit& c = ledger_.credits()[id];
      const double rem = c.remaining();
      pool += rem;
      std::size_t li = 0;
      while (members[li] != c.borrower) ++li;
      local.absolute(bank, li) += rem;
    }
    local.capacity[bank] = pool;
    local.retained[bank] = 1.0;
  }
  return local;
}

std::vector<Federation::ShardUpdate> Federation::settle(std::span<const double> capacity) {
  AGORA_REQUIRE(capacity.size() == sys_.size(), "federation capacity size mismatch");
  const std::vector<double> t = targets(capacity);
  const CreditLedger::SettlementPlan plan = ledger_.plan_settlement(t);
  if (ledger_.commit(plan)) ++settlements_;

  std::vector<ShardUpdate> updates(part_.shards);
  for (std::size_t s = 0; s < part_.shards; ++s) {
    const std::vector<std::size_t>& members = part_.members[s];
    ShardUpdate& u = updates[s];

    // Post-commit earmarks decide patch vs rebuild: bank agreements are
    // matrix data, so only an identical earmark vector can ride a
    // capacity-only patch.
    std::vector<double> earmarks(members.size(), 0.0);
    double pool = 0.0;
    for (std::uint64_t id : in_[s]) {
      const Credit& c = ledger_.credits()[id];
      const double rem = c.remaining();
      pool += rem;
      std::size_t li = 0;
      while (members[li] != c.borrower) ++li;
      earmarks[li] += rem;
      u.credits.push_back(CreditSlice{c.id, c.lender, c.borrower, rem});
    }

    if (earmarks != last_earmarks_[s]) {
      u.rebuild = std::make_shared<agree::AgreementSystem>(build_local(s, capacity));
      u.capacity = u.rebuild->capacity;
      last_earmarks_[s] = std::move(earmarks);
    } else {
      u.capacity.reserve(local_size(s));
      for (std::size_t g : members)
        u.capacity.push_back(std::max(0.0, capacity[g] - ledger_.outstanding_from(g)));
      if (bank_index_[s] != kNoBank) u.capacity.push_back(pool);
    }
  }
  return updates;
}

void Federation::consume(std::span<const alloc::BorrowedDraw> borrowed, double tol) {
  for (const alloc::BorrowedDraw& b : borrowed) ledger_.consume(b.credit, b.amount, tol);
}

}  // namespace agora::engine
