#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.h"

namespace agora::engine {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

}  // namespace

EngineResult resolve(const alloc::AllocatorBase& backend, std::size_t a, double amount) {
  EngineResult res;
  try {
    res.plan = backend.allocate(a, amount);
    res.status = res.plan.to_status();
  } catch (const std::exception& e) {
    res.status = to_status(e);
  }
  return res;
}

EnforcementEngine::EnforcementEngine(agree::AgreementSystem sys, EngineOptions opts)
    : sys_(std::move(sys)), n_(sys_.size()), opts_(std::move(opts)) {
  PartitionOptions popts;
  popts.shards = opts_.threads;
  popts.federated = opts_.federation.enabled;
  part_ = partition_participants(sys_, popts);

  obs_consults_ = &opts_.sink.counter("engine.consults");
  epochs_ = obs::Tally(opts_.sink.counter("engine.epochs"));
  obs_pc_hits_ = &opts_.sink.counter("engine.plan_cache.hits");
  obs_pc_rejects_ = &opts_.sink.counter("engine.plan_cache.certify_rejects");
  obs_pc_neg_hits_ = &opts_.sink.counter("engine.plan_cache.neg_hits");
  obs_pc_neg_rejects_ = &opts_.sink.counter("engine.plan_cache.neg_rejects");
  obs_fed_settlements_ = &opts_.sink.counter("engine.federation.settlements");
  gap_probes_ = obs::Tally(opts_.sink.counter("engine.federation.gap_probes"));
  obs_fed_outstanding_ = &opts_.sink.gauge("engine.federation.outstanding");
  obs_fed_gap_rel_ = &opts_.sink.gauge("engine.federation.gap_rel");

  if (opts_.plan_cache) pcache_ = std::make_unique<PlanCache>(PlanCacheOptions{}, opts_.sink);
  if (opts_.plan_cache || part_.federated) {
    // The global perturbation coefficients: one row per drawn-on participant
    // k, that_(k, i) = capacity drop at i per unit drawn at k. Identical to
    // the compact LP's perturbation rows (clamped transitive shares off the
    // diagonal, retained share on it), and global in every sharding mode --
    // which is what makes it usable both for plan-cache re-certification and
    // for the federation's loan targets / gap probes.
    that_ = agree::overdraft_clamp(
        agree::transitive_shares(sys_.relative, opts_.alloc.transitive));
    for (std::size_t i = 0; i < n_; ++i) that_(i, i) = sys_.retained[i];
  }

  std::vector<Federation::ShardUpdate> fed_init;
  if (part_.federated) {
    fed_ = std::make_unique<Federation>(sys_, part_, that_, opts_.federation);
    if (!fed_->active()) {
      // The packing happened to cut no entitlement-carrying edges: this is
      // plain connectivity sharding, no credits or settlement needed.
      fed_.reset();
    } else {
      fed_init = fed_->settle(sys_.capacity);  // grant the initial loans
      if (opts_.federation.gap_probes > 0) {
        alloc::AllocatorOptions xopts = opts_.alloc;
        // Reference measurements, never admissions: kept out of the
        // engine's lp.pipeline.* and alloc.* counts.
        xopts.sink = obs::Sink::none();
        exact_ = std::make_unique<alloc::Allocator>(sys_, xopts);
      }
    }
  }

  const std::size_t n = n_;
  shards_.reserve(part_.shards);
  for (std::size_t s = 0; s < part_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    shard->members = part_.members[s];
    shard->local_of.assign(n, kNpos);
    for (std::size_t l = 0; l < shard->members.size(); ++l)
      shard->local_of[shard->members[l]] = l;
    if (fed_) {
      shard->alloc = std::make_unique<alloc::Allocator>(
          fed_->local_system(s, sys_.capacity), opts_.alloc);
      shard->bank = fed_->bank_index(s);
      shard->credits = std::move(fed_init[s].credits);
    } else {
      // Connectivity mode: a shard's members are whole components, so the
      // induced sub-economy loses no entitlement.
      shard->alloc = std::make_unique<alloc::Allocator>(
          agree::induced_system(sys_, shard->members), opts_.alloc);
    }
    shard->consults = obs::Tally(*obs_consults_);
    shards_.push_back(std::move(shard));
  }

  // Construction-time snapshot (epoch 0): no caller can hold a run lock
  // before the constructor returns, so the allocators are read without them.
  std::vector<double> available(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Shard& owner = *shards_[part_.shard_of[i]];
    available[i] = owner.alloc->available_to(owner.local_of[i]);
  }
  cell_.store(std::make_shared<const CapacitySnapshot>(
      CapacitySnapshot{0, sys_.capacity, std::move(available)}));
}

alloc::AllocationPlan EnforcementEngine::decide(Shard& shard, std::size_t a,
                                                double amount) const {
  shard.consults.inc();
  alloc::AllocationPlan local = shard.alloc->allocate(shard.local_of[a], amount);
  alloc::AllocationPlan plan =
      fed_ ? federate(shard, std::move(local), a) : globalize(shard, std::move(local));
  // The decision was made against this shard's state after its
  // muts_applied-th mutation, which is exactly the epoch-muts_applied
  // snapshot on its members (see the field's comment); stamp it so callers
  // can assert freshness.
  const std::uint64_t epoch = shard.muts_applied.load();
  plan.decision_epoch = epoch;
  if (fed_ && plan.satisfied() && opts_.federation.gap_probes > 0)
    sample_gap(shard, plan, a, amount);
  // Cache certified outcomes of BOTH polarities: grants for replay, and
  // Insufficient denials (certified infeasible by a Farkas vector, mostly
  // the allocator's closed-form one) so a requester hammering an impossible
  // amount is refused without reaching the allocator. Denied /
  // SolverFailed are give-ups, never cached.
  if (pcache_ && plan.certified &&
      (plan.status == alloc::PlanStatus::Satisfied ||
       plan.status == alloc::PlanStatus::Insufficient))
    pcache_->insert(epoch, a, amount, plan);
  return plan;
}

alloc::AllocationPlan EnforcementEngine::globalize(const Shard& shard,
                                                   alloc::AllocationPlan local) const {
  if (shard.members.size() == n_ || local.draw.empty()) return local;
  std::vector<double> draw(n_, 0.0);
  for (std::size_t l = 0; l < shard.members.size(); ++l) draw[shard.members[l]] = local.draw[l];
  local.draw = std::move(draw);
  return local;
}

alloc::AllocationPlan EnforcementEngine::federate(Shard& shard, alloc::AllocationPlan local,
                                                  std::size_t a) const {
  double bank_draw = 0.0;
  if (shard.bank != kNpos && local.draw.size() > shard.bank)
    bank_draw = local.draw[shard.bank];
  alloc::AllocationPlan plan = globalize(shard, std::move(local));
  if (bank_draw <= 0.0 || plan.draw.empty()) return plan;
  // Attribute the bank draw to individual credits greedily in id order:
  // deterministic, and exhaustive because the local LP bounds the draw by
  // the requester's earmark (the sum of its credit balances).
  double left = bank_draw;
  for (const CreditSlice& c : shard.credits) {
    if (c.borrower != a || left <= 0.0) continue;
    const double take = std::min(left, c.remaining);
    if (take <= 0.0) continue;
    plan.draw[c.lender] += take;
    plan.borrowed.push_back(alloc::BorrowedDraw{c.id, take});
    left -= take;
  }
  if (left > 0.0 && !plan.borrowed.empty()) {
    // Feasibility-tolerance residue past the earmark: fold it into the last
    // credit touched (CreditLedger::consume clamps within tolerance) so the
    // global draws still sum to the granted amount.
    alloc::BorrowedDraw& b = plan.borrowed.back();
    b.amount += left;
    for (const CreditSlice& c : shard.credits) {
      if (c.id != b.credit) continue;
      plan.draw[c.lender] += left;
      break;
    }
  }
  return plan;
}

void EnforcementEngine::sample_gap(Shard& shard, const alloc::AllocationPlan& plan,
                                   std::size_t a, double amount) const {
  // The plan's measured global perturbation: the worst capacity drop its
  // draw vector induces anywhere under the global coefficients -- what the
  // exact LP's theta is compared against at the next settlement.
  thread_local std::vector<double> drop;
  drop.assign(n_, 0.0);
  for (std::size_t k = 0; k < n_; ++k)
    if (plan.draw[k] != 0.0) vaxpy(plan.draw[k], that_.row(k), std::span<double>(drop));
  GapSample s;
  s.participant = a;
  s.amount = amount;
  s.theta_global = *std::max_element(drop.begin(), drop.end());
  const std::size_t cap = opts_.federation.gap_probes;
  if (shard.gap_samples.size() < cap)
    shard.gap_samples.push_back(s);
  else
    shard.gap_samples[shard.gap_next % cap] = s;
  ++shard.gap_next;
}

alloc::AllocationPlan EnforcementEngine::consult(std::size_t a, double amount) const {
  AGORA_REQUIRE(a < n_, "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");
  if (pcache_) {
    if (std::optional<alloc::AllocationPlan> hit = cached_decision(a, amount))
      return std::move(*hit);
  }
  Shard& shard = *shards_[part_.shard_of[a]];
  std::lock_guard<std::mutex> run(shard.run_mu);
  return decide(shard, a, amount);
}

std::future<EngineResult> EnforcementEngine::submit(std::size_t a, double amount) const {
  std::promise<EngineResult> p;
  p.set_value(resolve(*this, a, amount));
  return p.get_future();
}

std::optional<alloc::AllocationPlan> EnforcementEngine::cached_decision(
    std::size_t a, double amount) const {
  const std::shared_ptr<const CapacitySnapshot> snap = cell_.load();
  PlanCache::LookupResult found = pcache_->lookup(snap->epoch, a, amount);
  switch (found.outcome) {
    case PlanCache::Outcome::Miss:
    case PlanCache::Outcome::Stale:
      return std::nullopt;
    case PlanCache::Outcome::Hit:
      break;
  }
  if (found.entry->negative()) {
    // Cached denial. The cheap re-check mirrors recertify()'s role for
    // grants: confirm infeasibility against the PUBLISHED snapshot (the
    // epoch compare may have raced a concurrent publish). Insufficient
    // means demand exceeds availability C_a, so the denial still holds iff
    // the amount is strictly beyond what the snapshot makes available.
    const double tol = opts_.alloc.solve.tols.feasibility;
    if (amount > snap->available[a] + tol * (1.0 + std::fabs(amount))) {
      obs_pc_neg_hits_->inc();
      obs_consults_->inc();
      return found.entry->plan;
    }
    // Availability caught up with the request: the denial is no longer
    // provable. Fall through to a fresh solve (which will overwrite the
    // entry with a grant if one exists).
    pcache_->note_certify_reject();
    obs_pc_neg_rejects_->inc();
    return std::nullopt;
  }
  if (!recertify(*found.entry, *snap)) {
    // The stored plan no longer proves admissible against the published
    // state (e.g. the snapshot moved between the epoch compare and here).
    // Never serve it -- fall through to a fresh certified solve.
    pcache_->note_certify_reject();
    obs_pc_rejects_->inc();
    return std::nullopt;
  }
  obs_pc_hits_->inc();
  obs_consults_->inc();
  return found.entry->plan;
}

bool EnforcementEngine::recertify(const PlanCache::Entry& e,
                                  const CapacitySnapshot& snap) const {
  // Residual feasibility check of a stored plan against SNAPSHOT data:
  // every nonzero draw within the drawer's current entitlement to `a`,
  // demand met exactly, theta covering the capacity drop it induces
  // anywhere. O(nnz) bound checks + O(nnz * n) drop accumulation on the
  // vectorized vaxpy kernel.
  const double tol = opts_.alloc.solve.tols.feasibility;
  const std::size_t a = e.participant;
  thread_local std::vector<double> drop;
  drop.assign(n_, 0.0);
  double total = 0.0;
  for (const std::uint32_t k : e.nz) {
    const double d = e.plan.draw[k];
    const double vk = snap.capacity[k];
    const double bound = k == a ? sys_.retained[a] * vk
                                : std::min(vk * that_(k, a) + sys_.absolute(k, a), vk);
    if (d > bound + tol * (1.0 + bound)) return false;
    vaxpy(d, that_.row(k), std::span<double>(drop));
    total += d;
  }
  if (std::fabs(total - e.amount) > tol * (1.0 + std::fabs(e.amount))) return false;
  const double theta_cap = e.plan.theta + tol * (1.0 + e.plan.theta);
  for (std::size_t i = 0; i < n_; ++i)
    if (drop[i] > theta_cap) return false;
  return true;
}

double EnforcementEngine::available_to(std::size_t a) const {
  AGORA_REQUIRE(a < n_, "unknown principal");
  return cell_.load()->available[a];
}

void EnforcementEngine::commit(const alloc::CapacityWrite& write) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  std::vector<double> next;
  alloc::next_capacities(sys_.capacity, write, next);
  mutate(next, write.spend);
}

void EnforcementEngine::mutate(const std::vector<double>& global,
                               std::span<const alloc::BorrowedDraw> spend) {
  // Caller holds mutate_mu_. `global` already passed the capacity rule, so
  // no shard's allocator can refuse its slice after another shard's epoch
  // counter has advanced.
  // Spend the plan's border credits first: this is the double-spend guard --
  // a stale federated plan whose loans were already consumed (or revoked by
  // a later settlement) throws here instead of drawing lender capacity the
  // ledger no longer backs.
  if (fed_ && !spend.empty()) fed_->consume(spend, opts_.alloc.solve.tols.feasibility);
  // Federated engines run a settlement round first: the ledger re-plans
  // every loan toward its policy target at the new capacities, and each
  // shard gets its settled local slice (capacity including the bank slot, a
  // rebuilt system when earmarks moved, the new credit table) instead of a
  // bare member slice.
  std::vector<Federation::ShardUpdate> settled;
  if (fed_) settled = fed_->settle(global);
  // Only in connectivity mode does a shard's allocator hold exactly its
  // members' capacities, so only there can an unchanged slice be skipped.
  const bool skippable = !fed_;
  const std::shared_ptr<const CapacitySnapshot> published = cell_.load();
  std::vector<double> available(n_, 0.0);
  std::vector<GapSample> gaps;
  std::vector<double> slice;
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    if (skippable && std::all_of(shard.members.begin(), shard.members.end(),
                                 [&](std::size_t g) { return global[g] == sys_.capacity[g]; })) {
      for (const std::size_t g : shard.members) available[g] = published->available[g];
      ++shard.muts_applied;
      continue;
    }
    std::shared_ptr<agree::AgreementSystem> rebuild;
    if (fed_) {
      Federation::ShardUpdate& u = settled[shard.id];
      slice = std::move(u.capacity);
      rebuild = std::move(u.rebuild);
    } else {
      slice.resize(shard.members.size());
      for (std::size_t l = 0; l < shard.members.size(); ++l) slice[l] = global[shard.members[l]];
    }
    // Every mutation arrives here reduced to "replace this shard's capacity
    // slice". A settlement that moved the bank's earmarks also rebuilds the
    // local system (agreement matrices are immutable on a live allocator).
    std::lock_guard<std::mutex> run(shard.run_mu);
    if (rebuild) {
      lp::accumulate(shard.carried, *shard.alloc->solver_stats());
      shard.alloc = std::make_unique<alloc::Allocator>(*rebuild, opts_.alloc);
    } else {
      shard.alloc->set_capacities(std::span<const double>(slice));
    }
    if (fed_) shard.credits = std::move(settled[shard.id].credits);
    ++shard.muts_applied;
    for (std::size_t l = 0; l < shard.members.size(); ++l)
      available[shard.members[l]] = shard.alloc->available_to(l);
    gaps.insert(gaps.end(), shard.gap_samples.begin(), shard.gap_samples.end());
    shard.gap_samples.clear();
    shard.gap_next = 0;
  }
  if (exact_) {
    // Measure the optimality gap for the epoch's sampled decisions while
    // the reference allocator still holds the PRE-mutation capacities those
    // decisions were made against.
    for (const GapSample& g : gaps) {
      const alloc::AllocationPlan ref = exact_->allocate(g.participant, g.amount);
      if (!ref.satisfied()) continue;
      const double gap_abs = std::max(0.0, g.theta_global - ref.theta);
      const double gap_rel = gap_abs / std::max(ref.theta, 1.0);
      {
        std::lock_guard<std::mutex> glock(gap_mu_);
        gap_probes_.inc();
        fed_stats_.last_gap_abs = gap_abs;
        fed_stats_.last_gap_rel = gap_rel;
        fed_stats_.max_gap_rel = std::max(fed_stats_.max_gap_rel, gap_rel);
      }
      obs_fed_gap_rel_->set(gap_rel);
    }
    exact_->set_capacities(std::span<const double>(global));
  }
  if (fed_) {
    obs_fed_settlements_->inc();
    obs_fed_outstanding_->set(fed_->ledger().totals().outstanding);
  }
  sys_.capacity = global;
  publish(global, std::move(available));
}

void EnforcementEngine::settle() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  mutate(sys_.capacity);
}

void EnforcementEngine::publish(std::vector<double> capacity, std::vector<double> available) {
  epochs_.inc();
  cell_.store(std::make_shared<const CapacitySnapshot>(
      CapacitySnapshot{epochs_.value(), std::move(capacity), std::move(available)}));
}

std::optional<lp::PipelineStats> EnforcementEngine::solver_stats() const {
  lp::PipelineStats agg;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> run(shard->run_mu);
    lp::accumulate(agg, shard->carried);
    lp::accumulate(agg, *shard->alloc->solver_stats());
  }
  return agg;
}

std::size_t EnforcementEngine::shard_of(std::size_t participant) const {
  AGORA_REQUIRE(participant < n_, "unknown principal");
  return part_.shard_of[participant];
}

EngineStats EnforcementEngine::stats() const {
  EngineStats out;
  out.shards = shards_.size();
  out.federated = fed_ != nullptr;
  out.components = part_.components;
  out.epoch = cell_.load()->epoch;
  if (fed_) {
    {
      std::lock_guard<std::mutex> glock(gap_mu_);
      out.federation = fed_stats_;
      out.federation.gap_probes = gap_probes_.value();
    }
    // Ledger reads synchronize with settlements/consumption via mutate_mu_.
    std::lock_guard<std::mutex> mlock(mutate_mu_);
    out.federation.active = true;
    out.federation.credits = fed_->ledger().size();
    out.federation.settlements = fed_->settlements();
    const CreditLedger::Totals t = fed_->ledger().totals();
    out.federation.granted = t.granted;
    out.federation.consumed = t.consumed;
    out.federation.revoked = t.revoked;
    out.federation.outstanding = t.outstanding;
  }
  out.shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.participants = shard->members.size();
    s.consults = shard->consults.value();
    out.shard.push_back(s);
  }
  if (pcache_) out.plan_cache = pcache_->stats();
  return out;
}

}  // namespace agora::engine
