#include "rms/replica/state_machine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "alloc/ledger.h"

namespace agora::rms {

void GrmStateMachine::rebuild_allocators(std::vector<agree::AgreementSystem> systems) {
  allocators_.clear();
  allocators_.reserve(systems.size());
  for (auto& s : systems)
    allocators_.push_back(std::make_unique<alloc::Allocator>(std::move(s), opts_));
}

GrmStateMachine::GrmStateMachine(std::vector<agree::AgreementSystem> systems,
                                 alloc::AllocatorOptions opts, StateMachineOptions sm_opts)
    : opts_(opts), sm_opts_(sm_opts) {
  // Every decision solves cold, so it depends only on replicated state. A
  // warm-started plan's last bits depend on the allocator's past consults,
  // which a replica restored from a snapshot does not have.
  opts_.reuse_context = false;
  AGORA_REQUIRE(!systems.empty(), "GRM needs at least one resource system");
  AGORA_REQUIRE(sm_opts_.staleness_ttl > 0.0, "staleness TTL must be positive");
  const std::size_t n = systems[0].size();
  for (const auto& s : systems)
    AGORA_REQUIRE(s.size() == n, "all resource systems must cover the same sites");
  decisions_ = obs::Tally(sm_opts_.sink.counter("rms.grm.decisions"));
  grants_ = obs::Tally(sm_opts_.sink.counter("rms.grm.grants"));
  stale_masked_ = obs::Tally(sm_opts_.sink.counter("rms.grm.stale_masked"));
  duplicate_requests_ = obs::Tally(sm_opts_.sink.counter("rms.grm.duplicate_requests"));
  stale_reports_ = obs::Tally(sm_opts_.sink.counter("rms.grm.stale_reports"));
  resyncs_ = obs::Tally(sm_opts_.sink.counter("rms.grm.resyncs"));
  decided_evictions_ = obs::Tally(sm_opts_.sink.counter("rms.grm.decided_evictions"));
  known_.reserve(systems.size());
  for (const auto& s : systems) known_.emplace_back(s.capacity);  // declared capacities
  rebuild_allocators(std::move(systems));
  registered_.assign(n, false);
  reported_.assign(n, false);
  report_time_.assign(n, 0.0);
  report_seq_.assign(n, 0);
}

void GrmStateMachine::register_site(std::size_t site) {
  AGORA_REQUIRE(site < registered_.size(), "unknown site");
  registered_[site] = true;
}

void GrmStateMachine::set_scope(const std::vector<std::size_t>& sites) {
  scope_.assign(registered_.size(), false);
  for (std::size_t s : sites) {
    AGORA_REQUIRE(s < scope_.size(), "scope site out of range");
    scope_[s] = true;
  }
}

void GrmStateMachine::apply_update(std::size_t resource, std::size_t from, std::size_t to,
                                   double share) {
  AGORA_REQUIRE(resource < allocators_.size(), "unknown resource");
  // Rebuild the allocator with the updated matrix (agreement changes are
  // rare control-plane events; the closure recomputation is acceptable).
  agree::AgreementSystem sys = allocators_[resource]->system();
  AGORA_REQUIRE(from < sys.size() && to < sys.size() && from != to, "bad agreement endpoints");
  AGORA_REQUIRE(share >= 0.0, "share must be non-negative");
  sys.relative(from, to) = share;
  allocators_[resource] = std::make_unique<alloc::Allocator>(std::move(sys), opts_);
}

bool GrmStateMachine::apply_report(const AvailabilityReport& rep, double now) {
  AGORA_REQUIRE(rep.available.size() == allocators_.size(),
                "availability report resource count mismatch");
  AGORA_REQUIRE(rep.lrm < registered_.size(), "availability report from unknown site");
  // Sequenced reports deduplicate and reject reordered stale data; an
  // unsequenced report (seq 0, e.g. hand-posted in tests) always lands.
  if (rep.report_seq != 0 && rep.report_seq <= report_seq_[rep.lrm]) {
    stale_reports_.inc();
    return false;
  }
  report_seq_[rep.lrm] = rep.report_seq;
  reported_[rep.lrm] = true;
  report_time_[rep.lrm] = now;
  for (std::size_t r = 0; r < allocators_.size(); ++r) known_[r][rep.lrm] = rep.available[r];
  return true;
}

void GrmStateMachine::apply_resync(const LrmResync& rs, double now) {
  AGORA_REQUIRE(rs.available.size() == allocators_.size(), "resync resource count mismatch");
  AGORA_REQUIRE(rs.lrm < registered_.size(), "resync from unknown site");
  resyncs_.inc();
  sm_opts_.sink.event(now, obs::EventKind::GrmResync, actor_,
                      static_cast<std::uint32_t>(rs.lrm));
  reported_[rs.lrm] = true;
  report_time_[rs.lrm] = now;
  for (std::size_t r = 0; r < allocators_.size(); ++r) known_[r][rs.lrm] = rs.available[r];
}

double GrmStateMachine::known_available(std::size_t site, std::size_t resource) const {
  AGORA_REQUIRE(resource < known_.size() && site < known_[resource].size(),
                "unknown site/resource");
  if (!registered_[site] || !reported_[site]) {
    ++unknown_queries_;
    return 0.0;
  }
  return known_[resource][site];
}

const AllocationReply* GrmStateMachine::cached(std::uint64_t request_id) const {
  const auto it = decided_.find(request_id);
  return it == decided_.end() ? nullptr : &it->second;
}

void GrmStateMachine::note_duplicate() {
  duplicate_requests_.inc();
}

void GrmStateMachine::record(std::uint64_t request_id, const AllocationReply& reply) {
  const auto [it, fresh] = decided_.try_emplace(request_id, reply);
  if (!fresh) {
    it->second = reply;
    return;
  }
  decided_order_.push_back(request_id);
  if (sm_opts_.decided_cache_capacity == 0) return;
  while (decided_.size() > sm_opts_.decided_cache_capacity) {
    decided_.erase(decided_order_.front());
    decided_order_.pop_front();
    decided_evictions_.inc();
  }
}

std::optional<std::string> GrmStateMachine::invalid_reason(const AllocationRequest& req) const {
  if (req.amounts.size() != allocators_.size())
    return "invalid request: must name an amount per resource";
  if (req.principal >= registered_.size()) return "invalid request: unknown principal";
  return std::nullopt;
}

GrmStateMachine::Decision GrmStateMachine::decide(const AllocationRequest& req, double now,
                                                  bool record_denial) {
  Decision out;
  if (const AllocationReply* done = cached(req.request_id)) {
    note_duplicate();
    out.kind = Decision::Kind::Duplicate;
    out.reply = *done;
    return out;
  }

  decisions_.inc();
  AGORA_REQUIRE(req.amounts.size() == allocators_.size(),
                "request must name an amount per resource");
  AGORA_REQUIRE(req.principal < registered_.size(), "unknown principal");

  // Refresh allocators with the latest availability, masking out-of-scope
  // sites (a child GRM cannot spend capacity it does not manage) and --
  // graceful degradation -- sites whose availability we cannot trust:
  // never registered, or (under a finite staleness TTL) never reported or
  // last reported too long ago. Such sites contribute zero capacity, which
  // shrinks the LP's capacity bounds instead of allocating phantom
  // resources or tripping invariants downstream.
  const bool ttl_active = std::isfinite(sm_opts_.staleness_ttl);
  const std::size_t n = registered_.size();
  std::vector<bool> masked(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    if (!registered_[s]) masked[s] = true;
    else if (ttl_active && (!reported_[s] || now - report_time_[s] > sm_opts_.staleness_ttl))
      masked[s] = true;
    if (masked[s]) {
      stale_masked_.inc();
    }
  }
  std::vector<std::vector<double>> caps(allocators_.size());
  for (std::size_t r = 0; r < allocators_.size(); ++r) {
    caps[r] = known_[r];
    for (std::size_t s = 0; s < caps[r].size(); ++s)
      if (masked[s] || (!scope_.empty() && !scope_[s])) caps[r][s] = 0.0;
    allocators_[r]->set_capacities(std::span<const double>(caps[r]));
  }

  // Solve the per-resource LPs.
  std::vector<alloc::AllocationPlan> plans(allocators_.size());
  bool ok = true;
  for (std::size_t r = 0; r < allocators_.size(); ++r) {
    plans[r] = allocators_[r]->allocate(req.principal, req.amounts[r]);
    ok = ok && plans[r].satisfied();
  }

  if (!ok) {
    if (!record_denial) {
      out.kind = Decision::Kind::Unsatisfied;
      return out;
    }
    out.kind = Decision::Kind::Denied;
    out.reply.request_id = req.request_id;
    out.reply.granted = false;
    out.reply.reason = "insufficient capacity under agreements";
    record(req.request_id, out.reply);
    return out;
  }

  // Commit: build reserve commands for every contributing LRM (a site whose
  // total draw is round-off is left alone), then take what they reserve off
  // our book of known availability through the capacity rule -- checked for
  // every resource before any changes, and clamped at 0 so round-off in a
  // full draw leaves no -eps for the next decide() to reject. The caller
  // emits the commands (and the reply) on its bus.
  std::vector<std::vector<double>> reserved(allocators_.size(), std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < n; ++s) {
    ReserveCommand cmd;
    double total = 0.0;
    for (const alloc::AllocationPlan& plan : plans) total += cmd.amounts.emplace_back(plan.draw[s]);
    if (total <= 1e-12) continue;
    AGORA_REQUIRE(registered_[s], "allocation draws on an unregistered LRM");
    for (std::size_t r = 0; r < allocators_.size(); ++r) reserved[r][s] = cmd.amounts[r];
    cmd.request_id = req.request_id;
    cmd.duration = req.duration;
    out.reserves.emplace_back(s, std::move(cmd));
  }
  std::vector<std::vector<double>> known(allocators_.size());
  for (std::size_t r = 0; r < allocators_.size(); ++r)
    alloc::next_capacities(known_[r], {alloc::CapacityWrite::Kind::Draw, reserved[r], {}},
                           known[r]);
  known_ = std::move(known);
  grants_.inc();

  out.kind = Decision::Kind::Granted;
  out.reply.request_id = req.request_id;
  out.reply.granted = true;
  out.reply.draws.resize(allocators_.size());
  for (std::size_t r = 0; r < allocators_.size(); ++r) out.reply.draws[r] = plans[r].draw;
  record(req.request_id, out.reply);
  return out;
}

GrmSnapshot GrmStateMachine::snapshot() const {
  GrmSnapshot snap;
  snap.systems.reserve(allocators_.size());
  for (const auto& a : allocators_) snap.systems.push_back(a->system());
  snap.known = known_;
  snap.registered = registered_;
  snap.reported = reported_;
  snap.report_time = report_time_;
  snap.report_seq = report_seq_;
  snap.scope = scope_;
  snap.decided.reserve(decided_order_.size());
  for (std::uint64_t id : decided_order_) snap.decided.emplace_back(id, decided_.at(id));
  snap.decisions = decisions_.value();
  snap.grants = grants_.value();
  snap.stale_masked = stale_masked_.value();
  snap.stale_reports = stale_reports_.value();
  snap.resyncs = resyncs_.value();
  snap.decided_evictions = decided_evictions_.value();
  return snap;
}

void GrmStateMachine::restore(const GrmSnapshot& snap) {
  AGORA_REQUIRE(snap.systems.size() == allocators_.size(),
                "snapshot resource count mismatch");
  AGORA_REQUIRE(!snap.systems.empty() && snap.systems[0].size() == registered_.size(),
                "snapshot site count mismatch");
  rebuild_allocators(snap.systems);
  known_ = snap.known;
  registered_ = snap.registered;
  reported_ = snap.reported;
  report_time_ = snap.report_time;
  report_seq_ = snap.report_seq;
  scope_ = snap.scope;
  decided_.clear();
  decided_order_.clear();
  for (const auto& [id, reply] : snap.decided) {
    decided_.emplace(id, reply);
    decided_order_.push_back(id);
  }
  decisions_.restore(snap.decisions);
  grants_.restore(snap.grants);
  stale_masked_.restore(snap.stale_masked);
  stale_reports_.restore(snap.stale_reports);
  resyncs_.restore(snap.resyncs);
  decided_evictions_.restore(snap.decided_evictions);
}

std::uint64_t GrmStateMachine::digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  const auto mixd = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  mix(allocators_.size());
  mix(registered_.size());
  for (const auto& a : allocators_) {
    const agree::AgreementSystem& sys = a->system();
    for (std::size_t i = 0; i < sys.size(); ++i) {
      for (std::size_t j = 0; j < sys.size(); ++j) {
        mixd(sys.relative(i, j));
        mixd(sys.absolute(i, j));
      }
      mixd(sys.retained[i]);
    }
  }
  for (const auto& row : known_)
    for (double v : row) mixd(v);
  for (std::size_t s = 0; s < registered_.size(); ++s) {
    mix(registered_[s] ? 1 : 0);
    mix(reported_[s] ? 1 : 0);
    mixd(report_time_[s]);
    mix(report_seq_[s]);
  }
  mix(scope_.size());
  for (bool b : scope_) mix(b ? 1 : 0);
  mix(decided_order_.size());
  for (std::uint64_t id : decided_order_) {
    mix(id);
    const AllocationReply& reply = decided_.at(id);
    mix(reply.granted ? 1 : 0);
    mix(reply.draws.size());
    for (const auto& row : reply.draws)
      for (double v : row) mixd(v);
    mix(reply.reason.size());
    for (char c : reply.reason) mix(static_cast<unsigned char>(c));
  }
  mix(decisions_.value());
  mix(grants_.value());
  mix(stale_masked_.value());
  mix(stale_reports_.value());
  mix(resyncs_.value());
  mix(decided_evictions_.value());
  return h;
}

}  // namespace agora::rms
