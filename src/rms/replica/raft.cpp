#include "rms/replica/raft.h"

#include <algorithm>
#include <string>

namespace agora::rms::replica {

namespace {

ReserveEmitterOptions emitter_options(const GrmOptions& g, double send_latency) {
  ReserveEmitterOptions o;
  o.attempts = g.reserve_attempts;
  o.backoff = g.reserve_backoff;
  o.backoff_cap = g.reserve_backoff_cap;
  o.jitter = g.reserve_jitter;
  o.jitter_seed = g.reserve_jitter_seed;
  o.send_latency = send_latency;
  // Raft timers use the even tokens (next_raft_token); the emitter owns the
  // odd ones, so one endpoint can demultiplex both timer streams.
  o.first_token = 1;
  o.token_stride = 2;
  o.sink = g.sink;
  return o;
}

}  // namespace

RaftNode::RaftNode(MessageBus& bus, std::size_t id,
                   std::vector<agree::AgreementSystem> systems, alloc::AllocatorOptions opts,
                   double decision_latency, GrmOptions grm_opts)
    : bus_(bus),
      id_(id),
      decision_latency_(decision_latency),
      grm_opts_(grm_opts),
      rep_(grm_opts.replication),
      sm_(std::move(systems), opts, grm_opts.state_machine_options()),
      emitter_(bus, emitter_options(grm_opts, decision_latency)),
      // Distinct seeded stream per replica: elections are randomized enough
      // to rarely split, yet every run replays bit-identically.
      rng_(rep_.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)), 2 * id + 1) {
  AGORA_REQUIRE(rep_.election_timeout_min > 0.0 &&
                    rep_.election_timeout_max > rep_.election_timeout_min,
                "election timeout window must be positive and non-empty");
  AGORA_REQUIRE(rep_.heartbeat_interval > 0.0 &&
                    rep_.heartbeat_interval < rep_.election_timeout_min,
                "heartbeat interval must be positive and below the election timeout");
  AGORA_REQUIRE(rep_.latency >= 0.0, "replication latency must be non-negative");
  AGORA_REQUIRE(rep_.snapshot_threshold >= 1, "snapshot threshold must be positive");
  endpoint_ = bus_.add_endpoint([this](const Envelope& env) { handle(env); });
  bus_.set_restart_handler(endpoint_, [this] { on_restart(); });
  sm_.set_actor(static_cast<std::uint32_t>(endpoint_));
  lrm_endpoints_.assign(sm_.num_sites(), 0);
  emitter_.bind(endpoint_, &lrm_endpoints_);
  elections_started_ = obs::Tally(grm_opts_.sink.counter("rms.replica.elections"));
  obs_commits_ = &grm_opts_.sink.counter("rms.replica.commits");
  redirects_ = obs::Tally(grm_opts_.sink.counter("rms.replica.redirects"));
  obs_term_ = &grm_opts_.sink.gauge("rms.replica." + std::to_string(id_) + ".term");
  obs_commit_index_ =
      &grm_opts_.sink.gauge("rms.replica." + std::to_string(id_) + ".commit_index");
}

void RaftNode::connect(std::vector<EndpointId> group) {
  AGORA_REQUIRE(id_ < group.size() && group[id_] == endpoint_,
                "group must be index-aligned with replica ids");
  group_ = std::move(group);
  votes_.assign(group_.size(), false);
  next_.assign(group_.size(), 1);
  match_.assign(group_.size(), 0);
}

void RaftNode::register_lrm(std::size_t site, EndpointId lrm) {
  sm_.register_site(site);  // validates the index
  lrm_endpoints_[site] = lrm;
}

void RaftNode::start() {
  AGORA_REQUIRE(!group_.empty(), "connect() the replica group before start()");
  stopped_ = false;
  election_deadline_ = bus_.now() + draw_timeout();
  ensure_election_timer();
}

void RaftNode::stop() { stopped_ = true; }

// ------------------------------------------------------------- dispatch ---

void RaftNode::handle(const Envelope& env) {
  if (const auto* t = std::get_if<Timer>(&env.payload)) {
    if (!emitter_.on_timer(t->token)) on_timer(t->token);
    return;
  }
  if (const auto* rv = std::get_if<RequestVote>(&env.payload)) return on_request_vote(*rv);
  if (const auto* vr = std::get_if<VoteReply>(&env.payload)) return on_vote_reply(*vr);
  if (const auto* ae = std::get_if<AppendEntries>(&env.payload)) return on_append(*ae);
  if (const auto* ar = std::get_if<AppendReply>(&env.payload)) return on_append_reply(*ar);
  if (const auto* is = std::get_if<InstallSnapshot>(&env.payload))
    return on_install_snapshot(*is);
  if (const auto* sr = std::get_if<SnapshotReply>(&env.payload)) return on_snapshot_reply(*sr);
  if (const auto* req = std::get_if<AllocationRequest>(&env.payload))
    return on_client_request(*req, env.from);
  if (const auto* rep = std::get_if<AvailabilityReport>(&env.payload))
    return on_ingress(LogCommand{*rep}, env.from);
  if (const auto* rs = std::get_if<LrmResync>(&env.payload))
    return on_ingress(LogCommand{*rs}, env.from);
  if (const auto* upd = std::get_if<AgreementUpdate>(&env.payload))
    return on_ingress(LogCommand{*upd}, env.from);
  if (const auto* ack = std::get_if<Ack>(&env.payload)) {
    emitter_.on_ack(ack->request_id, ack->site);
    return;
  }
  // ReleaseNotice etc.: informational; availability arrives via reports.
}

// --------------------------------------------------------------- timers ---

double RaftNode::draw_timeout() {
  return rng_.uniform(rep_.election_timeout_min, rep_.election_timeout_max);
}

void RaftNode::ensure_election_timer() {
  if (stopped_ || election_armed_) return;
  schedule_election_check(std::max(0.0, election_deadline_ - bus_.now()));
}

void RaftNode::schedule_election_check(double delay) {
  election_token_ = next_raft_token();
  election_armed_ = true;
  bus_.post(endpoint_, endpoint_, Timer{election_token_}, delay);
}

void RaftNode::arm_heartbeat() {
  if (stopped_) return;
  heartbeat_token_ = next_raft_token();
  bus_.post(endpoint_, endpoint_, Timer{heartbeat_token_}, rep_.heartbeat_interval);
}

void RaftNode::on_timer(std::uint64_t token) {
  if (token == heartbeat_token_) return on_heartbeat_timeout();
  if (token != election_token_) return;  // stale chain (restart or re-arm)
  election_armed_ = false;
  if (stopped_ || role_ == Role::Leader) return;
  if (bus_.now() + 1e-12 >= election_deadline_) return on_election_timeout();
  ensure_election_timer();  // deadline was pushed back by a heartbeat
}

void RaftNode::on_heartbeat_timeout() {
  if (stopped_ || role_ != Role::Leader) return;
  broadcast_append();
  arm_heartbeat();
}

// ------------------------------------------------------------ elections ---

void RaftNode::on_election_timeout() { start_election(); }

void RaftNode::start_election() {
  ++term_;
  role_ = Role::Candidate;
  voted_for_ = id_;
  leader_.reset();
  votes_.assign(group_.size(), false);
  votes_[id_] = true;
  elections_started_.inc();
  obs_term_->set(static_cast<double>(term_));
  election_deadline_ = bus_.now() + draw_timeout();
  ensure_election_timer();
  RequestVote rv;
  rv.term = term_;
  rv.candidate = id_;
  rv.last_log_index = last_index();
  rv.last_log_term = last_term();
  for (std::size_t p = 0; p < group_.size(); ++p)
    if (p != id_) bus_.post(endpoint_, group_[p], rv, rep_.latency);
  if (1 >= quorum()) become_leader();  // single-replica group
}

void RaftNode::on_request_vote(const RequestVote& rv) {
  if (rv.term > term_) step_down(rv.term);
  VoteReply reply;
  reply.term = term_;
  reply.voter = id_;
  // Election safety: one vote per term, and only for candidates whose log
  // is at least as up-to-date as ours (so a leader always holds every
  // committed entry).
  const bool up_to_date = rv.last_log_term > last_term() ||
                          (rv.last_log_term == last_term() && rv.last_log_index >= last_index());
  reply.granted = rv.term == term_ && role_ == Role::Follower && up_to_date &&
                  (!voted_for_.has_value() || *voted_for_ == rv.candidate);
  if (reply.granted) {
    voted_for_ = rv.candidate;
    ++stats_.votes_granted;
    election_deadline_ = bus_.now() + draw_timeout();
    ensure_election_timer();
  }
  bus_.post(endpoint_, group_[rv.candidate], reply, rep_.latency);
}

void RaftNode::on_vote_reply(const VoteReply& vr) {
  if (vr.term > term_) return step_down(vr.term);
  if (role_ != Role::Candidate || vr.term != term_ || !vr.granted) return;
  votes_.at(vr.voter) = true;
  const auto count = static_cast<std::size_t>(std::count(votes_.begin(), votes_.end(), true));
  if (count >= quorum()) become_leader();
}

void RaftNode::become_leader() {
  role_ = Role::Leader;
  leader_ = id_;
  ++stats_.elections_won;
  grm_opts_.sink.event(bus_.now(), obs::EventKind::LeaderElected,
                       static_cast<std::uint32_t>(id_), 0, static_cast<double>(term_));
  next_.assign(group_.size(), last_index() + 1);
  match_.assign(group_.size(), 0);
  match_[id_] = last_index();
  // The classic no-op of the new term: once it commits, every entry from
  // earlier terms beneath it is committed too (a leader only ever counts
  // replicas for entries of its own term).
  append_command(LogCommand{RaftNoop{}}, endpoint_);
  arm_heartbeat();
}

void RaftNode::step_down(std::uint64_t new_term) {
  if (new_term > term_) {
    term_ = new_term;
    voted_for_.reset();
    obs_term_->set(static_cast<double>(term_));
  }
  if (role_ == Role::Leader) {
    // A deposed leader must stop retrying effects it emitted while in
    // charge; the idempotent LRM protocol absorbs anything already sent.
    emitter_.abandon_all();
  }
  role_ = Role::Follower;
  leader_.reset();
  election_deadline_ = bus_.now() + draw_timeout();
  ensure_election_timer();
}

// ------------------------------------------------------------------ log ---

std::uint64_t RaftNode::entry_term(std::uint64_t i) const {
  if (i == snap_index_) return snap_term_;
  AGORA_REQUIRE(i > snap_index_ && i <= last_index(), "log index out of range");
  return log_[i - snap_index_ - 1].term;
}

const LogEntry& RaftNode::entry(std::uint64_t i) const {
  AGORA_REQUIRE(i > snap_index_ && i <= last_index(), "log index out of range");
  return log_[i - snap_index_ - 1];
}

void RaftNode::append_command(LogCommand cmd, EndpointId origin) {
  AGORA_REQUIRE(role_ == Role::Leader, "only a leader appends commands");
  LogEntry e;
  e.term = term_;
  e.index = last_index() + 1;
  e.time = bus_.now();
  e.origin = origin;
  e.command = std::move(cmd);
  log_.push_back(std::move(e));
  ++stats_.entries_appended;
  match_[id_] = last_index();
  broadcast_append();
  advance_commit();  // a single-replica group commits immediately
}

void RaftNode::broadcast_append() {
  for (std::size_t p = 0; p < group_.size(); ++p)
    if (p != id_) send_append(p);
}

void RaftNode::send_append(std::size_t peer) {
  if (next_[peer] <= snap_index_) {
    // The follower's next entry was compacted away: ship the snapshot.
    InstallSnapshot is;
    is.term = term_;
    is.leader = id_;
    is.last_index = snap_index_;
    is.last_term = snap_term_;
    is.state = snap_blob_;
    AGORA_INVARIANT(is.state != nullptr, "compacted log without a snapshot");
    bus_.post(endpoint_, group_[peer], std::move(is), rep_.latency);
    ++stats_.appends_sent;
    return;
  }
  AppendEntries ae;
  ae.term = term_;
  ae.leader = id_;
  ae.prev_index = next_[peer] - 1;
  ae.prev_term = entry_term(ae.prev_index);
  for (std::uint64_t i = next_[peer]; i <= last_index(); ++i) ae.entries.push_back(entry(i));
  ae.commit = commit_;
  bus_.post(endpoint_, group_[peer], std::move(ae), rep_.latency);
  ++stats_.appends_sent;
}

void RaftNode::on_append(const AppendEntries& ae) {
  AppendReply reply;
  reply.follower = id_;
  if (ae.term < term_) {
    reply.term = term_;
    reply.success = false;
    bus_.post(endpoint_, group_[ae.leader], reply, rep_.latency);
    return;
  }
  if (ae.term > term_ || role_ != Role::Follower) step_down(ae.term);
  leader_ = ae.leader;
  election_deadline_ = bus_.now() + draw_timeout();
  ensure_election_timer();
  reply.term = term_;

  // Consistency check on the entry preceding the batch.
  if (ae.prev_index > last_index() ||
      (ae.prev_index >= snap_index_ && entry_term(ae.prev_index) != ae.prev_term)) {
    reply.success = false;
    // Hint where to back up to: past our log end, or to our snapshot
    // boundary when the conflict sits below what we still hold.
    reply.hint_index = std::min(ae.prev_index, last_index() + 1);
    if (reply.hint_index <= snap_index_) reply.hint_index = snap_index_ + 1;
    bus_.post(endpoint_, group_[ae.leader], reply, rep_.latency);
    return;
  }

  std::uint64_t match = ae.prev_index;
  for (const LogEntry& e : ae.entries) {
    if (e.index <= snap_index_) {
      match = std::max(match, e.index);
      continue;  // already folded into our snapshot (committed, identical)
    }
    if (e.index <= last_index()) {
      if (entry_term(e.index) == e.term) {
        match = e.index;
        continue;  // already have it
      }
      truncate_suffix(e.index);  // conflicting suffix from a dead leader
    }
    AGORA_INVARIANT(e.index == last_index() + 1, "append entries must be contiguous");
    log_.push_back(e);
    ++stats_.entries_appended;
    match = e.index;
  }
  reply.success = true;
  reply.match_index = match;
  if (ae.commit > commit_) {
    commit_ = std::min(ae.commit, last_index());
    obs_commit_index_->set(static_cast<double>(commit_));
    apply_committed();
  }
  bus_.post(endpoint_, group_[ae.leader], reply, rep_.latency);
}

void RaftNode::on_append_reply(const AppendReply& ar) {
  if (ar.term > term_) return step_down(ar.term);
  if (role_ != Role::Leader || ar.term != term_) return;
  if (ar.success) {
    if (ar.match_index > match_[ar.follower]) {
      match_[ar.follower] = ar.match_index;
      next_[ar.follower] = ar.match_index + 1;
      const std::uint64_t before = commit_;
      advance_commit();
      // Push the new commit index out immediately (instead of waiting a
      // heartbeat) so a drained bus leaves every live replica fully applied.
      if (commit_ > before) broadcast_append();
    }
    if (next_[ar.follower] <= last_index()) send_append(ar.follower);
    return;
  }
  // Log mismatch: back up (guided by the follower's hint) and retry.
  const std::uint64_t hint = std::max<std::uint64_t>(ar.hint_index, 1);
  next_[ar.follower] = std::min(std::max<std::uint64_t>(next_[ar.follower], 2) - 1, hint);
  send_append(ar.follower);
}

void RaftNode::advance_commit() {
  for (std::uint64_t n = last_index(); n > commit_; --n) {
    if (entry_term(n) != term_) break;  // only entries of the current term count
    std::size_t replicated = 0;
    for (std::size_t p = 0; p < group_.size(); ++p)
      if (match_[p] >= n) ++replicated;
    if (replicated >= quorum()) {
      commit_ = n;
      obs_commit_index_->set(static_cast<double>(commit_));
      apply_committed();
      break;
    }
  }
}

void RaftNode::truncate_suffix(std::uint64_t from_index) {
  AGORA_INVARIANT(from_index > commit_, "cannot truncate committed entries");
  AGORA_INVARIANT(from_index > snap_index_, "cannot truncate the snapshot");
  const std::uint64_t dropped = last_index() - from_index + 1;
  log_.resize(from_index - snap_index_ - 1);
  ++stats_.suffix_truncations;
  grm_opts_.sink.event(bus_.now(), obs::EventKind::LogTruncate,
                       static_cast<std::uint32_t>(id_), 0, static_cast<double>(from_index),
                       static_cast<double>(dropped));
}

// ---------------------------------------------------------------- apply ---

void RaftNode::apply_committed() {
  while (applied_ < commit_) {
    apply_entry(entry(applied_ + 1));
    ++applied_;
    obs_commits_->inc();
  }
  maybe_compact();
}

void RaftNode::apply_entry(const LogEntry& e) {
  // Entries apply with the leader's append-time clock, so staleness masking
  // is bit-identical on every replica regardless of when it catches up.
  if (std::holds_alternative<RaftNoop>(e.command)) return;
  if (const auto* rep = std::get_if<AvailabilityReport>(&e.command)) {
    sm_.apply_report(*rep, e.time);
    return;
  }
  if (const auto* rs = std::get_if<LrmResync>(&e.command)) {
    sm_.apply_resync(*rs, e.time);
    return;
  }
  if (const auto* upd = std::get_if<AgreementUpdate>(&e.command)) {
    sm_.apply_update(upd->resource, upd->from, upd->to, upd->share);
    return;
  }
  const auto& req = std::get<AllocationRequest>(e.command);
  in_flight_.erase(req.request_id);
  GrmStateMachine::Decision d = sm_.decide(req, e.time, /*record_denial=*/true);
  // Effects leave only the node that is leader at apply time: a deposed or
  // partitioned-away leader cannot commit, so it can never emit a grant a
  // majority did not agree to. (If leadership changes between commit and
  // the client's retry, the new leader answers from the replicated decided
  // cache -- same reply, no second grant.)
  if (role_ != Role::Leader) return;
  if (d.kind == GrmStateMachine::Decision::Kind::Granted)
    for (auto& [site, cmd] : d.reserves) emitter_.send(req.request_id, site, std::move(cmd));
  bus_.post(endpoint_, e.origin, std::move(d.reply), decision_latency_);
}

void RaftNode::maybe_compact() {
  if (applied_ - snap_index_ < rep_.snapshot_threshold) return;
  snap_blob_ = std::make_shared<const GrmSnapshot>(sm_.snapshot());
  snap_term_ = entry_term(applied_);
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(applied_ - snap_index_));
  snap_index_ = applied_;
  ++stats_.compactions;
}

void RaftNode::on_install_snapshot(const InstallSnapshot& is) {
  if (is.term < term_) {
    bus_.post(endpoint_, group_[is.leader], SnapshotReply{term_, id_, applied_}, rep_.latency);
    return;
  }
  if (is.term > term_ || role_ != Role::Follower) step_down(is.term);
  leader_ = is.leader;
  election_deadline_ = bus_.now() + draw_timeout();
  ensure_election_timer();
  if (is.last_index > applied_) {
    AGORA_INVARIANT(is.state != nullptr, "snapshot message without state");
    sm_.restore(*is.state);
    // The snapshot subsumes our whole log (everything in it is committed).
    log_.clear();
    snap_index_ = is.last_index;
    snap_term_ = is.last_term;
    snap_blob_ = is.state;
    commit_ = std::max(commit_, is.last_index);
    applied_ = is.last_index;
    obs_commit_index_->set(static_cast<double>(commit_));
    ++stats_.snapshots_installed;
    grm_opts_.sink.event(bus_.now(), obs::EventKind::ReplicaSnapshot,
                         static_cast<std::uint32_t>(id_), static_cast<std::uint32_t>(is.leader),
                         static_cast<double>(is.last_index));
  }
  bus_.post(endpoint_, group_[is.leader], SnapshotReply{term_, id_, applied_}, rep_.latency);
}

void RaftNode::on_snapshot_reply(const SnapshotReply& sr) {
  if (sr.term > term_) return step_down(sr.term);
  if (role_ != Role::Leader || sr.term != term_) return;
  if (sr.match_index > match_[sr.follower]) {
    match_[sr.follower] = sr.match_index;
    next_[sr.follower] = sr.match_index + 1;
  } else {
    next_[sr.follower] = std::max(next_[sr.follower], sr.match_index + 1);
  }
  if (next_[sr.follower] <= last_index()) send_append(sr.follower);
}

// -------------------------------------------------------------- ingress ---

void RaftNode::on_client_request(const AllocationRequest& req, EndpointId from) {
  if (role_ != Role::Leader) {
    NotLeader nl;
    nl.request_id = req.request_id;
    nl.term = term_;
    nl.leader_known = leader_.has_value() && *leader_ != id_;
    nl.leader = nl.leader_known ? group_[*leader_] : 0;
    redirects_.inc();
    bus_.post(endpoint_, from, nl, decision_latency_);
    return;
  }
  // A malformed request must never enter the log: it would trip an
  // invariant at apply time on every replica. Deny it at the edge.
  if (const auto reason = sm_.invalid_reason(req)) {
    AllocationReply reply;
    reply.request_id = req.request_id;
    reply.granted = false;
    reply.reason = *reason;
    bus_.post(endpoint_, from, std::move(reply), decision_latency_);
    return;
  }
  if (const AllocationReply* done = sm_.cached(req.request_id)) {
    sm_.note_duplicate();
    bus_.post(endpoint_, from, *done, decision_latency_);
    return;
  }
  if (in_flight_.count(req.request_id) != 0) {
    // Already appended, not yet committed: the reply follows at apply time.
    sm_.note_duplicate();
    return;
  }
  in_flight_.insert(req.request_id);
  append_command(LogCommand{req}, from);
}

void RaftNode::on_ingress(LogCommand cmd, EndpointId from) {
  if (role_ == Role::Leader) {
    append_command(std::move(cmd), from);
    return;
  }
  // Availability is self-healing state (the next report refreshes it), so
  // non-leaders forward on a best-effort basis and drop when the leader is
  // unknown -- no queueing, no acknowledgment.
  if (leader_.has_value() && *leader_ != id_) {
    ++stats_.forwarded_ingress;
    std::visit([&](auto& c) {
      if constexpr (!std::is_same_v<std::decay_t<decltype(c)>, RaftNoop>)
        bus_.post(endpoint_, group_[*leader_], std::move(c), rep_.latency);
    }, cmd);
    return;
  }
  ++stats_.dropped_ingress;
}

// -------------------------------------------------------------- restart ---

void RaftNode::on_restart() {
  // Term, vote, log and snapshot survive (the in-memory object models the
  // durable store; the applied state machine is equivalent to a node that
  // snapshots every applied entry). Volatile leadership state does not.
  ++stats_.restarts;
  role_ = Role::Follower;
  leader_.reset();
  votes_.assign(group_.size(), false);
  in_flight_.clear();
  emitter_.abandon_all();
  // Every in-flight timer chain died with the crash (or is now stale):
  // re-arm from scratch with fresh tokens.
  election_armed_ = false;
  heartbeat_token_ = 0;
  if (stopped_) return;
  election_deadline_ = bus_.now() + draw_timeout();
  ensure_election_timer();
}

}  // namespace agora::rms::replica
