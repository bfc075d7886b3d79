// raft.h -- one replica of the replicated GRM: a Raft-lite quorum log over
// the simulated MessageBus driving a deterministic GrmStateMachine.
//
// The protocol is Raft with the standard simplifications a simulated,
// in-memory deployment affords (DESIGN.md §12):
//   * terms are monotonic; one vote per term; candidates need a majority,
//   * election timeouts are randomized-but-seeded (Pcg32 per replica), so
//     split votes are rare and every run replays bit-identically,
//   * log replication with commit-on-majority; a leader only counts
//     replicas for entries of its own term (the classic safety rule),
//   * conflicting follower suffixes are truncated, never rewritten below
//     the commit index,
//   * after `snapshot_threshold` applied entries the log is compacted into
//     a GrmSnapshot; a replica whose next entry was compacted away catches
//     up via InstallSnapshot (restarted replicas keep their in-memory term,
//     vote and log across a crash window, modeling persistent state).
//
// Effects (AllocationReply to the client, ReserveCommands to LRMs) are
// emitted only when a committed entry is APPLIED and only by the node that
// is leader at apply time: a deposed or minority-partitioned leader cannot
// commit new entries, so it can never emit a grant a majority did not
// agree to. Client traffic reaching a non-leader is answered with a
// NotLeader redirect; LRM traffic (reports, resyncs, agreement updates) is
// forwarded to the known leader or dropped (the next report/resync
// refreshes the view -- availability is self-healing state).
#pragma once

#include <optional>
#include <unordered_set>
#include <vector>

#include "rms/grm.h"
#include "rms/replica/state_machine.h"
#include "rms/reserve_emitter.h"
#include "util/rng.h"

namespace agora::rms::replica {

struct RaftStats {
  std::uint64_t elections_started = 0;
  std::uint64_t elections_won = 0;
  std::uint64_t votes_granted = 0;
  std::uint64_t appends_sent = 0;       ///< AppendEntries messages (incl. heartbeats)
  std::uint64_t entries_appended = 0;   ///< entries appended to the local log
  std::uint64_t suffix_truncations = 0; ///< conflicting suffixes dropped
  std::uint64_t compactions = 0;        ///< log prefixes folded into snapshots
  std::uint64_t snapshots_installed = 0;
  std::uint64_t redirects = 0;          ///< NotLeader replies sent to clients
  std::uint64_t forwarded_ingress = 0;  ///< LRM traffic forwarded to the leader
  std::uint64_t dropped_ingress = 0;    ///< LRM traffic dropped (no known leader)
  std::uint64_t restarts = 0;           ///< crash-window recoveries observed
};

class RaftNode {
 public:
  enum class Role { Follower, Candidate, Leader };

  /// Each node owns a full copy of the agreement systems (its replica of
  /// the state machine). Construct all N nodes, then connect() each with
  /// the index-aligned endpoint list, then start() them.
  RaftNode(MessageBus& bus, std::size_t id, std::vector<agree::AgreementSystem> systems,
           alloc::AllocatorOptions opts, double decision_latency, GrmOptions grm_opts);

  void connect(std::vector<EndpointId> group);
  /// Arm the first election timer. Until some node's timer fires and wins
  /// an election the group answers every client with NotLeader.
  void start();
  /// Cancel timer re-arming so a test can drain the bus to quiescence
  /// (heartbeats otherwise keep the bus busy forever). In-flight messages
  /// still deliver and replicate.
  void stop();

  EndpointId endpoint() const { return endpoint_; }
  std::size_t id() const { return id_; }
  Role role() const { return role_; }
  std::uint64_t term() const { return term_; }
  std::uint64_t commit_index() const { return commit_; }
  std::uint64_t applied_index() const { return applied_; }
  std::uint64_t last_index() const { return snap_index_ + log_.size(); }
  std::uint64_t snapshot_index() const { return snap_index_; }
  std::optional<std::size_t> leader_hint() const { return leader_; }

  void register_lrm(std::size_t site, EndpointId lrm);

  const GrmStateMachine& machine() const { return sm_; }
  std::uint64_t digest() const { return sm_.digest(); }
  /// elections_started and redirects are the counts rms.replica.elections
  /// and rms.replica.redirects are fed.
  RaftStats stats() const {
    RaftStats s = stats_;
    s.elections_started = elections_started_.value();
    s.redirects = redirects_.value();
    return s;
  }

 private:
  void handle(const Envelope& env);
  void on_timer(std::uint64_t token);
  void on_election_timeout();
  void on_heartbeat_timeout();
  void on_request_vote(const RequestVote& rv);
  void on_vote_reply(const VoteReply& vr);
  void on_append(const AppendEntries& ae);
  void on_append_reply(const AppendReply& ar);
  void on_install_snapshot(const InstallSnapshot& is);
  void on_snapshot_reply(const SnapshotReply& sr);
  void on_client_request(const AllocationRequest& req, EndpointId from);
  void on_ingress(LogCommand cmd, EndpointId from);
  void on_restart();

  void start_election();
  void become_leader();
  void step_down(std::uint64_t new_term);
  void append_command(LogCommand cmd, EndpointId origin);
  void broadcast_append();
  void send_append(std::size_t peer);
  void advance_commit();
  void apply_committed();
  void apply_entry(const LogEntry& e);
  void maybe_compact();
  void truncate_suffix(std::uint64_t from_index);

  /// Term of log index `i` (snap_term_ for the snapshot boundary).
  std::uint64_t entry_term(std::uint64_t i) const;
  std::uint64_t last_term() const { return entry_term(last_index()); }
  const LogEntry& entry(std::uint64_t i) const;
  std::size_t quorum() const { return group_.size() / 2 + 1; }

  double draw_timeout();
  /// Re-arm the election deadline; schedules a check timer if none is live.
  void ensure_election_timer();
  void schedule_election_check(double delay);
  void arm_heartbeat();
  std::uint64_t next_raft_token() {
    const std::uint64_t t = next_token_;
    next_token_ += 2;  // even tokens; the reserve emitter owns the odd ones
    return t;
  }

  MessageBus& bus_;
  std::size_t id_;
  EndpointId endpoint_ = 0;
  double decision_latency_;
  GrmOptions grm_opts_;
  ReplicationOptions rep_;
  GrmStateMachine sm_;
  ReserveEmitter emitter_;
  std::vector<EndpointId> group_;  ///< replica index -> endpoint
  std::vector<EndpointId> lrm_endpoints_;
  Pcg32 rng_;
  bool stopped_ = false;

  // --- persistent Raft state (survives simulated crashes: the in-memory
  // object models the durable store) ---
  std::uint64_t term_ = 0;
  std::optional<std::size_t> voted_for_;
  std::vector<LogEntry> log_;       ///< entries (snap_index_, last_index_]
  std::uint64_t snap_index_ = 0;    ///< last index folded into the snapshot
  std::uint64_t snap_term_ = 0;
  std::shared_ptr<const GrmSnapshot> snap_blob_;

  // --- volatile state ---
  Role role_ = Role::Follower;
  std::optional<std::size_t> leader_;  ///< believed leader of term_
  std::uint64_t commit_ = 0;
  std::uint64_t applied_ = 0;
  std::vector<bool> votes_;
  std::vector<std::uint64_t> next_;   ///< leader: next index to send per peer
  std::vector<std::uint64_t> match_;  ///< leader: highest replicated per peer
  /// AllocationRequest ids appended but not yet applied (leader-side
  /// duplicate suppression between append and commit).
  std::unordered_set<std::uint64_t> in_flight_;

  // --- timers (token-versioned: only the stored token is live; stale
  // timer chains die on delivery, so crash/restart never double-arms) ---
  double election_deadline_ = 0.0;
  bool election_armed_ = false;  ///< a live election-check timer exists
  std::uint64_t election_token_ = 0;
  std::uint64_t heartbeat_token_ = 0;
  std::uint64_t next_token_ = 2;

  RaftStats stats_;  ///< every count but the two Tallies below
  obs::Tally elections_started_;
  obs::Tally redirects_;
  obs::Counter* obs_commits_ = nullptr;
  obs::Gauge* obs_term_ = nullptr;
  obs::Gauge* obs_commit_index_ = nullptr;
};

}  // namespace agora::rms::replica
