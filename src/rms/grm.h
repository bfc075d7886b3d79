// grm.h -- Global Resource Manager: the centralized scheduler holding the
// sharing agreements and the latest availability reports, deciding
// allocations with the Section-3 LP model.
//
// The GRM is an endpoint on the message bus. It supports:
//   * agreement management (AgreementUpdate messages and direct API),
//   * availability tracking (AvailabilityReport from LRMs),
//   * allocation (AllocationRequest -> LP decision -> ReserveCommands to
//     the contributing LRMs -> AllocationReply to the requesting client).
//
// GRMs can form a hierarchy ("the architecture also permits splitting of
// the GRMs into multiple levels, each responsible for a subset of the
// LRMs"): a child GRM that cannot satisfy a request within its subset
// forwards it to its parent, which sees the whole system.
//
// Hardening against an unreliable bus (see fault.h / DESIGN.md "Failure
// model"): requests are idempotent (decided replies are cached and
// re-sent on duplicates), availability reports are deduplicated by
// sequence number, reports older than a staleness TTL contribute zero
// capacity (graceful degradation instead of allocating phantom
// resources), and reserve commands can be retried with exponential
// backoff until acknowledged. All of it is off by default: a
// default-constructed GrmOptions reproduces the seed message trace.
//
// The decision core itself lives in replica/state_machine.h; this class is
// the single-instance bus wrapper around it. For a GRM that survives its
// own death, run N replicas of the same state machine under the quorum log
// in replica/raft.h + replica/group.h (GrmOptions::replication).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.h"
#include "rms/bus.h"
#include "rms/messages.h"
#include "rms/replica/state_machine.h"
#include "rms/reserve_emitter.h"

namespace agora::rms {

/// Quorum-log replication settings (used by replica::ReplicatedGrm; a plain
/// Grm ignores them). All times are bus virtual seconds.
struct ReplicationOptions {
  /// Number of GRM replicas. 1 keeps a single (unreplicated) instance.
  std::size_t replicas = 1;
  /// Election timeout drawn uniformly from [min, max) per replica per term
  /// (randomized-but-seeded, so elections rarely split and runs replay).
  double election_timeout_min = 1.0;
  double election_timeout_max = 2.0;
  /// Leader heartbeat (empty AppendEntries) interval; must be well under
  /// the election timeout.
  double heartbeat_interval = 0.25;
  /// Replica <-> replica message latency.
  double latency = 0.01;
  /// Seed for the per-replica election-timeout streams.
  std::uint64_t seed = 1;
  /// Applied entries retained before the log is compacted into a snapshot
  /// (restarted/lagging replicas past the compaction point catch up via
  /// InstallSnapshot).
  std::size_t snapshot_threshold = 256;
};

struct GrmOptions {
  /// Availability reports older than this many bus-seconds are treated as
  /// unknown: the site contributes zero capacity to decisions (shrinking
  /// the LP's capacity bounds) until a fresh report or resync arrives.
  /// Infinity disables staleness masking (seed behavior). A finite TTL
  /// also masks sites that have never reported at all.
  double staleness_ttl = std::numeric_limits<double>::infinity();
  /// Delivery attempts per ReserveCommand. 1 = fire-and-forget with no
  /// Ack traffic (seed behavior); >1 sets want_ack and retries with
  /// exponential backoff until acknowledged or attempts are exhausted.
  int reserve_attempts = 1;
  double reserve_backoff = 0.25;     ///< initial retry spacing (doubles)
  double reserve_backoff_cap = 2.0;  ///< backoff ceiling
  /// Seeded jitter fraction on reserve retry backoff (0 = seed behavior):
  /// each wait becomes backoff * (1 + jitter * U[0,1)), decorrelating the
  /// retry storms that otherwise follow a partition heal.
  double reserve_jitter = 0.0;
  std::uint64_t reserve_jitter_seed = 1;
  /// Bound on the idempotent decided-reply cache (0 = unbounded). Evicted
  /// in decision order (FIFO -- deterministic across replicas) and counted
  /// as rms.grm.decided_evictions.
  std::size_t decided_cache_capacity = 65536;
  /// Telemetry (decision counters, GrmReserveRetry/GrmResync events
  /// stamped with bus virtual time). Also forwarded into the allocators'
  /// AllocatorOptions unless those carry their own non-global sink.
  obs::Sink sink = obs::Sink::global();
  /// Replication (replica::ReplicatedGrm only; ignored by a plain Grm).
  ReplicationOptions replication;

  /// The decision state machine's share of these options, the same for a
  /// plain Grm and a replicated one.
  StateMachineOptions state_machine_options() const;
  /// The reserve emitter's share, sending with `send_latency` per command.
  /// A replicated node narrows the emitter's token space on its copy.
  ReserveEmitterOptions reserve_emitter_options(double send_latency) const;
};

class Grm {
 public:
  /// One AgreementSystem per resource; all must cover the same principals.
  /// `decision_latency` models GRM compute + network delay per decision.
  Grm(MessageBus& bus, std::vector<agree::AgreementSystem> systems,
      alloc::AllocatorOptions opts = {}, double decision_latency = 0.0,
      GrmOptions grm_opts = {});

  EndpointId endpoint() const { return endpoint_; }
  std::size_t num_resources() const { return sm_.num_resources(); }
  std::size_t num_sites() const { return lrm_endpoints_.size(); }

  /// Wire up an LRM to a principal index.
  void register_lrm(std::size_t site, EndpointId lrm);

  /// Restrict this GRM to a subset of sites and give it a parent to
  /// escalate to. Requests involving capacity outside the subset are
  /// forwarded to the parent.
  void set_scope(std::vector<std::size_t> sites, EndpointId parent);

  /// Agreement management service (also reachable via AgreementUpdate).
  void update_agreement(std::size_t resource, std::size_t from, std::size_t to, double share);

  /// Latest known availability of site `i` for resource r. Returns 0 (and
  /// counts the query) for a site that is unregistered or has never sent
  /// an AvailabilityReport, instead of exposing the seeded declared
  /// capacity as if it had been observed.
  double known_available(std::size_t site, std::size_t resource) const {
    return sm_.known_available(site, resource);
  }

  /// Statistics.
  std::uint64_t decisions() const { return sm_.decisions(); }
  std::uint64_t grants() const { return sm_.grants(); }
  std::uint64_t forwards() const { return forwards_.value(); }
  /// Degradation/robustness statistics.
  std::uint64_t unknown_queries() const { return sm_.unknown_queries(); }
  std::uint64_t stale_masked() const { return sm_.stale_masked(); }
  std::uint64_t duplicate_requests() const { return sm_.duplicate_requests(); }
  std::uint64_t stale_reports() const { return sm_.stale_reports(); }
  std::uint64_t reserve_retries() const { return emitter_.retries(); }
  std::uint64_t reserve_failures() const { return emitter_.failures(); }
  std::uint64_t resyncs() const { return sm_.resyncs(); }
  std::uint64_t decided_evictions() const { return sm_.decided_evictions(); }
  std::size_t decided_cached() const { return sm_.decided_size(); }

  /// The decision core (e.g. for digest comparisons in tests).
  const GrmStateMachine& machine() const { return sm_; }

 private:
  void handle(const Envelope& env);
  void decide(const AllocationRequest& req, EndpointId reply_to);

  MessageBus& bus_;
  EndpointId endpoint_;
  double decision_latency_;
  GrmOptions grm_opts_;
  GrmStateMachine sm_;
  ReserveEmitter emitter_;
  std::vector<EndpointId> lrm_endpoints_;
  std::optional<EndpointId> parent_;
  /// Requests forwarded to the parent: remember who to reply to.
  std::unordered_map<std::uint64_t, EndpointId> forwarded_;
  obs::Tally forwards_;
};

}  // namespace agora::rms
