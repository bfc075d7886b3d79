// state_machine.h -- the GRM's deterministic decision core, factored out of
// the bus endpoint so it can be replicated (replica/raft.h): availability
// tracking with sequence/staleness handling, scope masking, the per-resource
// LP allocators, and the idempotent decided-reply cache.
//
// Everything here is a pure function of the applied command sequence and the
// explicit `now` arguments -- no bus, no clocks, no randomness -- which is
// what makes N replicas applying the same committed log converge to
// bit-identical state (checked with digest()). That includes a replica
// restored from a snapshot: the allocators run with reuse_context off, so
// every decision solves cold and carries no solver history (a warm start's
// last bits depend on the consults before it). The single-GRM `rms::Grm`
// wraps one instance directly; `replica::RaftNode` applies committed log
// entries to one.
//
// The decided-reply cache is bounded (StateMachineOptions::
// decided_cache_capacity) and evicts in insertion order -- deliberately FIFO
// rather than access-ordered LRU, because cache *reads* happen only on the
// replica that receives the duplicate, and an access-ordered structure would
// make replica state diverge.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "rms/messages.h"

namespace agora::rms {

/// A GRM state machine serialized for replica catch-up (InstallSnapshot)
/// and log compaction. Covers exactly the replicated state: agreement
/// systems (with their current relative shares), the availability view,
/// the decided-reply cache, and the apply-driven statistics. Edge-driven
/// observations (unknown_queries, duplicate_requests) are deliberately
/// excluded: they count what one node happened to be asked, not what the
/// replicated machine decided.
struct GrmSnapshot {
  std::vector<agree::AgreementSystem> systems;
  std::vector<std::vector<double>> known;  ///< [resource][site]
  std::vector<bool> registered;
  std::vector<bool> reported;
  std::vector<double> report_time;
  std::vector<std::uint64_t> report_seq;
  std::vector<bool> scope;
  /// Decided replies in insertion order (replays the FIFO eviction state).
  std::vector<std::pair<std::uint64_t, AllocationReply>> decided;
  std::uint64_t decisions = 0;
  std::uint64_t grants = 0;
  std::uint64_t stale_masked = 0;
  std::uint64_t stale_reports = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t decided_evictions = 0;
};

struct StateMachineOptions {
  /// See GrmOptions::staleness_ttl.
  double staleness_ttl = std::numeric_limits<double>::infinity();
  /// Bound on the idempotent decided-reply cache; 0 = unbounded. Evictions
  /// are FIFO by decision order and counted (rms.grm.decided_evictions).
  std::size_t decided_cache_capacity = 65536;
  obs::Sink sink = obs::Sink::global();
};

class GrmStateMachine {
 public:
  GrmStateMachine(std::vector<agree::AgreementSystem> systems, alloc::AllocatorOptions opts,
                  StateMachineOptions sm_opts);

  /// Identity used for obs events (the owning endpoint or replica id).
  void set_actor(std::uint32_t actor) { actor_ = actor; }

  std::size_t num_resources() const { return allocators_.size(); }
  std::size_t num_sites() const { return registered_.size(); }

  void register_site(std::size_t site);
  bool site_registered(std::size_t site) const { return registered_.at(site); }
  /// Restrict decisions to a subset of sites (hierarchical child GRM).
  void set_scope(const std::vector<std::size_t>& sites);
  bool in_scope(std::size_t site) const { return scope_.empty() || scope_.at(site); }

  /// Agreement management: change a relative share, rebuild the allocator.
  void apply_update(std::size_t resource, std::size_t from, std::size_t to, double share);
  /// Returns false (counting a stale report) when the sequence number is
  /// not newer than the last accepted one; seq 0 always lands.
  bool apply_report(const AvailabilityReport& rep, double now);
  void apply_resync(const LrmResync& rs, double now);

  /// Latest known availability (see Grm::known_available).
  double known_available(std::size_t site, std::size_t resource) const;

  /// The cached reply for an already-decided request, or nullptr. Does not
  /// count a duplicate -- callers pair it with note_duplicate().
  const AllocationReply* cached(std::uint64_t request_id) const;
  void note_duplicate();
  /// Cache a reply decided elsewhere (e.g. relayed from a parent GRM).
  void record(std::uint64_t request_id, const AllocationReply& reply);

  struct Decision {
    enum class Kind {
      Duplicate,    ///< already decided; `reply` is the cached one
      Granted,      ///< `reply` + `reserves` to emit
      Denied,       ///< `reply` is a recorded denial
      Unsatisfied,  ///< not recorded: caller may escalate to a parent GRM
    };
    Kind kind = Kind::Unsatisfied;
    AllocationReply reply;
    /// Contributing sites in ascending order with their reserve commands.
    std::vector<std::pair<std::size_t, ReserveCommand>> reserves;
  };

  /// Decide a request at time `now`. With `record_denial` false an
  /// unsatisfiable request is left undecided (Kind::Unsatisfied) so a child
  /// GRM can forward it to its parent; true denies and caches the denial.
  Decision decide(const AllocationRequest& req, double now, bool record_denial);

  /// Why a request must be denied before it may enter a replicated log
  /// (shape/principal validation a leader performs up front, so a malformed
  /// request can never trip an invariant at apply time on a follower).
  std::optional<std::string> invalid_reason(const AllocationRequest& req) const;

  GrmSnapshot snapshot() const;
  void restore(const GrmSnapshot& snap);
  /// FNV-1a digest of the replicated state (everything in GrmSnapshot).
  /// Replicas that applied the same committed prefix agree on it exactly.
  std::uint64_t digest() const;

  /// Statistics (replicated unless noted otherwise).
  std::uint64_t decisions() const { return decisions_.value(); }
  std::uint64_t grants() const { return grants_.value(); }
  std::uint64_t stale_masked() const { return stale_masked_.value(); }
  std::uint64_t stale_reports() const { return stale_reports_.value(); }
  std::uint64_t resyncs() const { return resyncs_.value(); }
  std::uint64_t decided_evictions() const { return decided_evictions_.value(); }
  std::size_t decided_size() const { return decided_.size(); }
  /// Edge-driven, not replicated.
  std::uint64_t duplicate_requests() const { return duplicate_requests_.value(); }
  std::uint64_t unknown_queries() const { return unknown_queries_; }

 private:
  void rebuild_allocators(std::vector<agree::AgreementSystem> systems);

  alloc::AllocatorOptions opts_;
  StateMachineOptions sm_opts_;
  std::uint32_t actor_ = 0;
  std::vector<std::unique_ptr<alloc::Allocator>> allocators_;
  std::vector<std::vector<double>> known_;  ///< [resource][site]
  std::vector<bool> registered_;
  std::vector<bool> reported_;
  std::vector<double> report_time_;
  std::vector<std::uint64_t> report_seq_;
  std::vector<bool> scope_;  ///< empty = all sites
  std::unordered_map<std::uint64_t, AllocationReply> decided_;
  std::deque<std::uint64_t> decided_order_;  ///< insertion order (FIFO eviction)
  /// Counts, each feeding its rms.grm.* registry counter. The replicated
  /// ones are snapshot state: restore() sets them without feeding the
  /// registry, and digest() hashes them.
  obs::Tally decisions_;
  obs::Tally grants_;
  obs::Tally stale_masked_;
  obs::Tally stale_reports_;
  obs::Tally resyncs_;
  obs::Tally decided_evictions_;
  obs::Tally duplicate_requests_;
  mutable std::uint64_t unknown_queries_ = 0;
};

}  // namespace agora::rms
