// plan_cache.h -- the epoch-keyed admission decision cache fronting the
// enforcement engine (DESIGN.md §13).
//
// Production admission traffic is heavily repetitive: the same participants
// ask for the same handful of request shapes over and over (trace studies
// behind the paper's proxy experiments show Zipf-like shape popularity).
// Between two capacity mutations the engine's decision function is PURE --
// the answer to (participant, amount) depends only on the published
// CapacitySnapshot -- so a decision computed once per epoch can be replayed
// without taking a shard's run lock or solving an LP.
//
// The cache is a fixed-size open-addressing table keyed by
// (participant, canonicalized amount); the snapshot EPOCH is not part of the
// hash but stored in the entry and compared on lookup. That choice is what
// makes invalidation free: a mutation publishes epoch+1, every cached entry
// silently becomes stale (lookup mismatches), and the next solve of a shape
// overwrites its slot in place -- no flush pass, no generation sweeps.
//
// Concurrency: each slot holds a std::shared_ptr<const Entry> behind a
// one-byte spinlock held only to copy or swap the pointer, so readers
// (engine front-end, any caller thread) and writers (whichever thread just
// decided a consult under its shard's run lock) wait on each other for no
// more than that; a reader that loses a race simply sees the old or the new
// immutable entry. Eviction is a probe-window LRU clock: each slot carries
// a reference byte, bumped on hit and decayed as insert scans pass over it;
// the coldest slot in the window is replaced.
//
// A cache hit is NEVER granted on the cache's word alone -- the engine
// re-certifies the stored plan against the current snapshot with a sparse
// residual check (see EnforcementEngine::recertify) before returning it,
// preserving the "no uncertified grant" invariant end to end.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/plan.h"
#include "obs/sink.h"

namespace agora::engine {

struct PlanCacheOptions {
  /// Slot count; rounded up to a power of two, minimum 64.
  std::size_t slots = std::size_t{1} << 13;
  /// Linear-probe window per key. Bounded probing keeps the worst-case
  /// lookup cost flat; a full window falls back to LRU-clock eviction.
  std::size_t probe_window = 8;
};

/// Counter snapshot (relaxed reads; exact once the engine is quiescent).
/// The neg_* family tracks NEGATIVE entries -- cached certified denials
/// (PlanStatus::Insufficient) replayed so a hammering requester cannot buy
/// an LP solve per refusal. misses/stale are shared: at lookup time the
/// polarity of an absent answer is unknown. misses and stale are the counts
/// engine.plan_cache.misses and .stale are fed; the engine counts its hits
/// and re-check rejections in the registry after its own re-check.
struct PlanCacheStats {
  std::uint64_t hits = 0;  ///< grant (positive-entry) hits
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;  ///< shape found but from an older epoch
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;        ///< inserts that displaced a live grant
  std::uint64_t certify_rejects = 0;  ///< hits the residual re-check refused
  std::uint64_t neg_hits = 0;
  std::uint64_t neg_inserts = 0;
  std::uint64_t neg_evictions = 0;  ///< inserts that displaced a live denial
};

class PlanCache {
 public:
  /// An immutable cached decision. `plan` is the full globalized plan as the
  /// engine returned it (decision_epoch == epoch); `nz` lists the indices of
  /// its nonzero draws so the engine's residual re-check touches only the
  /// rows that matter.
  struct Entry {
    std::uint64_t epoch = 0;
    std::size_t participant = 0;
    double amount = 0.0;
    alloc::AllocationPlan plan;
    std::vector<std::uint32_t> nz;

    /// A cached certified denial (no draws to replay, only the refusal).
    bool negative() const { return plan.status != alloc::PlanStatus::Satisfied; }
  };

  enum class Outcome { Hit, Miss, Stale };

  struct LookupResult {
    std::shared_ptr<const Entry> entry;  ///< non-null iff outcome == Hit
    Outcome outcome = Outcome::Miss;
  };

  /// `sink` receives the miss and stale counts (engine.plan_cache.*).
  explicit PlanCache(PlanCacheOptions opts = {}, const obs::Sink& sink = obs::Sink::none());
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Find the decision for (participant, amount) made at exactly `epoch`.
  LookupResult lookup(std::uint64_t epoch, std::size_t participant, double amount);

  /// Publish a decision. `plan` must be a certified, globalized plan
  /// computed against snapshot `epoch` -- Satisfied (a replayable grant) or
  /// Insufficient (a replayable denial; inserted COLD, so under probe-window
  /// pressure denials are evicted before grants). A same-shape entry
  /// anywhere in the probe window is overwritten in place (this is how
  /// stale entries die, and how a denial flips to a grant after a capacity
  /// mutation).
  void insert(std::uint64_t epoch, std::size_t participant, double amount,
              const alloc::AllocationPlan& plan);

  /// Record a hit the engine's residual re-certification rejected (counted
  /// here so PlanCacheStats tells the whole admission story in one struct).
  void note_certify_reject() { certify_rejects_.inc(); }

  std::size_t slots() const { return slots_.size(); }
  PlanCacheStats stats() const;

 private:
  /// The entry is guarded by a spinlock rather than held in a
  /// std::atomic<std::shared_ptr>: libstdc++ 12's load() releases its
  /// internal lock with a relaxed store, so its read of the pointer is not
  /// ordered before the next store's write, a data race that
  /// ThreadSanitizer reports.
  struct Slot {
    std::shared_ptr<const Entry> load() const;
    /// Install `next`; the displaced entry is released after the unlock.
    void store(std::shared_ptr<const Entry> next);

    std::shared_ptr<const Entry> entry;  ///< guarded by `busy`
    mutable std::atomic<bool> busy{false};
    std::atomic<std::uint8_t> ref{0};  ///< LRU-clock recency, saturating
  };

  std::size_t base_index(std::size_t participant, double amount) const;

  std::size_t mask_ = 0;
  std::size_t probe_ = 8;
  std::vector<Slot> slots_;
  obs::Tally hits_;
  obs::Tally misses_;
  obs::Tally stale_;
  obs::Tally inserts_;
  obs::Tally evictions_;
  obs::Tally certify_rejects_;
  obs::Tally neg_hits_;
  obs::Tally neg_inserts_;
  obs::Tally neg_evictions_;
};

}  // namespace agora::engine
