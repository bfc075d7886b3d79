// engine.h -- the sharded, thread-safe enforcement engine fronting all
// admission traffic (DESIGN.md §11).
//
// The paper evaluates enforcement with ten proxies consulting one allocator
// serially; production traffic needs admission decisions computed locally
// and in parallel. EnforcementEngine partitions participants into shards
// (by agreement-graph connectivity; a single component runs on one shard
// unless federation cuts it with border credits -- see partition.h and
// federation.h); each shard owns its *own* warm-started allocator
// (lp::SolveWorkspace + alloc::AllocationModelCache), extending the
// single-threaded reuse of the warm-start work to per-shard reuse.
//
// The engine is a library that starts no threads. Every consult and every
// mutation runs on its caller's thread under the owning shard's run lock,
// so callers on different shards decide in parallel and callers on one
// shard take turns. submit() is consult() with its exceptions mapped to a
// Status in a ready future. A server that wants one executor brings its
// own: net::AgoraService sends every consult through its serial pump.
//
// Lock order: mutate_mu_ first, then one run lock at a time. No thread ever
// holds two run locks, or takes mutate_mu_ while holding a run lock.
//
// A mutation locks only the shards whose capacities it changes. In
// connectivity mode (not federated) a shard's allocator
// holds exactly its members' capacities, so a shard whose member slice is
// unchanged is skipped: the mutation advances its epoch counter and reuses
// the published availability of its members.
//
// Capacity/valuation reads go through an epoch-versioned immutable snapshot
// (snapshot.h) and never touch a shard lock or allocator.
//
// Guarantees:
//   * threads=1 is decision-identical to calling the Allocator directly:
//     one shard owning the whole system, the same Allocator performing the
//     same call sequence (pinned byte-identical in tests/engine_test.cpp).
//   * Certification is inherited unchanged: the per-shard allocators
//     decide through the certified solve chain, the only way an Allocator
//     solves, so no uncertified grant is possible through the engine.
//   * One caller's operations take effect in the order it calls them, and
//     each has taken effect when its call returns (submit() included);
//     mutations return only after every shard they change applied them and
//     the new snapshot epoch is published.
//
// EnforcementEngine implements alloc::AllocatorBase, so call sites written
// against the interface (net::AgoraService, user code reaching in through
// agora/agora.h) run on the engine or a direct allocator interchangeably.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/allocator_base.h"
#include "engine/federation.h"
#include "engine/partition.h"
#include "engine/plan_cache.h"
#include "engine/snapshot.h"
#include "obs/sink.h"
#include "util/matrix.h"
#include "util/status.h"

namespace agora::engine {

struct EngineOptions {
  /// Shard count (the engine starts no threads; callers on different
  /// shards run in parallel). 1 (default) = a single shard over the full
  /// system, decision-identical to the direct allocator path. Clamped to the
  /// participant count; without federation also to the component count.
  std::size_t threads = 1;
  /// Per-shard allocator configuration; `reuse_context` gives each shard
  /// its own warm-start workspace.
  alloc::AllocatorOptions alloc;
  /// Epoch-keyed decision cache fronting the shards (plan_cache.h). A
  /// repeated (participant, amount) shape within one snapshot epoch is
  /// answered on the caller's thread -- no run lock, no LP -- after a
  /// sparse residual re-certification against the current snapshot. Off by
  /// default: with the cache on, repeated shapes are answered from the first
  /// decision of that epoch instead of being re-solved, which a test
  /// asserting per-call solver telemetry would notice. A hit is the plan
  /// the epoch's first decision produced, bit for bit; a warm re-solve of
  /// the same shape from a later basis agrees with it in status and theta
  /// but not necessarily in the last bits (DESIGN.md §11.4).
  bool plan_cache = false;
  /// Federated cross-shard enforcement (federation.h). When enabled and the
  /// agreement graph has fewer components than requested shards, the engine
  /// cuts components by edge scoring and carries cut entitlements as border
  /// credits instead of running each component on one shard. Decisions stay
  /// certified against the shard-local problem; the optimality gap versus
  /// the exact global LP is measured per settlement round (see EngineStats).
  FederationOptions federation;
  /// Telemetry: the engine.* consult, epoch, plan-cache and federation
  /// counts. The engine emits no trace events of its own, so a serial
  /// caller's event stream is the direct allocator's.
  obs::Sink sink = obs::Sink::global();
};

/// Outcome of a consult as a value: `status` is agora's unified error
/// currency (DESIGN.md §11.5). For a decided request it mirrors the plan
/// (Ok / Insufficient / Denied / SolverFailed); failures (bad arguments:
/// InvalidArgument, allocator exception: Internal) leave the plan
/// default-constructed.
struct EngineResult {
  Status status;
  alloc::AllocationPlan plan;
};

/// `backend.allocate(a, amount)` that never throws: its exceptions become
/// their Status. EnforcementEngine::submit() and net::AgoraService's pump
/// both decide through it.
EngineResult resolve(const alloc::AllocatorBase& backend, std::size_t a, double amount);

struct ShardStats {
  std::size_t participants = 0;
  std::uint64_t consults = 0;
  /// Always 0: the engine queues nothing, so nothing batches or coalesces.
  /// Kept because the benchmark harness (perfbench/harness) still reads
  /// them; they go with its next change.
  std::uint64_t batches = 0;
  std::uint64_t coalesced_ops = 0;
};

/// Federation telemetry: ledger totals plus the measured optimality gap
/// (federated theta versus the exact global LP's, sampled per settlement).
struct FederationStats {
  bool active = false;          ///< border credits exist (federated split in use)
  std::size_t credits = 0;      ///< cut edges carrying loans
  std::uint64_t settlements = 0;
  double granted = 0.0;         ///< cumulative loan volume ever issued
  double consumed = 0.0;        ///< cumulative loan volume spent by applied plans
  double revoked = 0.0;         ///< cumulative loan volume returned to lenders
  double outstanding = 0.0;     ///< live loan volume (granted - consumed - revoked)
  std::uint64_t gap_probes = 0; ///< decisions re-solved against the exact LP
  double last_gap_abs = 0.0;    ///< theta_federated - theta_exact, last probe
  double last_gap_rel = 0.0;    ///< ... relative to max(theta_exact, 1)
  double max_gap_rel = 0.0;     ///< worst relative gap observed
};

struct EngineStats {
  std::size_t shards = 0;
  /// Federated split in use: shard boundaries cut agreement edges and the
  /// cut entitlements ride border credits (see `federation`).
  bool federated = false;
  std::size_t components = 0;
  std::uint64_t epoch = 0;
  std::vector<ShardStats> shard;
  FederationStats federation;
  /// Decision-cache counters (all zero when EngineOptions::plan_cache off).
  PlanCacheStats plan_cache;
  /// Always 0: the allocator grants only the certified LP optimum and has
  /// no fast path. Kept because the benchmark harness (perfbench/harness)
  /// still reads them; they go with its next change.
  std::uint64_t fastpath_granted = 0;
  std::uint64_t fastpath_fallthrough = 0;
};

class EnforcementEngine : public alloc::AllocatorBase {
 public:
  EnforcementEngine(agree::AgreementSystem sys, EngineOptions opts = {});

  EnforcementEngine(const EnforcementEngine&) = delete;
  EnforcementEngine& operator=(const EnforcementEngine&) = delete;

  // --- Admission ----------------------------------------------------------
  /// Blocking decision, run on the calling thread under the owning shard's
  /// run lock. Throws exactly like Allocator::allocate.
  alloc::AllocationPlan consult(std::size_t a, double amount) const;

  /// consult() on the calling thread, answered as a ready future. Never
  /// throws: resolve() maps its exceptions to a Status. Kept for the
  /// benchmark harness (perfbench/harness), its only caller outside tests.
  std::future<EngineResult> submit(std::size_t a, double amount) const;

  // --- AllocatorBase ------------------------------------------------------
  std::size_t size() const override { return n_; }
  /// The full agreement system. Capacities reflect the last *published*
  /// epoch; concurrent readers should prefer snapshot() -- the capacity
  /// vector behind this reference is rewritten by mutations.
  const agree::AgreementSystem& system() const override { return sys_; }
  alloc::AllocationPlan allocate(std::size_t a, double amount) const override {
    return consult(a, amount);
  }
  double available_to(std::size_t a) const override;
  /// Aggregated certified-solve-chain telemetry across all shards, read
  /// under each shard's run lock. Never nullopt.
  std::optional<lp::PipelineStats> solver_stats() const override;

  // --- Snapshot reads (never touch shard state) ---------------------------
  std::shared_ptr<const CapacitySnapshot> snapshot() const { return cell_.load(); }
  std::uint64_t epoch() const { return cell_.load()->epoch; }

  // --- Federation ---------------------------------------------------------
  /// Run one explicit settlement round at the current capacities: consume
  /// nothing, re-grant every border credit toward its policy target, measure
  /// the epoch's optimality-gap probes, publish the next snapshot epoch.
  /// Mutations (apply/release/set_capacities) settle implicitly; this is for
  /// callers that want loan balances refreshed without a capacity change.
  /// No-op beyond an epoch bump when federation is inactive.
  void settle();

  // --- Introspection ------------------------------------------------------
  std::size_t num_shards() const { return shards_.size(); }
  bool federated() const { return fed_ != nullptr; }
  std::size_t shard_of(std::size_t participant) const;
  EngineStats stats() const;

 private:
  struct Shard {
    std::size_t id = 0;
    std::vector<std::size_t> members;     ///< global ids, ascending
    std::vector<std::size_t> local_of;    ///< global id -> local index (or npos)
    /// Held by the caller running a consult or mutation on this shard (see
    /// the file comment). Guards the allocator and every field below marked
    /// "run lock".
    std::mutex run_mu;
    /// The shard's allocator (run lock). A federated settlement that moves
    /// the bank's earmarks replaces it under the run lock; nothing reads it
    /// without that lock once the constructor has returned.
    std::unique_ptr<alloc::Allocator> alloc;
    /// Mutations this shard has seen. Every mutate() advances it on every
    /// shard and then publishes epoch+1, so once the shard's m-th mutation
    /// has run its allocator state equals the global epoch-m snapshot
    /// restricted to its members -- the correct epoch key for decisions it
    /// computes from here on. Written only under mutate_mu_; atomic because
    /// a mutation that skips the shard advances it without the run lock,
    /// while a consult may be reading it.
    std::atomic<std::uint64_t> muts_applied{0};
    // --- Federated state (run lock unless noted) ---------------------------
    /// Local index of the border bank slot, or npos when the shard has none.
    /// Fixed at construction (read-only afterwards).
    std::size_t bank = static_cast<std::size_t>(-1);
    /// Inbound credit table, ascending by id: how a consult attributes bank
    /// draws back to lenders. Replaced only together with the allocator's
    /// bank earmarks, by a settlement.
    std::vector<CreditSlice> credits;
    /// Ring of the epoch's satisfied federated decisions, drained by the
    /// next settlement for gap probing.
    std::vector<GapSample> gap_samples;
    std::size_t gap_next = 0;
    /// Solve-chain counts of the allocators a settlement retired (one that
    /// moves bank earmarks replaces the allocator), so solver_stats() never
    /// loses history.
    lp::PipelineStats carried;
    /// Consults decided on this shard (a relaxed atomic, readable without
    /// the run lock); feeds engine.consults.
    obs::Tally consults;
  };

  /// Caller holds shard.run_mu: one consult on the shard's allocator,
  /// stamped with its epoch and offered to the plan cache. Throws like
  /// Allocator::allocate.
  alloc::AllocationPlan decide(Shard& shard, std::size_t a, double amount) const;
  /// Caller-thread cache front end: lookup against the published epoch,
  /// re-certify the stored plan against the snapshot, return a copy on
  /// success. Nullopt (= decide on the shard) on miss/stale/reject.
  std::optional<alloc::AllocationPlan> cached_decision(std::size_t a, double amount) const;
  /// Sparse residual re-certification of a cached plan against `snap`:
  /// draws within current entitlements, demand met, theta covers every
  /// capacity drop. O(nnz * n) with the vectorized kernels.
  bool recertify(const PlanCache::Entry& e, const CapacitySnapshot& snap) const;
  /// Map a shard-local plan back to full-system indices: scatter its
  /// members' draws into a zero draw vector (a bank slot, past the members,
  /// is dropped).
  alloc::AllocationPlan globalize(const Shard& shard, alloc::AllocationPlan local) const;
  /// Federated globalize: drop the bank slot, attribute the bank draw to
  /// individual credits (greedy in id order -- deterministic, and exact
  /// because the local LP bounds the draw by the requester's earmark), fold
  /// the attributed amounts into the lenders' global draw entries, and
  /// record the per-credit spends in plan.borrowed.
  alloc::AllocationPlan federate(Shard& shard, alloc::AllocationPlan local,
                                 std::size_t a) const;
  /// Record a satisfied federated decision in the shard's gap-probe ring
  /// with its measured global perturbation (max capacity drop under that_).
  void sample_gap(Shard& shard, const alloc::AllocationPlan& plan, std::size_t a,
                  double amount) const;
  /// Under mutate_mu_: the capacity rule on the current capacities, then
  /// mutate() to its result. A refused write changes nothing.
  void commit(const alloc::CapacityWrite& write) override;
  /// Caller holds mutate_mu_; `global` passed the capacity rule. Spend
  /// `spend`'s border credits, apply each changed shard's slice under its
  /// run lock, then merge the slices into a fresh snapshot and publish it.
  void mutate(const std::vector<double>& global,
              std::span<const alloc::BorrowedDraw> spend = {});
  void publish(std::vector<double> capacity, std::vector<double> available);

  agree::AgreementSystem sys_;
  /// Participant count, immutable after construction: the lock-free entry
  /// points (consult's argument checks, globalize) must not size
  /// sys_.capacity, whose buffer mutations rewrite under mutate_mu_.
  std::size_t n_ = 0;
  EngineOptions opts_;
  Partition part_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SnapshotCell cell_;
  /// Decision cache + the immutable matrices its re-certification needs:
  /// that_(k, i) is the capacity drop at i per unit drawn at k (retained_k on
  /// the diagonal, clamped transitive share K_ki off it) -- the same
  /// coefficients the compact LP's perturbation rows use.
  std::unique_ptr<PlanCache> pcache_;
  Matrix that_;
  /// Border-credit state machine; null unless the partition is federated
  /// AND produced at least one credit. Guarded by mutate_mu_ (settlement,
  /// consumption).
  std::unique_ptr<Federation> fed_;
  /// Exact full-system reference allocator for gap probes (warm revised
  /// and certified like every Allocator; it measures, it never admits, so
  /// its telemetry goes to an empty sink). Guarded by mutate_mu_.
  mutable std::unique_ptr<alloc::Allocator> exact_;
  /// Gap telemetry published by settlement rounds, guarded by gap_mu_ so
  /// stats() never contends with a settlement in flight: the last_gap_* and
  /// max_gap_rel fields of fed_stats_ (stats() fills in the rest) and the
  /// probe count, which feeds engine.federation.gap_probes.
  FederationStats fed_stats_;
  obs::Tally gap_probes_;
  mutable std::mutex gap_mu_;
  /// Published epochs: the snapshot epoch and engine.epochs (guarded by
  /// mutate_mu_).
  obs::Tally epochs_;
  mutable std::mutex mutate_mu_;     ///< serializes mutations + publish
  // Cached registry handles (see obs/metrics.h) for the counts no stats()
  // field mirrors: engine.consults adds cache hits to the shards' consults,
  // and the cache counts its hits and re-check rejections apart from the
  // registry's split (DESIGN.md §10).
  obs::Counter* obs_consults_ = nullptr;
  obs::Counter* obs_pc_hits_ = nullptr;
  obs::Counter* obs_pc_rejects_ = nullptr;
  obs::Counter* obs_pc_neg_hits_ = nullptr;
  obs::Counter* obs_pc_neg_rejects_ = nullptr;
  obs::Counter* obs_fed_settlements_ = nullptr;
  obs::Gauge* obs_fed_outstanding_ = nullptr;
  obs::Gauge* obs_fed_gap_rel_ = nullptr;
};

}  // namespace agora::engine
