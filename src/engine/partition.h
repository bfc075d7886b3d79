// partition.h -- how the enforcement engine splits participants into shards.
//
// The agreement graph gives a natural sharding axis: capacity can only flow
// along (possibly transitive) agreement edges, so participants in different
// connected components of the agreement graph can never draw on each other.
// A shard that owns a whole set of components can therefore decide requests
// for its participants with a *local* LP over only those participants, and
// the decision is exactly what the global allocator would have produced for
// them (entitlements crossing a component boundary are identically zero).
// This is GMA's locality argument applied to our agreement economies. The
// allocator applies the same argument inside a shard: a shard holding
// several components solves each consult over the requester's component
// alone (alloc::AllocationModelCache), so connectivity sharding adds
// parallelism rather than a smaller LP.
//
// When there are fewer components than requested shards there is no further
// independent split: without federation each component gets one shard, so a
// single-component economy runs on one exact shard. Federated sharding
// (PartitionOptions::federated) cuts the components themselves by
// min-cut-ish edge scoring -- heavy-edge agglomeration under a size cap, so
// the heaviest agreement edges stay inside a shard and only the lightest
// are cut. Cut entitlements are carried by border credits (see
// federation.h); decisions are certified-feasible but approximate, with the
// optimality gap measured per epoch.
#pragma once

#include <cstddef>
#include <vector>

#include "agree/matrices.h"

namespace agora::engine {

struct Partition {
  /// Effective shard count (<= requested: never more shards than
  /// components in connectivity mode, never more than participants).
  std::size_t shards = 1;
  /// True when the edge-scored federated split was used: shard boundaries
  /// may cut agreement edges, so border credits are required for exactness
  /// of routing-local admission.
  bool federated = false;
  /// Number of connected components in the agreement graph.
  std::size_t components = 0;
  /// Owning shard per participant (routing key).
  std::vector<std::size_t> shard_of;
  /// Participants owned by each shard, ascending.
  std::vector<std::vector<std::size_t>> members;
};

struct PartitionOptions {
  std::size_t shards = 1;
  /// Split components by edge-scored agglomeration (with border credits)
  /// when there are fewer components than requested shards, instead of
  /// running fewer shards. No split shard exceeds ceil(1.25 * n / shards)
  /// participants (kBalanceSlack in partition.cpp).
  bool federated = false;
};

/// Partition the participants of `sys` into at most `opts.shards` shards.
/// Connectivity first: connected components (agree::connected_components:
/// the relative and absolute agreement supports, symmetrized) are
/// bin-packed onto shards, largest first. When there are fewer components
/// than requested shards, federated mode cuts components by heavy-edge
/// agglomeration (lightest total agreement weight crosses shards);
/// otherwise the shard count shrinks to the component count.
Partition partition_participants(const agree::AgreementSystem& sys,
                                 const PartitionOptions& opts);

}  // namespace agora::engine
