// snapshot.h -- epoch-versioned immutable view of the engine's capacity
// state.
//
// Readers (availability queries, plan globalization, monitoring) must never
// contend with a shard's work: they read a CapacitySnapshot published by
// the last completed mutation. A snapshot is immutable after publish --
// consumers hold a shared_ptr and may keep it as long as they like; the
// engine swaps in a fresh snapshot (epoch + 1) once every shard has taken a
// mutation. The swap itself is a pointer exchange behind a dedicated mutex
// whose critical section is two shared_ptr operations, never a shard's run
// lock or allocator state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace agora::engine {

struct CapacitySnapshot {
  /// Publication ordinal: 0 is the construction-time snapshot; every
  /// completed mutation (apply / release / set_capacities) increments it.
  std::uint64_t epoch = 0;
  /// Raw owned capacity V_i per participant.
  std::vector<double> capacity;
  /// Availability C_i per participant (own retained capacity plus every
  /// entitlement under the transitive closure) -- what available_to reports.
  std::vector<double> available;
};

/// Holder for the engine's current snapshot pointer.
class SnapshotCell {
 public:
  std::shared_ptr<const CapacitySnapshot> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

  void store(std::shared_ptr<const CapacitySnapshot> next) {
    std::lock_guard<std::mutex> lock(mu_);
    snap_ = std::move(next);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const CapacitySnapshot> snap_;
};

}  // namespace agora::engine
