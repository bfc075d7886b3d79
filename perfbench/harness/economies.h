// economies.h -- the inputs the workloads run on: the agreement economies
// bench/scale_shards.cpp sweeps (rebuilt here so the benchmark depends only
// on agora's library API) and the Zipf request-shape streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "agree/matrices.h"
#include "report.h"
#include "trace/zipf.h"

namespace agora::perf {

inline constexpr std::size_t kIslands = 8;
inline constexpr std::size_t kPerIsland = 8;
inline constexpr double kIslandShare = 0.2;
inline constexpr double kBridgeShare = 0.05;

/// 64 participants in 8 complete-graph islands of 8, every in-island pair
/// sharing 0.2; capacity 10 + (i mod 8).
agree::AgreementSystem island_economy();

/// The islands joined into one component by 0.05 ring bridges between the
/// last member of island g and the first member of island g+1.
agree::AgreementSystem bridged_economy();

/// Zipf-popular request shapes. The catalog (which participant asks for
/// which amount) is part of the workload's definition and fixed by the
/// workload parameters; the run's seed only picks the sampling order, so
/// different seeds replay the same popularity structure.
class ShapeStream {
 public:
  /// Catalog from the parameters shapes, zipf_s, amount_min, amount_step,
  /// amount_levels and catalog_seed (+ `salt`) over `participants`
  /// participants; sampling seeded with `sample_seed`.
  ShapeStream(const Params& params, std::size_t participants, std::uint64_t salt,
              std::uint64_t sample_seed);
  trace::RequestShape next() { return catalog_[zipf_.next()]; }

 private:
  std::vector<trace::RequestShape> catalog_;
  trace::ZipfSampler zipf_;
};

}  // namespace agora::perf
