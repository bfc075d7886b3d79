// scale_shards -- shard-count sweep for the EnforcementEngine (DESIGN.md
// §11.6): a 64-participant economy built as 8 complete-graph sharing islands
// of 8, measured at 1/2/4/8 shards.
//
// Connectivity partitioning turns each island into its own shard. Every
// shard's allocator solves a consult over the requester's island alone (a
// 9-variable LP) whether it holds one island or all eight (threads=1), so
// the sweep measures what more worker threads add on top of that:
// parallelism and per-shard warm state.
//
// Two phases per shard count:
//   * throughput -- pipelined waves of submit() (one per participant),
//     futures drained per wave: consults/sec over >= 0.5 s of waves,
//   * latency    -- serial blocking consult() calls: p50/p99 micros, with a
//     recorded p99 regression bound (kP99BoundUs).
//
// A second sweep (DESIGN.md §15) runs the same islands joined into ONE
// component by weak ring bridges, federated at 1/2/4/8 threads. At one
// thread the component runs on one exact shard (the 65-variable LP); at
// more, the bridges are cut, each shard solves its 9-variable local+bank
// LP, and the sweep records the measured optimality gap the engine reports
// per epoch.
//
// Usage: scale_shards [out.json]   (default BENCH_engine.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kIslands = 8;
constexpr std::size_t kPerIsland = 8;
constexpr double kShare = 0.2;

agora::agree::AgreementSystem island_economy() {
  const std::size_t n = kIslands * kPerIsland;
  agora::agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i)
    sys.capacity[i] = 10.0 + static_cast<double>(i % kPerIsland);
  for (std::size_t g = 0; g < kIslands; ++g)
    for (std::size_t i = g * kPerIsland; i < (g + 1) * kPerIsland; ++i)
      for (std::size_t j = g * kPerIsland; j < (g + 1) * kPerIsland; ++j)
        if (i != j) sys.relative(i, j) = kShare;
  return sys;
}

/// Ring-bridge share joining the islands into one component: weak enough
/// that the federated cut severs exactly the bridges, strong enough that
/// border credits are worth granting.
constexpr double kBridgeShare = 0.05;

agora::agree::AgreementSystem bridged_economy() {
  agora::agree::AgreementSystem sys = island_economy();
  for (std::size_t g = 0; g < kIslands; ++g) {
    const std::size_t a = g * kPerIsland + (kPerIsland - 1);
    const std::size_t b = ((g + 1) % kIslands) * kPerIsland;
    sys.relative(a, b) = kBridgeShare;
    sys.relative(b, a) = kBridgeShare;
  }
  return sys;
}

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t shards = 0;
  std::uint64_t consults = 0;
  double consults_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Regression bound on the serial consult p99, checked on the one latency
/// pass (p99_within_bound in the JSON). A blocking consult solves the
/// requester's 9-variable island LP on the calling thread, so the bound
/// leaves two orders of magnitude of headroom.
constexpr double kP99BoundUs = 1500.0;

SweepPoint measure(const agora::agree::AgreementSystem& sys, std::size_t threads) {
  agora::engine::EngineOptions opts;
  opts.threads = threads;
  opts.sink = agora::obs::Sink::none();
  opts.alloc.sink = agora::obs::Sink::none();
  agora::engine::EnforcementEngine eng(sys, opts);

  const std::size_t n = sys.size();
  agora::Pcg32 rng(7);
  std::vector<double> amounts(n);
  for (std::size_t i = 0; i < n; ++i) amounts[i] = rng.uniform(0.5, 4.0);

  // Warm-up: one consult per participant primes every shard's warm-start
  // workspace and model cache.
  for (std::size_t i = 0; i < n; ++i) (void)eng.consult(i, amounts[i]);

  SweepPoint pt;
  pt.threads = threads;
  pt.shards = eng.num_shards();

  // Throughput: pipelined waves, one submit per participant, drained per
  // wave, until at least half a second has been measured.
  std::vector<std::future<agora::engine::EngineResult>> wave;
  wave.reserve(n);
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.5) {
    wave.clear();
    for (std::size_t i = 0; i < n; ++i) wave.push_back(eng.submit(i, amounts[i]));
    for (auto& f : wave) (void)f.get();
    pt.consults += n;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  pt.consults_per_sec = static_cast<double>(pt.consults) / elapsed;

  // Latency: serial blocking consults, round-robin over participants.
  constexpr std::size_t kProbes = 512;
  std::vector<double> lat_us(kProbes);
  for (std::size_t k = 0; k < kProbes; ++k) {
    const std::size_t i = k % n;
    const auto a = Clock::now();
    (void)eng.consult(i, amounts[i]);
    lat_us[k] = std::chrono::duration<double, std::micro>(Clock::now() - a).count();
  }
  std::sort(lat_us.begin(), lat_us.end());
  pt.p50_us = lat_us[kProbes / 2];
  pt.p99_us = lat_us[(kProbes * 99) / 100];
  return pt;
}

// ------------------------------------------------- single-component sweep ---

struct FedPoint {
  bool federated = false;
  std::size_t threads = 0;
  std::size_t shards = 0;
  std::uint64_t consults = 0;
  double consults_per_sec = 0.0;
  double certified_pct = 0.0;
  double gap_last_rel = 0.0;
  double gap_max_rel = 0.0;
  std::uint64_t gap_probes = 0;
  std::uint64_t credits = 0;
  std::uint64_t settlements = 0;
};

FedPoint measure_single_component(const agora::agree::AgreementSystem& sys,
                                  std::size_t threads) {
  agora::engine::EngineOptions opts;
  opts.threads = threads;
  opts.sink = agora::obs::Sink::none();
  opts.alloc.sink = agora::obs::Sink::none();
  // One connected 64-node component: bound the transitive DFS the same way
  // the federation test suites do.
  opts.alloc.transitive.max_level = 3;
  opts.federation.enabled = true;
  opts.federation.gap_probes = 4;
  agora::engine::EnforcementEngine eng(sys, opts);

  const std::size_t n = sys.size();
  agora::Pcg32 rng(7);
  std::vector<double> amounts(n);
  for (std::size_t i = 0; i < n; ++i) amounts[i] = rng.uniform(0.5, 4.0);
  for (std::size_t i = 0; i < n; ++i) (void)eng.consult(i, amounts[i]);

  FedPoint pt;
  pt.federated = eng.federated();
  pt.threads = threads;
  pt.shards = eng.num_shards();

  std::uint64_t granted = 0, certified = 0;
  std::vector<std::future<agora::engine::EngineResult>> wave;
  wave.reserve(n);
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.5) {
    wave.clear();
    for (std::size_t i = 0; i < n; ++i) wave.push_back(eng.submit(i, amounts[i]));
    for (auto& f : wave) {
      const agora::engine::EngineResult res = f.get();
      if (res.plan.satisfied()) {
        ++granted;
        if (res.plan.certified) ++certified;
      }
    }
    pt.consults += n;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  pt.consults_per_sec = static_cast<double>(pt.consults) / elapsed;
  pt.certified_pct =
      granted == 0 ? 0.0
                   : 100.0 * static_cast<double>(certified) / static_cast<double>(granted);

  // An epoch boundary at unchanged capacities: drains the shard gap rings
  // and (federated) probes the exact global LP for the optimality gap.
  eng.settle();
  const agora::engine::EngineStats st = eng.stats();
  pt.gap_last_rel = st.federation.last_gap_rel;
  pt.gap_max_rel = st.federation.max_gap_rel;
  pt.gap_probes = st.federation.gap_probes;
  pt.credits = st.federation.credits;
  pt.settlements = st.federation.settlements;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const agora::agree::AgreementSystem sys = island_economy();

  std::vector<SweepPoint> sweep;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    sweep.push_back(measure(sys, threads));
    const SweepPoint& pt = sweep.back();
    std::printf(
        "threads=%zu shards=%zu  %10.0f consults/s  p50 %7.1f us  p99 %7.1f us%s\n",
        pt.threads, pt.shards, pt.consults_per_sec, pt.p50_us, pt.p99_us,
        pt.p99_us > kP99BoundUs ? "  ** p99 OVER BOUND **" : "");
  }
  const double speedup = sweep.back().consults_per_sec / sweep.front().consults_per_sec;
  std::printf("speedup 8 vs 1 threads: %.2fx\n", speedup);

  // Single-component sweep: one exact shard at threads=1, the edge-scored
  // cut + border credits at 2/4/8.
  const agora::agree::AgreementSystem one = bridged_economy();
  std::vector<FedPoint> fed_sweep;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    fed_sweep.push_back(measure_single_component(one, threads));
    const FedPoint& pt = fed_sweep.back();
    std::printf(
        "one-component threads=%zu shards=%zu%s  %10.0f consults/s  "
        "certified %.1f%%  gap last/max %.4f/%.4f\n",
        pt.threads, pt.shards, pt.federated ? " (federated)" : "", pt.consults_per_sec,
        pt.certified_pct, pt.gap_last_rel, pt.gap_max_rel);
  }
  const double speedup_fed = fed_sweep.back().consults_per_sec / fed_sweep.front().consults_per_sec;
  std::printf("one-component speedup 8 federated shards vs 1 exact shard: %.2fx\n",
              speedup_fed);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "scale_shards: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"engine_scale_shards\",\n");
  std::fprintf(f,
               "  \"economy\": {\"participants\": %zu, \"islands\": %zu, "
               "\"per_island\": %zu, \"share\": %.2f},\n",
               kIslands * kPerIsland, kIslands, kPerIsland, kShare);
  std::fprintf(f, "  \"p99_bound_us\": %.1f,\n", kP99BoundUs);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& pt = sweep[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"shards\": %zu, \"consults\": %llu, "
                 "\"consults_per_sec\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
                 "\"p99_within_bound\": %s}%s\n",
                 pt.threads, pt.shards, static_cast<unsigned long long>(pt.consults),
                 pt.consults_per_sec, pt.p50_us, pt.p99_us,
                 pt.p99_us <= kP99BoundUs ? "true" : "false", i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"single_component\": {\n");
  std::fprintf(f, "    \"bridge_share\": %.2f,\n", kBridgeShare);
  std::fprintf(f, "    \"sweep\": [\n");
  for (std::size_t i = 0; i < fed_sweep.size(); ++i) {
    const FedPoint& pt = fed_sweep[i];
    std::fprintf(f,
                 "      {\"federated\": %s, \"threads\": %zu, \"shards\": %zu, "
                 "\"consults\": %llu, \"consults_per_sec\": %.1f, "
                 "\"certified_grant_pct\": %.1f, \"gap_last_rel\": %.6f, "
                 "\"gap_max_rel\": %.6f, \"gap_probes\": %llu, \"credits\": %llu, "
                 "\"settlements\": %llu}%s\n",
                 pt.federated ? "true" : "false", pt.threads, pt.shards,
                 static_cast<unsigned long long>(pt.consults), pt.consults_per_sec,
                 pt.certified_pct, pt.gap_last_rel, pt.gap_max_rel,
                 static_cast<unsigned long long>(pt.gap_probes),
                 static_cast<unsigned long long>(pt.credits),
                 static_cast<unsigned long long>(pt.settlements),
                 i + 1 < fed_sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"speedup_fed_8_vs_1\": %.3f\n", speedup_fed);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_8_vs_1\": %.3f\n}\n", speedup);
  std::fclose(f);
  std::printf("scale_shards: wrote %s\n", out_path.c_str());
  return 0;
}
