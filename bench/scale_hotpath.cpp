// scale_hotpath -- admission hot-path sweep for the EnforcementEngine
// (DESIGN.md §13): the same 64-participant, 8-island economy as
// scale_shards, held at 8 shards, driven by a Zipf(s=1.1) request mix over
// a 512-shape catalog, measured in three configurations:
//
//   * baseline -- every consult solves (warm-started) in its shard's LP,
//                 on the calling thread under the shard's run lock,
//   * fastpath -- the theta<=1 allocator fast path alone: trivially
//                 feasible requests skip the simplex (certified residual
//                 check instead), the rest solve as in the baseline,
//   * cache    -- epoch-keyed plan cache in front of the shards; hits are
//                 re-certified against the live snapshot and answered
//                 without a run lock or an LP.
//
// Cache and fast path are not combined: at the cache's hit rate nearly
// every consult is a hit, so the fast path behind it sees almost no traffic
// and a combined phase would only measure the cache again.
//
// The driver is SERIAL blocking consult() on purpose: the hot path's win is
// that a hit never takes a run lock or solves an LP, and serial calls
// measure exactly that per-consult cost.
//
// The sweep asserts the PR7 safety acceptance inline: every grant, cached
// or not, must carry a certificate (the binary exits non-zero otherwise).
//
// Usage: scale_hotpath [out.json]   (default BENCH_hotpath.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "trace/zipf.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kIslands = 8;
constexpr std::size_t kPerIsland = 8;
constexpr double kShare = 0.2;
constexpr std::size_t kThreads = 8;
constexpr double kZipfS = 1.1;
constexpr std::size_t kShapes = 512;

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

struct PhaseResult {
  std::string name;
  std::uint64_t consults = 0;
  std::uint64_t uncertified = 0;  ///< satisfied grants without a certificate
  double consults_per_sec = 0.0;
  double cache_hit_rate = 0.0;   ///< hits / consults
  double fastpath_share = 0.0;   ///< fast-path grants / consults
  std::uint64_t cache_stale = 0;
  std::uint64_t cache_rejects = 0;
};

PhaseResult measure(const agora::agree::AgreementSystem& sys, const std::string& name,
                    bool plan_cache, bool fast_path) {
  agora::engine::EngineOptions opts;
  opts.threads = kThreads;
  opts.plan_cache = plan_cache;
  opts.alloc.fast_path = fast_path;
  opts.sink = agora::obs::Sink::none();
  opts.alloc.sink = agora::obs::Sink::none();
  agora::engine::EnforcementEngine eng(sys, opts);

  agora::trace::ZipfShapeGenerator::Config cfg;
  cfg.participants = sys.size();
  cfg.shapes = kShapes;
  cfg.s = kZipfS;
  cfg.seed = 7;
  agora::trace::ZipfShapeGenerator gen(cfg);

  // Warm-up: one pass over the full shape catalog primes the warm-start
  // workspaces and, when enabled, populates the cache -- the steady state a
  // long-lived enforcement daemon runs in. Its counter contributions are
  // snapshotted so rates below cover the measured loop only.
  for (const agora::trace::RequestShape& s : gen.catalog())
    (void)eng.consult(s.participant, s.amount);
  const agora::engine::EngineStats warm = eng.stats();

  PhaseResult r;
  r.name = name;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.5) {
    for (int k = 0; k < 256; ++k) {
      const agora::trace::RequestShape s = gen.next();
      const agora::alloc::AllocationPlan plan = eng.consult(s.participant, s.amount);
      if (plan.satisfied() && !plan.certified) ++r.uncertified;
    }
    r.consults += 256;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  r.consults_per_sec = static_cast<double>(r.consults) / elapsed;

  const agora::engine::EngineStats st = eng.stats();
  const double total = static_cast<double>(r.consults);
  const std::uint64_t served_hits = (st.plan_cache.hits - st.plan_cache.certify_rejects) -
                                    (warm.plan_cache.hits - warm.plan_cache.certify_rejects);
  r.cache_hit_rate = static_cast<double>(served_hits) / total;
  r.fastpath_share =
      static_cast<double>(st.fastpath_granted - warm.fastpath_granted) / total;
  r.cache_stale = st.plan_cache.stale;
  r.cache_rejects = st.plan_cache.certify_rejects;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const agora::agree::AgreementSystem sys = island_economy();

  std::vector<PhaseResult> phases;
  phases.push_back(measure(sys, "baseline", /*plan_cache=*/false, /*fast_path=*/false));
  phases.push_back(measure(sys, "fastpath", /*plan_cache=*/false, /*fast_path=*/true));
  phases.push_back(measure(sys, "cache", /*plan_cache=*/true, /*fast_path=*/false));

  std::uint64_t uncertified = 0;
  for (const PhaseResult& r : phases) {
    std::printf("%-15s %12.0f consults/s  hit-rate %5.1f%%  fast-path %5.1f%%\n",
                r.name.c_str(), r.consults_per_sec, 100.0 * r.cache_hit_rate,
                100.0 * r.fastpath_share);
    uncertified += r.uncertified;
  }
  const double base = phases.front().consults_per_sec;
  const double speedup_fast = phases[1].consults_per_sec / base;
  const double speedup_cache = phases[2].consults_per_sec / base;
  std::printf("speedup vs baseline: fastpath %.1fx, cache %.1fx\n", speedup_fast,
              speedup_cache);
  if (uncertified != 0) {
    std::fprintf(stderr, "scale_hotpath: %llu UNCERTIFIED GRANTS -- invariant broken\n",
                 static_cast<unsigned long long>(uncertified));
    return 1;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "scale_hotpath: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"engine_scale_hotpath\",\n");
  std::fprintf(f,
               "  \"economy\": {\"participants\": %zu, \"islands\": %zu, "
               "\"per_island\": %zu, \"share\": %.2f},\n",
               kIslands * kPerIsland, kIslands, kPerIsland, kShare);
  std::fprintf(f,
               "  \"workload\": {\"zipf_s\": %.2f, \"shapes\": %zu, \"threads\": %zu, "
               "\"driver\": \"serial_blocking_consult\"},\n",
               kZipfS, kShapes, kThreads);
  std::fprintf(f, "  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& r = phases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"consults\": %llu, \"consults_per_sec\": %.1f, "
                 "\"cache_hit_rate\": %.4f, \"fastpath_share\": %.4f, "
                 "\"cache_stale\": %llu, \"cache_certify_rejects\": %llu, "
                 "\"uncertified_grants\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.consults),
                 r.consults_per_sec, r.cache_hit_rate, r.fastpath_share,
                 static_cast<unsigned long long>(r.cache_stale),
                 static_cast<unsigned long long>(r.cache_rejects),
                 static_cast<unsigned long long>(r.uncertified),
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_fastpath_vs_baseline\": %.3f,\n", speedup_fast);
  std::fprintf(f, "  \"speedup_cache_vs_baseline\": %.3f,\n", speedup_cache);
  std::fprintf(f, "  \"certified_grant_pct\": 100.0\n}\n");
  std::fclose(f);
  std::printf("scale_hotpath: wrote %s\n", out_path.c_str());
  return 0;
}
