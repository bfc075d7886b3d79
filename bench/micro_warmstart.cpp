// micro_warmstart -- the measurement for the amortized solve path: a
// Figure-13-like trace-driven consult sequence (spare capacities refresh,
// then the LP scheme allocates an overflow) run through the certified chain
// cold (reuse_context = false: the cached component model is patched in
// place and solved cold, with no solver workspace, as the GRM's replicated
// decisions are) vs warm (reuse_context = true: the same patched model, each
// solve warm-starting from the previous optimal basis). Both arms share the
// model structure, so the difference is the warm start alone.
//
// Reported per benchmark:
//   lp_iters_per_solve  -- simplex pivots per allocate()
//   allocs_per_solve    -- heap allocations per consult (operator new count)
//
// main() first runs a lockstep verification pass and prints one summary line
//
//   WARMSTART theta_max_diff=... cold_iters=... warm_iters=... iter_ratio=...
//
// consumed by tools/bench.sh into BENCH_lp.json; theta must agree within
// 1e-6 and the iteration ratio is the PR's acceptance metric.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "fig_common.h"
#include "util/rng.h"

// --- Global allocation counter (new/delete overrides) ----------------------

static std::atomic<std::uint64_t> g_allocs{0};

static void* counted_alloc(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz ? sz : 1);
}
void* operator new[](std::size_t sz, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz ? sz : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace agora;

constexpr std::size_t kProxies = 10;
constexpr std::size_t kConsults = 256;

struct Consult {
  std::vector<double> spare;
  std::size_t origin = 0;
  double overflow = 0.0;
};

struct Scenario {
  agree::AgreementSystem sys;
  std::vector<Consult> consults;
};

/// Fig-13-like setup: 10 proxies on a ring with distance-decaying shares,
/// spare capacities fluctuating per scheduling epoch, overflow requests from
/// rotating origins. Fully deterministic.
Scenario make_scenario() {
  Scenario sc;
  sc.sys = agree::AgreementSystem(kProxies);
  sc.sys.relative = agree::distance_decay(kProxies, {0.20, 0.10, 0.05, 0.03});
  Pcg32 rng(20260806);
  std::vector<double> base(kProxies);
  for (double& b : base) b = rng.uniform(8.0, 16.0);
  sc.sys.capacity = base;
  sc.consults.resize(kConsults);
  for (Consult& c : sc.consults) {
    c.spare.resize(kProxies);
    for (std::size_t i = 0; i < kProxies; ++i) c.spare[i] = base[i] * rng.uniform(0.2, 1.0);
    c.origin = rng.uniform_u32(kProxies);
    c.overflow = rng.uniform(0.5, 6.0);
  }
  return sc;
}

alloc::AllocatorOptions engine_opts(bool reuse) {
  alloc::AllocatorOptions opts;
  opts.reuse_context = reuse;
  return opts;
}

/// One consult against a live allocator; returns the plan. Mirrors
/// SchedulerBridge::plan's LP branch (partial redirection clamp included).
alloc::AllocationPlan consult(const alloc::Allocator& al, const Consult& c) {
  const double reachable = al.available_to(c.origin);
  const double x = std::min(c.overflow, reachable * (1.0 - 1e-9));
  return al.allocate(c.origin, std::max(0.0, x));
}

void run_sequence(benchmark::State& state, bool reuse) {
  const Scenario sc = make_scenario();
  alloc::Allocator al(sc.sys, engine_opts(reuse));
  std::uint64_t lp_iters = 0;
  std::uint64_t solves = 0;
  std::size_t step = 0;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Consult& c = sc.consults[step++ % sc.consults.size()];
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = consult(al, c);
    benchmark::DoNotOptimize(plan.theta);
    lp_iters += plan.lp_iterations;
    ++solves;
  }
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);
  const double per = solves ? 1.0 / static_cast<double>(solves) : 0.0;
  state.counters["lp_iters_per_solve"] = static_cast<double>(lp_iters) * per;
  state.counters["allocs_per_solve"] = static_cast<double>(allocs_after - allocs_before) * per;
}

void BM_ColdAllocate(benchmark::State& state) { run_sequence(state, /*reuse=*/false); }
BENCHMARK(BM_ColdAllocate);

void BM_WarmAllocate(benchmark::State& state) { run_sequence(state, /*reuse=*/true); }
BENCHMARK(BM_WarmAllocate);

/// Lockstep cold-vs-warm pass over the whole consult sequence; prints the
/// WARMSTART summary line and returns false on a theta mismatch.
bool verify_and_summarize() {
  const Scenario sc = make_scenario();
  alloc::Allocator cold(sc.sys, engine_opts(false));
  alloc::Allocator warm(sc.sys, engine_opts(true));
  std::uint64_t cold_iters = 0, warm_iters = 0;
  double theta_max_diff = 0.0;
  bool status_match = true;
  for (const Consult& c : sc.consults) {
    cold.set_capacities(std::span<const double>(c.spare));
    warm.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan pc = consult(cold, c);
    const alloc::AllocationPlan pw = consult(warm, c);
    cold_iters += pc.lp_iterations;
    warm_iters += pw.lp_iterations;
    if (pc.status != pw.status) status_match = false;
    if (pc.satisfied() && pw.satisfied())
      theta_max_diff = std::max(theta_max_diff, std::fabs(pc.theta - pw.theta));
  }
  const double ratio = warm_iters ? static_cast<double>(cold_iters) / static_cast<double>(warm_iters)
                                  : static_cast<double>(cold_iters);
  std::printf("WARMSTART theta_max_diff=%.3e cold_iters=%llu warm_iters=%llu iter_ratio=%.2f\n",
              theta_max_diff, static_cast<unsigned long long>(cold_iters),
              static_cast<unsigned long long>(warm_iters), ratio);
  return status_match && theta_max_diff <= 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  if (!verify_and_summarize()) {
    std::fprintf(stderr, "FATAL: warm-started plans diverge from cold plans\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
