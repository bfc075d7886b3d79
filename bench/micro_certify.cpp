// micro_certify -- the acceptance measurement for certified enforcement:
// the same Figure-13-like warm consult sequence as micro_warmstart, run with
// solution certification off (the historical trust-the-solver behavior) vs
// on (every LP answer re-verified against the original problem, staged
// fallback chain armed). The PR's acceptance bound is that certification
// plus residual-triggered refactorization costs <= 10% on this sequence.
//
// main() runs an A/B timing pass (best-of-R over the full sequence, so
// allocator construction and cache warmup are excluded) and prints one line
//
//   CERTIFY overhead_pct=... certified_solves=... fallbacks=... uncertified_grants=...
//
// consumed by tools/bench.sh into BENCH_lp.json. uncertified_grants must be
// zero by construction: a satisfied plan without a certificate is the
// failure mode this PR exists to eliminate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "fig_common.h"
#include "util/rng.h"

namespace {

using namespace agora;

constexpr std::size_t kProxies = 10;
constexpr std::size_t kConsults = 256;
constexpr int kReps = 30;

struct Consult {
  std::vector<double> spare;
  std::size_t origin = 0;
  double overflow = 0.0;
};

struct Scenario {
  agree::AgreementSystem sys;
  std::vector<Consult> consults;
};

/// Identical scenario generator to micro_warmstart (same seed, same shape)
/// so the two benchmarks measure the same consult stream.
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

alloc::AllocatorOptions engine_opts(bool certify) {
  alloc::AllocatorOptions opts;
  opts.reuse_context = true;  // the warm path is where overhead would hide
  opts.certify = certify;
  return opts;
}

alloc::AllocationPlan consult(const alloc::Allocator& al, const Consult& c) {
  const double reachable = al.available_to(c.origin);
  const double x = std::min(c.overflow, reachable * (1.0 - 1e-9));
  return al.allocate(c.origin, std::max(0.0, x));
}

struct SequenceOutcome {
  double best_seconds = 0.0;
  std::uint64_t certified = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t uncertified_grants = 0;
  std::uint64_t satisfied = 0;
};

/// One untimed pass over the full consult sequence against a persistent
/// allocator. `check`, when given, records the certification outcome of
/// every plan.
void outcome_pass(alloc::Allocator& al, const Scenario& sc, bool certify,
                  SequenceOutcome* check) {
  for (const Consult& c : sc.consults) {
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = consult(al, c);
    benchmark::DoNotOptimize(plan.theta);
    if (check) {
      if (plan.certified) ++check->certified;
      check->fallbacks += plan.solver_fallbacks;
      if (plan.satisfied()) {
        ++check->satisfied;
        if (certify && !plan.certified) ++check->uncertified_grants;
      }
    }
  }
}

/// Time `kChunk` consecutive consults starting at `begin`.
double timed_chunk(alloc::Allocator& al, const Scenario& sc, std::size_t begin,
                   std::size_t count) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = begin; i < begin + count; ++i) {
    const Consult& c = sc.consults[i];
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = consult(al, c);
    benchmark::DoNotOptimize(plan.theta);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// A/B-time the sequence with certification off vs on. This host's clock
/// frequency wanders by up to ~20% on a sub-second scale, so any layout
/// that runs one arm's work long before the other's (all off-passes then
/// all on-passes, or even whole-sequence passes back to back) measures the
/// drift, not the certification -- to the point of sometimes reporting
/// negative overhead. Instead each rep walks the consult sequence in small
/// chunks, timing the off arm and the on arm on the *same* chunk back to
/// back, so both arms see the same frequency environment to within ~100 us.
/// Best-of-kReps per arm; the first (untimed) passes pay model build and
/// warmup for both.
void run_ab(const Scenario& sc, SequenceOutcome& off, SequenceOutcome& on) {
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kChunks = kConsults / kChunk;
  static_assert(kConsults % kChunk == 0);
  alloc::Allocator al_off(sc.sys, engine_opts(false));
  alloc::Allocator al_on(sc.sys, engine_opts(true));
  outcome_pass(al_off, sc, false, nullptr);
  outcome_pass(al_on, sc, true, &on);
  // Per-chunk minima across reps: drift is slow relative to one off/on
  // chunk pair, so the pair is an apples-to-apples sample, and taking the
  // minimum per chunk *position* (rather than per whole rep) discards
  // transient slowdowns independently for every position. Arm order within
  // a pair alternates per rep to cancel any warmer-second-arm bias.
  double best_off[kChunks], best_on[kChunks];
  std::fill(best_off, best_off + kChunks, std::numeric_limits<double>::infinity());
  std::fill(best_on, best_on + kChunks, std::numeric_limits<double>::infinity());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t ci = 0; ci < kChunks; ++ci) {
      const std::size_t begin = ci * kChunk;
      double t_off, t_on;
      if (rep % 2 == 0) {
        t_off = timed_chunk(al_off, sc, begin, kChunk);
        t_on = timed_chunk(al_on, sc, begin, kChunk);
      } else {
        t_on = timed_chunk(al_on, sc, begin, kChunk);
        t_off = timed_chunk(al_off, sc, begin, kChunk);
      }
      best_off[ci] = std::min(best_off[ci], t_off);
      best_on[ci] = std::min(best_on[ci], t_on);
    }
  }
  off.best_seconds = 0.0;
  on.best_seconds = 0.0;
  for (std::size_t ci = 0; ci < kChunks; ++ci) {
    off.best_seconds += best_off[ci];
    on.best_seconds += best_on[ci];
  }
}

void bench_sequence(benchmark::State& state, bool certify) {
  const Scenario sc = make_scenario();
  alloc::Allocator al(sc.sys, engine_opts(certify));
  std::size_t step = 0;
  for (auto _ : state) {
    const Consult& c = sc.consults[step++ % sc.consults.size()];
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = consult(al, c);
    benchmark::DoNotOptimize(plan.theta);
  }
}

void BM_UncertifiedConsult(benchmark::State& state) { bench_sequence(state, false); }
BENCHMARK(BM_UncertifiedConsult);

void BM_CertifiedConsult(benchmark::State& state) { bench_sequence(state, true); }
BENCHMARK(BM_CertifiedConsult);

bool verify_and_summarize() {
  const Scenario sc = make_scenario();
  SequenceOutcome off, on;
  run_ab(sc, off, on);
  const double overhead_pct =
      off.best_seconds > 0.0 ? (on.best_seconds / off.best_seconds - 1.0) * 100.0 : 0.0;
  std::printf(
      "CERTIFY overhead_pct=%.2f certified_solves=%llu fallbacks=%llu uncertified_grants=%llu\n",
      overhead_pct, static_cast<unsigned long long>(on.certified),
      static_cast<unsigned long long>(on.fallbacks),
      static_cast<unsigned long long>(on.uncertified_grants));
  if (on.uncertified_grants != 0) {
    std::fprintf(stderr, "FATAL: %llu satisfied plans carried no certificate\n",
                 static_cast<unsigned long long>(on.uncertified_grants));
    return false;
  }
  if (on.satisfied > 0 && on.certified == 0) {
    std::fprintf(stderr, "FATAL: certification produced zero certificates\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!verify_and_summarize()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
