// micro_certify -- the price of certification at the LP level: the same
// Figure-13-like warm consult sequence as micro_warmstart, each consult's
// compact model (alloc::AllocationModelCache, patched for the request)
// solved warm by a bare lp::solve (off) and by the certified solve chain,
// lp::SolvePipeline (on: every answer re-verified against the problem, the
// staged fallback chain armed). An Allocator always certifies, so the off
// arm exists only here. Both arms patch and solve their own copy of the
// same model from the same precomputed availability reports, so the
// overhead is the chain's and the Verifier's alone: refreshing availability
// and assembling the plan sit outside both arms.
//
// main() first runs the sequence through a default alloc::Allocator and
// checks that every grant it issues is certified and that certificates were
// issued at all, then runs the A/B timing pass (best per chunk over the
// reps, so model build and warmup are excluded) and prints one line
//
//   CERTIFY overhead_pct=... certified_solves=... fallbacks=... uncertified_grants=...
//
// consumed by tools/bench.sh into BENCH_lp.json. uncertified_grants must be
// zero by construction: a satisfied plan without a certificate is the
// failure mode certification exists to eliminate.
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
#include "alloc/model_cache.h"
#include "fig_common.h"
#include "lp/solve.h"
#include "lp/solve_pipeline.h"
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

double request(const alloc::Allocator& al, const Consult& c) {
  const double reachable = al.available_to(c.origin);
  return std::max(0.0, std::min(c.overflow, reachable * (1.0 - 1e-9)));
}

/// Each consult's availability report and clamped request, precomputed so
/// the timed arms only patch and solve.
struct Prepared {
  std::vector<agree::CapacityReport> reports;
  std::vector<double> amounts;
};

Prepared prepare(const Scenario& sc) {
  Prepared prep;
  alloc::Allocator al(sc.sys);
  for (const Consult& c : sc.consults) {
    al.set_capacities(std::span<const double>(c.spare));
    prep.reports.push_back(al.capacities());
    prep.amounts.push_back(request(al, c));
  }
  return prep;
}

/// One arm of the A/B: its own model of the scenario's (single-component)
/// system, solved warm consult after consult.
struct Arm {
  bool certified = false;
  alloc::AllocationModelCache model;
  lp::SolvePipeline pipeline;

  Arm(const Scenario& sc, const Prepared& prep, bool on) : certified(on) {
    model.build(sc.sys, prep.reports.front());
  }

  void consult(const Scenario& sc, const Prepared& prep, std::size_t i) {
    model.patch(prep.reports[i], sc.consults[i].origin, prep.amounts[i]);
    if (certified) {
      const lp::PipelineResult r = pipeline.solve(model.problem(), &model.workspace());
      benchmark::DoNotOptimize(r.result.objective);
    } else {
      const lp::SolveResult r = lp::solve(model.problem(), {}, &model.workspace());
      benchmark::DoNotOptimize(r.objective);
    }
  }
};

struct SequenceOutcome {
  std::uint64_t certified = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t uncertified_grants = 0;
  std::uint64_t satisfied = 0;
};

/// The gate pass: the consult sequence through a default Allocator,
/// recording the certification outcome of every plan.
SequenceOutcome gate_pass(const Scenario& sc) {
  SequenceOutcome out;
  alloc::Allocator al(sc.sys);
  for (const Consult& c : sc.consults) {
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = al.allocate(c.origin, request(al, c));
    if (plan.certified) ++out.certified;
    out.fallbacks += plan.solver_fallbacks;
    if (plan.satisfied()) {
      ++out.satisfied;
      if (!plan.certified) ++out.uncertified_grants;
    }
  }
  return out;
}

/// Time `count` consecutive consults starting at `begin`.
double timed_chunk(Arm& arm, const Scenario& sc, const Prepared& prep, std::size_t begin,
                   std::size_t count) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = begin; i < begin + count; ++i) arm.consult(sc, prep, i);
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
void run_ab(const Scenario& sc, double& off_seconds, double& on_seconds) {
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kChunks = kConsults / kChunk;
  static_assert(kConsults % kChunk == 0);
  const Prepared prep = prepare(sc);
  Arm off(sc, prep, /*on=*/false);
  Arm on(sc, prep, /*on=*/true);
  timed_chunk(off, sc, prep, 0, kConsults);
  timed_chunk(on, sc, prep, 0, kConsults);
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
        t_off = timed_chunk(off, sc, prep, begin, kChunk);
        t_on = timed_chunk(on, sc, prep, begin, kChunk);
      } else {
        t_on = timed_chunk(on, sc, prep, begin, kChunk);
        t_off = timed_chunk(off, sc, prep, begin, kChunk);
      }
      best_off[ci] = std::min(best_off[ci], t_off);
      best_on[ci] = std::min(best_on[ci], t_on);
    }
  }
  off_seconds = 0.0;
  on_seconds = 0.0;
  for (std::size_t ci = 0; ci < kChunks; ++ci) {
    off_seconds += best_off[ci];
    on_seconds += best_on[ci];
  }
}

void bench_sequence(benchmark::State& state, bool certify) {
  const Scenario sc = make_scenario();
  const Prepared prep = prepare(sc);
  Arm arm(sc, prep, certify);
  std::size_t step = 0;
  for (auto _ : state) arm.consult(sc, prep, step++ % sc.consults.size());
}

void BM_UncertifiedConsult(benchmark::State& state) { bench_sequence(state, false); }
BENCHMARK(BM_UncertifiedConsult);

void BM_CertifiedConsult(benchmark::State& state) { bench_sequence(state, true); }
BENCHMARK(BM_CertifiedConsult);

bool verify_and_summarize() {
  const Scenario sc = make_scenario();
  const SequenceOutcome on = gate_pass(sc);
  double off_seconds = 0.0, on_seconds = 0.0;
  run_ab(sc, off_seconds, on_seconds);
  const double overhead_pct = off_seconds > 0.0 ? (on_seconds / off_seconds - 1.0) * 100.0 : 0.0;
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
