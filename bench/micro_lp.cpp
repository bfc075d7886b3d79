// Ablation: cold vs warm revised simplex (vs brute force on tiny instances)
// on allocation-shaped LPs of growing size, all through the unified
// lp::solve entry point.
//
// Two fixtures:
//   * figbench::compact_allocation_lp -- the dense complete-graph model the
//     Allocator's compact path solves (shared with micro_warmstart);
//   * figbench::banded_sharing_system -- a banded ring-of-time-zones system
//     whose rows keep O(1) nonzeros as n grows, consulted through
//     alloc::AllocationModelCache exactly like the production allocator --
//     the regime the sparse basis exists for.
//
// Before the google-benchmark registrations run, main() executes the
// LPSCALE sweep on the banded fixture: warm revised consults at n in
// {100, 500, 1000}, plus the cold certified solve chain (lp::SolvePipeline
// with no workspace) at n = 100 as the foil -- every timed
// chain consult starts from the slack basis and is certified, so the ratio
// measures what the warm start buys; a broken warm start reads about 1x.
// One machine-readable line per configuration:
//
//   LPSCALE n=<n> backend=<revised|cold-chain> certified=<0|1>
//     consults_per_s=<r> iterations=<it> basis_nnz=<z> lu_nnz=<z>
//     fill_ratio=<f> refactorizations=<c> max_eta=<e>
//
// tools/bench.sh tees these into bench_results/lpscale_summary.txt and
// tools/bench_lp_json.py folds them into BENCH_lp.json ("scaling" block).
// The sweep doubles as the release gate: main() exits 1 unless every
// configuration solves Optimal AND certifies against the original problem,
// the n = 1000 revised solve certifies end-to-end, and warm revised reaches
// >= 10x the cold chain's consults/s at n = 100.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "agree/capacity.h"
#include "alloc/model_cache.h"
#include "fig_common.h"
#include "lp/certify.h"
#include "lp/solve.h"
#include "lp/solve_pipeline.h"

namespace {

using namespace agora;
using figbench::compact_allocation_lp;

lp::SolveOptions backend_opts(lp::Backend backend) {
  lp::SolveOptions opts;
  opts.backend = backend;
  return opts;
}

/// Minimum warm-revised / cold-chain consults/s ratio at n = 100.
constexpr double kMinSpeedupN100 = 10.0;

// --- LPSCALE sweep ---------------------------------------------------------

struct ScalePoint {
  std::size_t n = 0;
  bool cold_chain = false;
  bool certified = false;
  bool optimal = false;
  double consults_per_s = 0.0;
  lp::SolveResult result;
};

/// Solve + certify the banded fixture once for telemetry, then time consults
/// (the loop the paper's GRM runs) for throughput: warm revised solves
/// against the cached model, or -- `cold_chain` -- the certified chain
/// with no workspace, so every consult solves cold.
ScalePoint run_scale_point(std::size_t n, bool cold_chain) {
  ScalePoint pt;
  pt.n = n;
  pt.cold_chain = cold_chain;
  const agree::AgreementSystem sys = figbench::banded_sharing_system(n);
  const agree::CapacityReport rep = agree::compute_capacities(
      sys, figbench::sparse_bench_alloc_options().transitive);
  alloc::AllocationModelCache cache;
  cache.build(sys, rep);
  cache.patch(rep, /*a=*/0, rep.capacity[0] * 0.5);

  lp::PipelineOptions po;
  po.sink = obs::Sink::none();
  lp::SolvePipeline chain(po);
  const lp::SolveOptions opts = backend_opts(lp::Backend::Revised);
  lp::SolveWorkspace& ws = cache.workspace();
  // One consult: a certified chain answer, or a raw warm revised solve.
  const auto consult = [&]() -> lp::SolveResult {
    if (!cold_chain) return lp::solve(cache.problem(), opts, &ws);
    lp::PipelineResult pr = chain.solve(cache.problem());
    if (!pr.certified()) pt.certified = false;
    return std::move(pr.result);
  };

  pt.result = consult();
  pt.optimal = pt.result.optimal();
  lp::Verifier verifier(opts.tols);
  pt.certified = verifier.certify(cache.problem(), pt.result).certified;

  // Throughput. Each consult is the GRM's per-request pattern verbatim --
  // AllocationModelCache::patch points the model at requester a's
  // entitlements and amount (bounds + rhs motion that
  // repatch_standard_form_rhs absorbs without a rebuild), and the revised
  // solve warm-starts from the previous optimal basis. Rotating the
  // requester makes every consult re-optimize against a genuinely different
  // binding set (~10 pivots at n = 100), the workload the sparse basis
  // exists for. Reps are sized so the n = 1000 configuration finishes in a
  // few seconds.
  const int reps = n >= 1000 ? 20 : (n >= 500 ? 50 : 200);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    const std::size_t a = static_cast<std::size_t>(i) * 17 % n;
    cache.patch(rep, a,
                rep.capacity[a] * (0.05 + 0.95 * static_cast<double>(i % 8) / 8.0));
    const lp::SolveResult r = consult();
    benchmark::DoNotOptimize(r.objective);
    if (!r.optimal()) pt.optimal = false;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  pt.consults_per_s = elapsed.count() > 0.0 ? reps / elapsed.count() : 0.0;
  return pt;
}

void print_scale_point(const ScalePoint& pt) {
  const lp::SolveStats& s = pt.result.stats;
  const double fill = s.basis_nnz > 0
                          ? static_cast<double>(s.lu_nnz) /
                                static_cast<double>(s.basis_nnz)
                          : 0.0;
  std::printf(
      "LPSCALE n=%zu backend=%s certified=%d consults_per_s=%.2f "
      "iterations=%llu basis_nnz=%llu lu_nnz=%llu fill_ratio=%.3f "
      "refactorizations=%llu max_eta=%llu\n",
      pt.n, pt.cold_chain ? "cold-chain" : "revised",
      pt.certified && pt.optimal ? 1 : 0, pt.consults_per_s,
      static_cast<unsigned long long>(pt.result.iterations),
      static_cast<unsigned long long>(s.basis_nnz),
      static_cast<unsigned long long>(s.lu_nnz), fill,
      static_cast<unsigned long long>(s.refactorizations),
      static_cast<unsigned long long>(s.max_eta_count));
}

/// Returns false (gate failure) unless every configuration certifies, the
/// n = 1000 revised solve certifies, and warm revised reaches
/// kMinSpeedupN100 times the cold chain's consults/s at n = 100.
bool run_scaling_sweep() {
  bool ok = true;
  double revised_100 = 0.0;
  double cold_100 = 0.0;
  for (const std::size_t n : {std::size_t{100}, std::size_t{500}, std::size_t{1000}}) {
    const ScalePoint revised = run_scale_point(n, /*cold_chain=*/false);
    print_scale_point(revised);
    if (!revised.certified || !revised.optimal) {
      std::fprintf(stderr, "GATE: revised n=%zu failed to solve+certify\n", n);
      ok = false;
    }
    if (n != 100) continue;
    revised_100 = revised.consults_per_s;
    // The cold chain is the foil; time it at n = 100 only.
    const ScalePoint cold = run_scale_point(n, /*cold_chain=*/true);
    print_scale_point(cold);
    if (!cold.certified || !cold.optimal) {
      std::fprintf(stderr, "GATE: cold chain n=%zu failed to solve+certify\n", n);
      ok = false;
    }
    cold_100 = cold.consults_per_s;
  }
  const double speedup = cold_100 > 0.0 ? revised_100 / cold_100 : 0.0;
  std::printf("LPSCALE revised_vs_cold_chain_n100=%.2f\n", speedup);
  if (speedup < kMinSpeedupN100) {
    std::fprintf(stderr,
                 "GATE: revised/cold-chain consults_per_s at n=100 is %.2fx (< %.0fx)\n",
                 speedup, kMinSpeedupN100);
    ok = false;
  }
  return ok;
}

// --- google-benchmark registrations (small-n ablation) ---------------------

void BM_RevisedSimplex(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts = backend_opts(lp::Backend::Revised);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_RevisedSimplex)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

/// Same solver, but with a persistent workspace: rhs/bounds are unchanged
/// between iterations, so every solve after the first warm-starts from the
/// optimal basis and should price once and pivot zero times.
void BM_RevisedSimplexWarm(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts = backend_opts(lp::Backend::Revised);
  lp::SolveWorkspace ws;
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts, &ws);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_RevisedSimplexWarm)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_BruteForce(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts = backend_opts(lp::Backend::BruteForce);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BruteForce)->Arg(3)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok = run_scaling_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gates_ok ? 0 : 1;
}
