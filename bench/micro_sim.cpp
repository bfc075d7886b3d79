// Ablation: end-to-end simulator throughput (requests simulated per second
// of wall clock) vs proxy count and scheduler kind, and the cost of
// generating one proxy's day-long trace.
#include <benchmark/benchmark.h>

#include "agree/topology.h"
#include "proxysim/simulator.h"
#include "trace/generator.h"

namespace {

using namespace agora;

std::vector<std::vector<trace::TraceRequest>> make_traces(std::size_t proxies) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 8.0;
  trace::Generator gen(gc, trace::DiurnalProfile::flat(1.0, 1800.0, 3));
  std::vector<std::vector<trace::TraceRequest>> traces;
  for (std::size_t p = 0; p < proxies; ++p) traces.push_back(gen.generate(p + 1));
  return traces;
}

void run_case(benchmark::State& state, proxysim::SchedulerKind kind) {
  const std::size_t proxies = static_cast<std::size_t>(state.range(0));
  const auto traces = make_traces(proxies);
  std::uint64_t requests = 0;
  for (const auto& t : traces) requests += t.size();

  proxysim::SimConfig cfg;
  cfg.num_proxies = proxies;
  cfg.horizon = 1800.0;
  cfg.slot_width = 600.0;
  cfg.scheduler = kind;
  if (kind != proxysim::SchedulerKind::None)
    cfg.agreements = agree::complete_graph(proxies, 0.8 / static_cast<double>(proxies));
  // Exact simple-path closure is factorial on complete graphs; prune
  // negligible products so the 20-proxy case stays tractable.
  cfg.alloc_opts.transitive.prune_below = 1e-8;

  for (auto _ : state) {
    proxysim::Simulator sim(cfg);
    const proxysim::SimMetrics m = sim.run(traces);
    benchmark::DoNotOptimize(m.mean_wait());
  }
  state.counters["requests/s"] = benchmark::Counter(
      static_cast<double>(requests) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SimNoSharing(benchmark::State& state) {
  run_case(state, proxysim::SchedulerKind::None);
}
void BM_SimLp(benchmark::State& state) { run_case(state, proxysim::SchedulerKind::Lp); }
void BM_SimEndpoint(benchmark::State& state) {
  run_case(state, proxysim::SchedulerKind::Endpoint);
}
BENCHMARK(BM_SimNoSharing)->Arg(2)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimLp)->Arg(2)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimEndpoint)->Arg(2)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

// Trace generation alone: one proxy's trace of the Figure 9 day (24 h
// Berkeley-like profile, peak 9.5 requests/s, shifted by one hour), the
// unit of work that perfbench's proxy_day set-up repeats ten times a day.
void BM_TraceGenerateDay(benchmark::State& state) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 9.5;
  const trace::Generator gen(gc, trace::DiurnalProfile::berkeley_like());
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t requests = 0;
  for (auto _ : state) {
    const std::vector<trace::TraceRequest> t = gen.generate(seed, 3600.0);
    benchmark::DoNotOptimize(t.data());
    requests += t.size();
  }
  state.counters["requests/s"] =
      benchmark::Counter(static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGenerateDay)->Arg(101)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
