// report.h -- what a workload run hands back, and how it is printed.
//
// A workload fills a WorkloadResult: operation counts, output checks, and
// three groups of metrics. `end_to_end` holds the metrics every workload
// reports under the same names (BENCHMARK.json's end_to_end list);
// `named` holds this workload's own figures under the names the benchmark's
// README defines; `per_layer` holds the traced run's layer figures. The
// harness prints a human-readable block followed by one JSON line that
// run.py turns into the benchmark's result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace agora {
class Matrix;
}
namespace agora::agree {
struct TransitiveOptions;
}
namespace agora::engine {
struct EngineStats;
}
namespace agora::lp {
struct PipelineStats;
}

namespace agora::perf {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// --param key=value pairs from workloads.json, passed through by run.py.
class Params {
 public:
  void set(const std::string& key, const std::string& value) { kv_[key] = value; }
  /// Throws PreconditionError when the key is missing or not a number.
  double num(const std::string& key) const;
  std::size_t count(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file (JSON lines) for the traced run
  Params params;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Threads the workload started: load generators, and engine workers
  /// plus any service loop. The host block reports them.
  std::size_t generator_threads = 0;
  std::size_t engine_threads = 0;
  std::vector<Check> checks;
  std::vector<Metric> end_to_end;
  std::vector<Metric> named;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void check(const std::string& name, bool ok, const std::string& detail = "");
  bool correct() const;
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void figure(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Print the human-readable block and the final JSON line.
void print_result(const RunOptions& opts, const WorkloadResult& r);

/// Registry helpers: a histogram's quantile / sum / count (0 when absent).
double hist_quantile(obs::MetricsRegistry& reg, const std::string& name, double q);
double hist_sum(obs::MetricsRegistry& reg, const std::string& name);
std::uint64_t hist_count(obs::MetricsRegistry& reg, const std::string& name);
std::uint64_t counter_value(obs::MetricsRegistry& reg, const std::string& name);

/// The alloc and lp layers as the registry saw them since its last reset.
struct RegistryView {
  std::uint64_t alloc_plans = 0;  ///< alloc::Allocator::allocate calls
  double alloc_s = 0.0;           ///< their summed time
  double alloc_p50_us = 0.0;
  double lp_s = 0.0;              ///< summed certified-solve time
  double lp_p50_us = 0.0;
  double pivots_per_solve = 0.0;
};
RegistryView read_registry(obs::MetricsRegistry& reg);

/// alloc.plan_p50_us, alloc.fastpath_share, lp.solve_p50_us, lp.pivots_per_consult.
void layer_registry(WorkloadResult& r, const RegistryView& v, std::uint64_t fastpath_granted);

/// Solve-chain stages run beyond the first, over every solve.
std::uint64_t solver_fallbacks(const lp::PipelineStats& s);

/// The chain was never exhausted (a check); any fallback becomes a note.
void check_solve_chain(WorkloadResult& r, const lp::PipelineStats& s);

/// lp.bland_pivots, lp.fallbacks, lp.exhausted between two snapshots.
void layer_solver(WorkloadResult& r, const lp::PipelineStats& before,
                  const lp::PipelineStats& after);

/// agree.transitive_ms: median of three closures of the workload's economy.
void layer_transitive(WorkloadResult& r, const Matrix& shares,
                      const agree::TransitiveOptions& transitive);

class Tracer;
/// trace.spans plus one note per span name with its self time; the spans
/// are written to `path` as JSON lines when it is not empty.
void layer_spans(WorkloadResult& r, const Tracer& tracer, const std::string& path);

/// Consult-path attribution for the traced run: the mean consult latency
/// split into the measured layer self times (alloc = alloc::Allocator::
/// allocate minus its LP solve, lp = the certified LP solve, plus the wire
/// when `net_us` is given) and the unattributed remainder inside the engine
/// (queueing, worker hand-off, plan-cache lookups, result mapping), which
/// no layer exports a timer for.
void attribute_consult_path(WorkloadResult& r, double consult_mean_us, std::uint64_t consults,
                            double alloc_seconds, double lp_seconds, double net_us = 0.0);

/// What an engine did between two stats() snapshots.
struct EngineDelta {
  double hit_rate = 0.0;         ///< served plan-cache hits / lookups (certify rejects excluded)
  double stale_rate = 0.0;       ///< stale lookups / lookups
  double coalesced_share = 0.0;  ///< ops that rode in a batch behind another / ops
  std::uint64_t epochs = 0;
};
EngineDelta engine_delta(const engine::EngineStats& before, const engine::EngineStats& after);

WorkloadResult run_admit_churn(const RunOptions& opts);
WorkloadResult run_serve_federated(const RunOptions& opts);
WorkloadResult run_proxy_day(const RunOptions& opts);

}  // namespace agora::perf
