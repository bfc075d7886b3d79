#include "report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "agree/transitive.h"
#include "engine/engine.h"
#include "lp/solve_pipeline.h"
#include "measure.h"
#include "spans.h"
#include "util/error.h"

namespace agora::perf {

double Params::num(const std::string& key) const {
  const auto it = kv_.find(key);
  AGORA_REQUIRE(it != kv_.end(), "missing workload parameter: " + key);
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  AGORA_REQUIRE(end != it->second.c_str() && *end == '\0',
                "workload parameter is not a number: " + key);
  return v;
}

std::size_t Params::count(const std::string& key) const {
  const double v = num(key);
  AGORA_REQUIRE(v >= 0.0 && v == static_cast<double>(static_cast<std::size_t>(v)),
                "workload parameter is not a count: " + key);
  return static_cast<std::size_t>(v);
}

void WorkloadResult::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({name, ok, detail});
  if (!ok) ++failed;
}

bool WorkloadResult::correct() const {
  for (const Check& c : checks)
    if (!c.ok) return false;
  return true;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s:\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_json_group(const char* key, const std::vector<Metric>& ms) {
  std::printf(",\"%s\":{", key);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "", ms[i].name.c_str(),
                ms[i].value, ms[i].unit.c_str());
  std::printf("}");
}

}  // namespace

void print_result(const RunOptions& opts, const WorkloadResult& r) {
  std::printf("== workload %s  seed %llu  seconds %g  trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  print_table("end-to-end", r.end_to_end);
  print_table("workload figures", r.named);
  print_table("per-layer (traced run)", r.per_layer);
  std::printf("checks:\n");
  for (const Check& c : r.checks)
    std::printf("  [%s] %s%s%s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu", r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_json_group("end_to_end", r.end_to_end);
  print_json_group("named", r.named);
  print_json_group("per_layer", r.per_layer);
  std::printf(",\"checks\":[");
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    std::printf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}", i ? "," : "",
                escape(r.checks[i].name).c_str(), r.checks[i].ok ? "true" : "false",
                escape(r.checks[i].detail).c_str());
  std::printf("]}\n");
  std::fflush(stdout);
}

double hist_quantile(obs::MetricsRegistry& reg, const std::string& name, double q) {
  return reg.histogram(name).quantile(q);
}
double hist_sum(obs::MetricsRegistry& reg, const std::string& name) {
  return reg.histogram(name).sum();
}
std::uint64_t hist_count(obs::MetricsRegistry& reg, const std::string& name) {
  return reg.histogram(name).count();
}
std::uint64_t counter_value(obs::MetricsRegistry& reg, const std::string& name) {
  return reg.counter(name).value();
}

RegistryView read_registry(obs::MetricsRegistry& reg) {
  RegistryView v;
  v.alloc_plans = hist_count(reg, "alloc.plan.seconds");
  v.alloc_s = hist_sum(reg, "alloc.plan.seconds");
  v.alloc_p50_us = 1e6 * hist_quantile(reg, "alloc.plan.seconds", 0.5);
  v.lp_s = hist_sum(reg, "lp.pipeline.solve.seconds");
  v.lp_p50_us = 1e6 * hist_quantile(reg, "lp.pipeline.solve.seconds", 0.5);
  const std::uint64_t solves = counter_value(reg, "lp.pipeline.solves");
  v.pivots_per_solve = hist_sum(reg, "lp.pipeline.iterations") /
                       static_cast<double>(std::max<std::uint64_t>(solves, 1));
  return v;
}

void layer_registry(WorkloadResult& r, const RegistryView& v, std::uint64_t fastpath_granted) {
  r.layer("alloc.plan_p50_us", v.alloc_p50_us, "us");
  r.layer("alloc.fastpath_share",
          static_cast<double>(fastpath_granted) /
              static_cast<double>(std::max<std::uint64_t>(v.alloc_plans, 1)),
          "ratio");
  r.layer("lp.solve_p50_us", v.lp_p50_us, "us");
  r.layer("lp.pivots_per_consult", v.pivots_per_solve, "count");
}

std::uint64_t solver_fallbacks(const lp::PipelineStats& s) {
  std::uint64_t attempts = 0;
  for (int stage = 0; stage < lp::kPipelineStages; ++stage) attempts += s.attempts[stage];
  return attempts - s.solves;
}

void check_solve_chain(WorkloadResult& r, const lp::PipelineStats& s) {
  r.check("solve chain never exhausted", s.exhausted == 0,
          std::to_string(s.exhausted) + " exhausted");
  if (const std::uint64_t f = solver_fallbacks(s); f > 0)
    r.notes.push_back("solver fallbacks: " + std::to_string(f));
}

void layer_solver(WorkloadResult& r, const lp::PipelineStats& before,
                  const lp::PipelineStats& after) {
  r.layer("lp.bland_pivots",
          static_cast<double>(after.solver.bland_pivots - before.solver.bland_pivots), "count");
  r.layer("lp.fallbacks",
          static_cast<double>(solver_fallbacks(after) - solver_fallbacks(before)), "count");
  r.layer("lp.exhausted", static_cast<double>(after.exhausted - before.exhausted), "count");
}

void layer_transitive(WorkloadResult& r, const Matrix& shares,
                      const agree::TransitiveOptions& transitive) {
  std::vector<double> ms;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    (void)agree::transitive_shares(shares, transitive);
    ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  r.layer("agree.transitive_ms", median(ms), "ms");
}

void layer_spans(WorkloadResult& r, const Tracer& tracer, const std::string& path) {
  r.layer("trace.spans", static_cast<double>(tracer.span_count()), "count");
  for (const auto& [name, t] : tracer.self_times()) {
    char line[200];
    std::snprintf(line, sizeof line, "span %-22s n=%llu self %.1f us/span", name.c_str(),
                  static_cast<unsigned long long>(t.spans),
                  t.self_us / static_cast<double>(t.spans));
    r.notes.push_back(line);
  }
  if (!path.empty() && !tracer.write_jsonl(path))
    r.notes.push_back("could not write spans to " + path);
}

EngineDelta engine_delta(const engine::EngineStats& before, const engine::EngineStats& after) {
  EngineDelta d;
  const engine::PlanCacheStats& a = after.plan_cache;
  const engine::PlanCacheStats& b = before.plan_cache;
  const double lookups = static_cast<double>((a.hits + a.neg_hits + a.misses + a.stale) -
                                             (b.hits + b.neg_hits + b.misses + b.stale));
  const double served = static_cast<double>((a.hits + a.neg_hits - a.certify_rejects) -
                                            (b.hits + b.neg_hits - b.certify_rejects));
  if (lookups > 0) {
    d.hit_rate = served / lookups;
    d.stale_rate = static_cast<double>(a.stale - b.stale) / lookups;
  }
  std::uint64_t batches = 0, coalesced = 0;
  for (std::size_t s = 0; s < after.shard.size() && s < before.shard.size(); ++s) {
    batches += after.shard[s].batches - before.shard[s].batches;
    coalesced += after.shard[s].coalesced_ops - before.shard[s].coalesced_ops;
  }
  if (batches + coalesced > 0)
    d.coalesced_share = static_cast<double>(coalesced) / static_cast<double>(batches + coalesced);
  d.epochs = after.epoch - before.epoch;
  return d;
}

void attribute_consult_path(WorkloadResult& r, double consult_mean_us, std::uint64_t consults,
                            double alloc_seconds, double lp_seconds, double net_us) {
  const double n = consults > 0 ? static_cast<double>(consults) : 1.0;
  const double lp_us = 1e6 * lp_seconds / n;
  const double alloc_us = 1e6 * alloc_seconds / n - lp_us;
  const double rest = consult_mean_us - net_us - alloc_us - lp_us;
  r.layer("consult.mean_us", consult_mean_us, "us");
  r.layer("consult.self.net_us", net_us, "us");
  r.layer("consult.self.alloc_us", alloc_us, "us");
  r.layer("consult.self.lp_us", lp_us, "us");
  r.layer("consult.unattributed_us", rest, "us");
  char line[256];
  std::snprintf(line, sizeof line,
                "consult path (mean %.1f us): net %.1f + alloc %.1f + lp %.1f + "
                "unattributed %.1f us",
                consult_mean_us, net_us, alloc_us, lp_us, rest);
  r.notes.push_back(line);
}

}  // namespace agora::perf
