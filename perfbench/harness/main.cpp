// agora_perf -- the benchmark harness run.py drives.
//
//   agora_perf --workload NAME --seed N --seconds S [--trace] [--trace-out FILE]
//              [--param key=value ...]
//
// Prints a host block, the workload's figures and output checks, and a last
// line of JSON that run.py validates and turns into the benchmark result.
// Refuses to measure a build that is not CMAKE_BUILD_TYPE=Release.
#include <sched.h>

#include <cstdio>
#include <exception>
#include <string>

#include "report.h"

#ifndef AGORA_PERF_BUILD_TYPE
#define AGORA_PERF_BUILD_TYPE ""
#endif
#ifndef AGORA_PERF_COMPILER
#define AGORA_PERF_COMPILER "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "agora_perf: %s\nusage: agora_perf --workload NAME --seed N --seconds S "
               "[--trace] [--trace-out FILE] [--param key=value ...]\n",
               why);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agora::perf;
  RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--trace") {
      opts.trace = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (a == "--param" && has_value) {
      const std::string kv = argv[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return usage("--param needs key=value");
      opts.params.set(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      return usage(("unexpected argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  const std::string build_type = AGORA_PERF_BUILD_TYPE;
  const int cpus = online_cpus();
  // The host block; the thread counts are known once the workload has run.
  const auto print_host = [&](const WorkloadResult* r) {
    std::printf("host {\"nproc\":%d,\"build_type\":\"%s\",\"compiler\":\"%s\",\"agora_simd\":%s,"
                "\"agora_obs\":%s",
                cpus, build_type.c_str(), AGORA_PERF_COMPILER, AGORA_PERF_SIMD ? "true" : "false",
                AGORA_PERF_OBS ? "true" : "false");
    if (r) {
      const std::size_t threads = r->generator_threads + r->engine_threads;
      std::printf(",\"generator_threads\":%zu,\"engine_threads\":%zu,\"oversubscribed\":%s",
                  r->generator_threads, r->engine_threads,
                  static_cast<int>(threads) > cpus ? "true" : "false");
    }
    std::printf("}\n");
    if (r && static_cast<int>(r->generator_threads + r->engine_threads) > cpus)
      std::printf("warning: %zu generator + %zu engine threads on %d CPUs\n",
                  r->generator_threads, r->engine_threads, cpus);
  };
  if (build_type != "Release") {
    print_host(nullptr);
    std::fprintf(stderr, "agora_perf: refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "(no build type)" : build_type.c_str());
    return 3;
  }
  try {
    WorkloadResult r;
    if (opts.workload == "admit_churn") {
      r = run_admit_churn(opts);
    } else if (opts.workload == "serve_federated") {
      r = run_serve_federated(opts);
    } else if (opts.workload == "proxy_day") {
      r = run_proxy_day(opts);
    } else {
      return usage(("unknown workload " + opts.workload).c_str());
    }
    print_host(&r);
    print_result(opts, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agora_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
