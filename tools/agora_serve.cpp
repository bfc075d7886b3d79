// agora_serve -- the wire boundary on loopback: serve an enforcement engine
// over the framed RPC protocol (DESIGN.md §14), or drive one as a client.
//
// Server mode (default): builds a complete-graph island economy, fronts a
// sharded EnforcementEngine with net::AgoraService, and runs until SIGTERM/
// SIGINT triggers a graceful drain (stop accepting, GoAway, flush, resolve
// every in-flight request with a definite status). Prints a stats summary
// on exit; --metrics-out snapshots the obs registry.
//
//   agora_serve --port=7411 --participants=16 --threads=4 --plan-cache=1
//
// Client mode (--connect=host:port[,host:port...]): N worker threads, each
// with its own failover-aware net::Client, fire seeded random consults and
// report grant/deny/shed counts plus latency quantiles.
//
//   agora_serve --connect=127.0.0.1:7411 --requests=1000 --concurrency=4
#include <csignal>
#include <cstdio>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "agree/topology.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/service.h"
#include "obs/export.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace agora;

namespace {

// SIGTERM/SIGINT -> request_drain: one relaxed atomic store through a
// pointer published before the handlers are installed (async-signal-safe).
net::AgoraService* g_service = nullptr;
std::atomic<int> g_signal{0};

void on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  if (g_service != nullptr) g_service->request_drain();
}

std::vector<net::Endpoint> parse_endpoints(Flags& flags, const std::string& spec) {
  std::vector<net::Endpoint> eps;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string one =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    const std::size_t colon = one.rfind(':');
    if (colon == std::string::npos || colon + 1 >= one.size())
      flags.usage_error("--connect endpoint needs host:port, got: " + one);
    char* end = nullptr;
    const long port = std::strtol(one.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || port < 1 || port > 65535)
      flags.usage_error("--connect has a bad port in: " + one);
    eps.push_back(net::Endpoint{one.substr(0, colon), static_cast<std::uint16_t>(port)});
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return eps;
}

int run_server(Flags& flags) {
  // Counts and the port are range-checked while still signed: a negative
  // value cast to an unsigned type would wrap past the check.
  if (flags.get_int("participants") < 1) flags.usage_error("--participants must be >= 1");
  const std::int64_t port = flags.get_int("port");
  if (port < 0 || port > 65535) flags.usage_error("--port must be in [0, 65535]");
  if (flags.get_int("max-queue") < 1) flags.usage_error("--max-queue must be >= 1");
  if (flags.get_int("max-inflight") < 1) flags.usage_error("--max-inflight must be >= 1");
  if (flags.get_int("min-deadline-us") < 0) flags.usage_error("--min-deadline-us must be >= 0");
  if (flags.get_int("threads") < 0) flags.usage_error("--threads must be >= 0");
  const auto participants = static_cast<std::size_t>(flags.get_int("participants"));
  const double share = flags.get_double("share");
  const double capacity = flags.get_double("capacity");
  if (capacity <= 0.0) flags.usage_error("--capacity must be > 0");
  if (participants > 1 && share * static_cast<double>(participants - 1) > 1.0)
    flags.usage_error("--share too large: share * (participants - 1) must be <= 1");

  net::ServiceOptions sopts;
  sopts.port = static_cast<std::uint16_t>(port);
  sopts.max_queue = static_cast<std::size_t>(flags.get_int("max-queue"));
  sopts.max_inflight = static_cast<std::size_t>(flags.get_int("max-inflight"));
  sopts.min_deadline_us = static_cast<std::uint64_t>(flags.get_int("min-deadline-us"));
  sopts.drain_grace_ms = static_cast<int>(flags.get_int("drain-grace-ms"));

  agree::AgreementSystem sys(participants);
  sys.relative = agree::complete_graph(participants, share);
  for (std::size_t i = 0; i < participants; ++i)
    sys.capacity[i] = capacity + static_cast<double>(i % 4);

  engine::EngineOptions eopts;
  eopts.threads = static_cast<std::size_t>(flags.get_int("threads"));
  eopts.plan_cache = flags.get_int("plan-cache") != 0;
  // The demo economy is a complete graph, where the exact simple-path
  // transitive closure is factorial in n. Chains through several small
  // relative shares carry negligible capacity, so prune them instead of
  // capping --participants at the exact-DFS budget (~11 for dense graphs).
  eopts.alloc.transitive.prune_below = 1e-6;
  engine::EnforcementEngine engine(sys, eopts);

  net::AgoraService service(engine, sopts);
  const Status st = service.start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  g_service = &service;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf("agora_serve: %zu participants, %zu engine threads%s\n", participants,
              eopts.threads, eopts.plan_cache ? ", plan cache on" : "");
  std::printf("listening on 127.0.0.1:%u (SIGTERM drains)\n",
              static_cast<unsigned>(service.port()));
  std::fflush(stdout);

  while (service.running())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.stop();
  g_service = nullptr;

  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) std::printf("signal %d: drained\n", sig);
  const net::ServiceStats s = service.stats();
  std::printf(
      "conns accepted %llu rejected %llu | frames rx/tx %llu/%llu | "
      "consults %llu answered %llu\n"
      "shed queue/drain/deadline %llu/%llu/%llu | late drops %llu | malformed %llu | "
      "peak queue/inflight %llu/%llu\n",
      static_cast<unsigned long long>(s.accepted), static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.frames_rx), static_cast<unsigned long long>(s.frames_tx),
      static_cast<unsigned long long>(s.consults), static_cast<unsigned long long>(s.answered),
      static_cast<unsigned long long>(s.shed_queue), static_cast<unsigned long long>(s.shed_drain),
      static_cast<unsigned long long>(s.shed_deadline),
      static_cast<unsigned long long>(s.late_drop), static_cast<unsigned long long>(s.malformed),
      static_cast<unsigned long long>(s.peak_queue),
      static_cast<unsigned long long>(s.peak_inflight));

  const std::string metrics_out = flags.get("metrics-out");
  if (!metrics_out.empty()) {
    obs::write_snapshot(metrics_out, obs::Sink::global(), {});
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

int run_client(Flags& flags) {
  const std::vector<net::Endpoint> endpoints = parse_endpoints(flags, flags.get("connect"));
  if (flags.get_int("requests") < 0) flags.usage_error("--requests must be >= 0");
  if (flags.get_int("concurrency") < 1) flags.usage_error("--concurrency must be >= 1");
  if (flags.get_int("deadline-ms") < 1) flags.usage_error("--deadline-ms must be >= 1");
  const auto requests = static_cast<std::uint64_t>(flags.get_int("requests"));
  const auto concurrency = static_cast<std::size_t>(flags.get_int("concurrency"));
  const int deadline_ms = static_cast<int>(flags.get_int("deadline-ms"));
  const double amount_max = flags.get_double("amount-max");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (amount_max <= 0.0) flags.usage_error("--amount-max must be > 0");

  // One probe to learn the participant count (and fail fast if nobody
  // listens).
  std::uint32_t participants = 0;
  {
    net::ClientOptions copt;
    copt.endpoints = endpoints;
    net::Client probe(copt);
    net::InfoReply info;
    const Status st = probe.info(info, deadline_ms);
    if (!st.ok()) {
      std::fprintf(stderr, "error: cannot reach service: %s\n", st.to_string().c_str());
      return 1;
    }
    participants = info.participants;
  }
  if (participants == 0) {
    std::fprintf(stderr, "error: service reports zero participants\n");
    return 1;
  }

  struct WorkerResult {
    std::uint64_t granted = 0, denied = 0, insufficient = 0, unavailable = 0;
    std::uint64_t deadline = 0, other = 0, uncertified = 0;
    std::uint64_t retries = 0, failovers = 0;
    std::vector<double> latencies_s;
  };
  std::vector<WorkerResult> results(concurrency);
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      net::ClientOptions copt;
      copt.endpoints = endpoints;
      copt.seed = seed + w;
      copt.default_deadline_ms = deadline_ms;
      net::Client client(copt);
      Pcg32 rng(seed * 1000 + w);
      WorkerResult& r = results[w];
      const std::uint64_t mine = requests / concurrency + (w < requests % concurrency ? 1 : 0);
      r.latencies_s.reserve(mine);
      for (std::uint64_t i = 0; i < mine; ++i) {
        const std::uint32_t who = rng.uniform_u32(participants);
        const double amount = rng.uniform(0.0, amount_max);
        const auto c0 = std::chrono::steady_clock::now();
        const net::ConsultOutcome out = client.consult(who, amount, deadline_ms);
        r.latencies_s.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - c0).count());
        switch (out.status.code()) {
          case StatusCode::Ok:
            ++r.granted;
            if (!out.reply.certified) ++r.uncertified;
            break;
          case StatusCode::Insufficient: ++r.insufficient; break;
          case StatusCode::Denied: ++r.denied; break;
          case StatusCode::Unavailable: ++r.unavailable; break;
          case StatusCode::DeadlineExceeded: ++r.deadline; break;
          default: ++r.other; break;
        }
      }
      r.retries = client.stats().retries;
      r.failovers = client.stats().failovers;
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  WorkerResult total;
  std::vector<double> lat;
  for (const WorkerResult& r : results) {
    total.granted += r.granted;
    total.denied += r.denied;
    total.insufficient += r.insufficient;
    total.unavailable += r.unavailable;
    total.deadline += r.deadline;
    total.other += r.other;
    total.uncertified += r.uncertified;
    total.retries += r.retries;
    total.failovers += r.failovers;
    lat.insert(lat.end(), r.latencies_s.begin(), r.latencies_s.end());
  }
  std::sort(lat.begin(), lat.end());
  const auto q = [&](double p) {
    if (lat.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(p * static_cast<double>(lat.size() - 1));
    return lat[i];
  };
  std::printf(
      "%llu requests in %.2f s (%.0f/s, %zu workers) | granted %llu | insufficient %llu | "
      "denied %llu |\nunavailable %llu | deadline %llu | other %llu | retries %llu | "
      "failovers %llu\n",
      static_cast<unsigned long long>(requests), wall_s,
      wall_s > 0 ? static_cast<double>(requests) / wall_s : 0.0, concurrency,
      static_cast<unsigned long long>(total.granted),
      static_cast<unsigned long long>(total.insufficient),
      static_cast<unsigned long long>(total.denied),
      static_cast<unsigned long long>(total.unavailable),
      static_cast<unsigned long long>(total.deadline),
      static_cast<unsigned long long>(total.other),
      static_cast<unsigned long long>(total.retries),
      static_cast<unsigned long long>(total.failovers));
  std::printf("latency p50/p95/p99 %.3f/%.3f/%.3f ms\n", q(0.50) * 1e3, q(0.95) * 1e3,
              q(0.99) * 1e3);
  if (total.uncertified > 0) {
    std::fprintf(stderr, "error: %llu grants arrived UNCERTIFIED\n",
                 static_cast<unsigned long long>(total.uncertified));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_int("port", "0", "server: TCP port on 127.0.0.1 (0 = ephemeral)");
  flags.define_int("participants", "16", "server: participants in the complete-graph economy");
  flags.define_double("share", "0.05",
                      "server: per-agreement relative share (share * (participants - 1) "
                      "must be <= 1)");
  flags.define_double("capacity", "10", "server: base capacity per participant");
  flags.define_int("threads", "2", "server: enforcement-engine shard threads");
  flags.define_int("plan-cache", "1", "server: 1 = epoch-keyed plan cache in the engine");
  flags.define_int("max-queue", "1024", "server: admission-queue bound (shed beyond)");
  flags.define_int("max-inflight", "128", "server: in-flight dispatch window");
  flags.define_int("min-deadline-us", "0", "server: shed requests arriving with less budget");
  flags.define_int("drain-grace-ms", "5000", "server: drain wait for in-flight answers");
  flags.define("metrics-out", "", "server: write an obs snapshot here on exit");
  flags.define("connect", "",
               "client mode: comma-separated host:port replica endpoints to drive");
  flags.define_int("requests", "100", "client: total consults to issue");
  flags.define_int("concurrency", "1", "client: worker threads (one Client each)");
  flags.define_int("deadline-ms", "1000", "client: per-consult deadline budget");
  flags.define_double("amount-max", "4", "client: amounts drawn uniform from (0, max]");
  flags.define_int("seed", "1", "client: workload RNG seed");

  flags.parse_or_exit(argc, argv,
                      "agora_serve: framed admission RPC service over loopback "
                      "(server by default, client with --connect)");
  try {
    return flags.get("connect").empty() ? run_server(flags) : run_client(flags);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
}
