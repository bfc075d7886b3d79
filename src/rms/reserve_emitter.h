// reserve_emitter.h -- sends ReserveCommands to LRMs and, when configured
// with more than one attempt, retries them with (optionally jittered)
// exponential backoff until acknowledged. Factored out of the GRM so the
// single Grm endpoint and every replicated leader (replica/raft.h) share one
// implementation.
//
// Retry timers are self-addressed bus messages; the token space is
// parameterized (first_token/token_stride) so an owner that multiplexes its
// own timers on the same endpoint (a Raft node's election and heartbeat
// timers) can keep the spaces disjoint.
//
// The jitter option decorrelates retry schedules across request streams:
// after a partition heals, a fleet of un-acked reserves would otherwise all
// fire on the same exponential schedule (a synchronized retry storm). The
// draw comes from a seeded PCG stream and is only consulted when jitter > 0,
// so jitter-off traces are bit-identical to the seed.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "rms/bus.h"
#include "rms/messages.h"
#include "util/rng.h"

namespace agora::rms {

struct ReserveEmitterOptions {
  int attempts = 1;          ///< total delivery attempts (1 = fire-and-forget)
  double backoff = 0.25;     ///< initial retry spacing (doubles per attempt)
  double backoff_cap = 2.0;  ///< backoff ceiling
  /// Extra uniform delay as a fraction of each backoff interval (0 = none):
  /// delay = backoff * (1 + jitter * U[0,1)).
  double jitter = 0.0;
  std::uint64_t jitter_seed = 1;
  double send_latency = 0.0;  ///< GRM -> LRM network delay per send
  std::uint64_t first_token = 1;
  std::uint64_t token_stride = 1;
  obs::Sink sink = obs::Sink::global();
};

class ReserveEmitter {
 public:
  ReserveEmitter(MessageBus& bus, ReserveEmitterOptions opts);

  /// Late-bind the owning endpoint and its site -> LRM endpoint table (both
  /// exist only after the owner registered itself on the bus).
  void bind(EndpointId self, const std::vector<EndpointId>* lrm_endpoints);

  /// Send (and with attempts > 1, keep retrying) one reserve command.
  void send(std::uint64_t request_id, std::size_t site, ReserveCommand cmd);
  void on_ack(std::uint64_t request_id, std::size_t site);
  /// Handle a timer tick. Returns false when the token is not one of ours
  /// (the owner should try its other timer consumers).
  bool on_timer(std::uint64_t token);
  /// Forget every pending retry (leadership lost or endpoint restarted);
  /// in-flight timers for them become no-ops.
  void abandon_all();

  std::size_t pending() const { return pending_.size(); }
  std::uint64_t retries() const { return retries_.value(); }
  std::uint64_t failures() const { return failures_.value(); }
  std::uint64_t abandoned() const { return abandoned_; }

 private:
  struct PendingReserve {
    ReserveCommand cmd;
    std::size_t site = 0;
    int attempts = 0;
    double backoff = 0.0;
  };

  double jittered(double delay);

  MessageBus& bus_;
  ReserveEmitterOptions opts_;
  EndpointId self_ = 0;
  const std::vector<EndpointId>* lrm_endpoints_ = nullptr;
  Pcg32 rng_;
  std::unordered_map<std::uint64_t, PendingReserve> pending_;  ///< by timer token
  std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> tokens_;
  std::uint64_t next_token_ = 1;
  /// Each feeds its rms.grm.reserve_* registry counter.
  obs::Tally retries_;
  obs::Tally failures_;
  std::uint64_t abandoned_ = 0;
};

}  // namespace agora::rms
