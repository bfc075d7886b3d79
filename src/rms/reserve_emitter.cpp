#include "rms/reserve_emitter.h"

#include <algorithm>

namespace agora::rms {

ReserveEmitter::ReserveEmitter(MessageBus& bus, ReserveEmitterOptions opts)
    : bus_(bus), opts_(opts), rng_(opts.jitter_seed, 0x5e5e), next_token_(opts.first_token) {
  AGORA_REQUIRE(opts_.attempts >= 1, "need at least one reserve attempt");
  AGORA_REQUIRE(opts_.backoff > 0.0 && opts_.backoff_cap > 0.0,
                "reserve backoff must be positive");
  AGORA_REQUIRE(opts_.jitter >= 0.0, "jitter must be non-negative");
  AGORA_REQUIRE(opts_.token_stride >= 1, "token stride must be positive");
  retries_ = obs::Tally(opts_.sink.counter("rms.grm.reserve_retries"));
  failures_ = obs::Tally(opts_.sink.counter("rms.grm.reserve_failures"));
}

void ReserveEmitter::bind(EndpointId self, const std::vector<EndpointId>* lrm_endpoints) {
  self_ = self;
  lrm_endpoints_ = lrm_endpoints;
}

double ReserveEmitter::jittered(double delay) {
  // The RNG is consulted only when jitter is on, so jitter-off message
  // traces are bit-identical to the pre-jitter protocol.
  if (opts_.jitter <= 0.0) return delay;
  return delay * (1.0 + opts_.jitter * rng_.next_double());
}

void ReserveEmitter::send(std::uint64_t request_id, std::size_t site, ReserveCommand cmd) {
  AGORA_REQUIRE(lrm_endpoints_ != nullptr && site < lrm_endpoints_->size(),
                "reserve for an unknown site");
  if (opts_.attempts > 1) {
    cmd.want_ack = true;
    const std::uint64_t token = next_token_;
    next_token_ += opts_.token_stride;
    pending_[token] = PendingReserve{cmd, site, /*attempts=*/1, opts_.backoff};
    tokens_[{request_id, site}] = token;
    bus_.post(self_, self_, Timer{token}, jittered(opts_.backoff));
  }
  bus_.post(self_, (*lrm_endpoints_)[site], std::move(cmd), opts_.send_latency);
}

void ReserveEmitter::on_ack(std::uint64_t request_id, std::size_t site) {
  const auto it = tokens_.find({request_id, site});
  if (it == tokens_.end()) return;
  pending_.erase(it->second);
  tokens_.erase(it);
}

bool ReserveEmitter::on_timer(std::uint64_t token) {
  const auto it = pending_.find(token);
  if (it == pending_.end()) return false;  // acked/abandoned in the meantime
  PendingReserve& pr = it->second;
  if (pr.attempts >= opts_.attempts) {
    // Give up: the LRM is unreachable. The availability decrement stands
    // until the site's next report/resync reconciles it; count the loss.
    failures_.inc();
    tokens_.erase({pr.cmd.request_id, pr.site});
    pending_.erase(it);
    return true;
  }
  ++pr.attempts;
  retries_.inc();
  opts_.sink.event(bus_.now(), obs::EventKind::GrmReserveRetry,
                   static_cast<std::uint32_t>(self_), static_cast<std::uint32_t>(pr.site),
                   static_cast<double>(pr.attempts));
  pr.backoff = std::min(pr.backoff * 2.0, opts_.backoff_cap);
  bus_.post(self_, (*lrm_endpoints_)[pr.site], pr.cmd, opts_.send_latency);
  bus_.post(self_, self_, Timer{token}, jittered(pr.backoff));
  return true;
}

void ReserveEmitter::abandon_all() {
  abandoned_ += pending_.size();
  pending_.clear();
  tokens_.clear();
}

}  // namespace agora::rms
