#include "rms/client.h"

#include <algorithm>
#include <cmath>

namespace agora::rms {

RequestClient::RequestClient(MessageBus& bus, EndpointId grm, ClientOptions opts)
    : RequestClient(bus, std::vector<EndpointId>{grm}, std::move(opts)) {}

RequestClient::RequestClient(MessageBus& bus, std::vector<EndpointId> targets,
                             ClientOptions opts)
    : bus_(bus), targets_(std::move(targets)), opts_(opts),
      rng_(opts.retry_jitter_seed, 0xc11e) {
  AGORA_REQUIRE(!targets_.empty(), "client needs at least one GRM endpoint");
  AGORA_REQUIRE(opts_.max_attempts >= 1, "need at least one attempt");
  AGORA_REQUIRE(opts_.retry_backoff > 0.0 && opts_.backoff_cap > 0.0,
                "backoff must be positive");
  AGORA_REQUIRE(opts_.retry_jitter >= 0.0, "jitter must be non-negative");
  AGORA_REQUIRE(opts_.deadline > 0.0, "deadline must be positive");
  AGORA_REQUIRE(opts_.send_latency >= 0.0, "latency must be non-negative");
  retries_ = obs::Tally(opts_.sink.counter("rms.client.retries"));
  deadline_denials_ = obs::Tally(opts_.sink.counter("rms.client.deadline_denials"));
  duplicate_replies_ = obs::Tally(opts_.sink.counter("rms.client.duplicate_replies"));
  redirects_ = obs::Tally(opts_.sink.counter("rms.client.redirects"));
  failovers_ = obs::Tally(opts_.sink.counter("rms.client.failovers"));
  obs_latency_ = &opts_.sink.histogram("rms.client.request_latency.vt_seconds");
  endpoint_ = bus_.add_endpoint([this](const Envelope& env) { handle(env); });
}

double RequestClient::jittered(double delay) {
  // The RNG is consulted only when jitter is on, so jitter-off schedules
  // are bit-identical to the pre-jitter protocol.
  if (opts_.retry_jitter <= 0.0) return delay;
  return delay * (1.0 + opts_.retry_jitter * rng_.next_double());
}

void RequestClient::send(Pending& p) {
  p.sent_to = target_;
  p.responded = false;
  AllocationRequest req = p.req;
  req.attempt = static_cast<std::uint32_t>(p.attempts - 1);
  bus_.post(endpoint_, targets_[target_], std::move(req), opts_.send_latency);
}

std::uint64_t RequestClient::submit(AllocationRequest req) {
  AGORA_REQUIRE(pending_.count(req.request_id) == 0 && done_.count(req.request_id) == 0,
                "request_id already in use");
  const double now = bus_.now();
  Pending p;
  p.req = req;
  p.submitted_at = now;
  p.deadline_at = std::isfinite(opts_.deadline)
                      ? now + opts_.deadline
                      : std::numeric_limits<double>::infinity();
  p.attempts = 1;
  p.backoff = opts_.retry_backoff;
  const std::uint64_t id = req.request_id;
  Pending& slot = pending_[id] = std::move(p);
  send(slot);
  // Wake up to retry or to enforce the deadline; a fire-and-forget client
  // (no retries, no deadline) never needs a timer.
  if (opts_.max_attempts > 1 || std::isfinite(opts_.deadline))
    schedule_wakeup(id, std::min(jittered(opts_.retry_backoff), opts_.deadline));
  return id;
}

bool RequestClient::resolved(std::uint64_t request_id) const {
  return done_.count(request_id) != 0;
}

const RequestClient::Outcome& RequestClient::outcome(std::uint64_t request_id) const {
  const auto it = done_.find(request_id);
  AGORA_REQUIRE(it != done_.end(), "request not resolved");
  return order_[it->second];
}

void RequestClient::schedule_wakeup(std::uint64_t request_id, double delay) {
  const std::uint64_t token = next_token_++;
  timer_targets_[token] = request_id;
  bus_.post(endpoint_, endpoint_, Timer{token}, std::max(delay, 0.0));
}

void RequestClient::finalize(std::uint64_t request_id, AllocationReply reply) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Outcome out;
  out.reply = std::move(reply);
  out.submitted_at = it->second.submitted_at;
  out.resolved_at = bus_.now();
  obs_latency_->observe(out.resolved_at - out.submitted_at);
  pending_.erase(it);
  done_[request_id] = order_.size();
  order_.push_back(std::move(out));
}

void RequestClient::handle(const Envelope& env) {
  if (const auto* reply = std::get_if<AllocationReply>(&env.payload)) {
    if (pending_.count(reply->request_id) == 0) {
      // Late or duplicated reply for an already-resolved request.
      duplicate_replies_.inc();
      return;
    }
    finalize(reply->request_id, *reply);
    return;
  }
  if (const auto* nl = std::get_if<NotLeader>(&env.payload)) {
    on_not_leader(*nl);
    return;
  }
  if (const auto* timer = std::get_if<Timer>(&env.payload)) {
    on_timer(timer->token);
    return;
  }
}

void RequestClient::on_not_leader(const NotLeader& nl) {
  const auto it = pending_.find(nl.request_id);
  if (it == pending_.end()) return;  // resolved in the meantime
  Pending& p = it->second;
  p.responded = true;
  redirects_.inc();
  if (nl.leader_known) {
    // The follower named the leader: adopt it, and resend right away if it
    // actually changes where we point. The resend budget bounds the
    // ping-pong that stale cross-pointing hints could otherwise sustain
    // (the retry/deadline timers still stand behind it either way).
    const auto hint = std::find(targets_.begin(), targets_.end(), nl.leader);
    if (hint != targets_.end()) {
      const auto idx = static_cast<std::size_t>(hint - targets_.begin());
      const bool moved = idx != p.sent_to;
      target_ = idx;
      opts_.sink.event(bus_.now(), obs::EventKind::ClientRedirect,
                       static_cast<std::uint32_t>(endpoint_),
                       static_cast<std::uint32_t>(nl.leader),
                       static_cast<double>(p.attempts));
      if (moved && p.redirect_sends < static_cast<int>(2 * targets_.size())) {
        ++p.redirect_sends;
        send(p);
      }
      return;
    }
  }
  // No leader yet (mid-election) or an unknown hint: rotate off the
  // follower so the next retry probes a different replica.
  if (target_ == p.sent_to) target_ = (target_ + 1) % targets_.size();
}

void RequestClient::on_timer(std::uint64_t token) {
  const auto target = timer_targets_.find(token);
  if (target == timer_targets_.end()) return;
  const std::uint64_t id = target->second;
  timer_targets_.erase(target);
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // resolved while the timer was in flight
  Pending& p = it->second;
  const double now = bus_.now();

  if (now >= p.deadline_at - 1e-12) {
    // Deadline: resolve locally instead of hanging.
    deadline_denials_.inc();
    opts_.sink.event(now, obs::EventKind::ClientDeadline, static_cast<std::uint32_t>(endpoint_),
                     0, static_cast<double>(p.attempts));
    AllocationReply reply;
    reply.request_id = id;
    reply.granted = false;
    reply.reason = "deadline exceeded after " + std::to_string(p.attempts) + " attempt(s)";
    finalize(id, std::move(reply));
    return;
  }
  if (p.attempts < opts_.max_attempts) {
    // Failover: the last send to this target produced neither a reply nor
    // a redirect -- assume the node is dead or cut off and try the next.
    if (targets_.size() > 1 && !p.responded && target_ == p.sent_to) {
      target_ = (target_ + 1) % targets_.size();
      failovers_.inc();
    }
    ++p.attempts;
    p.redirect_sends = 0;
    retries_.inc();
    opts_.sink.event(now, obs::EventKind::GrmRetry, static_cast<std::uint32_t>(endpoint_),
                     static_cast<std::uint32_t>(targets_[target_]),
                     static_cast<double>(p.attempts));
    send(p);
    p.backoff = std::min(p.backoff * 2.0, opts_.backoff_cap);
    schedule_wakeup(id, std::min(jittered(p.backoff), p.deadline_at - now));
    return;
  }
  // Attempts exhausted: nothing left to send, wait out the deadline.
  if (std::isfinite(p.deadline_at)) schedule_wakeup(id, p.deadline_at - now);
}

}  // namespace agora::rms
