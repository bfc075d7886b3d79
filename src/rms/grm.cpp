#include "rms/grm.h"

namespace agora::rms {

StateMachineOptions GrmOptions::state_machine_options() const {
  StateMachineOptions o;
  o.staleness_ttl = staleness_ttl;
  o.decided_cache_capacity = decided_cache_capacity;
  o.sink = sink;
  return o;
}

namespace {

ReserveEmitterOptions emitter_options(const GrmOptions& g, double send_latency) {
  ReserveEmitterOptions o;
  o.attempts = g.reserve_attempts;
  o.backoff = g.reserve_backoff;
  o.backoff_cap = g.reserve_backoff_cap;
  o.jitter = g.reserve_jitter;
  o.jitter_seed = g.reserve_jitter_seed;
  o.send_latency = send_latency;
  o.sink = g.sink;
  return o;
}

}  // namespace

Grm::Grm(MessageBus& bus, std::vector<agree::AgreementSystem> systems,
         alloc::AllocatorOptions opts, double decision_latency, GrmOptions grm_opts)
    : bus_(bus),
      decision_latency_(decision_latency),
      grm_opts_(grm_opts),
      sm_(std::move(systems), opts, grm_opts.state_machine_options()),
      emitter_(bus, emitter_options(grm_opts, decision_latency)) {
  forwards_ = obs::Tally(grm_opts_.sink.counter("rms.grm.forwards"));
  lrm_endpoints_.assign(sm_.num_sites(), 0);
  endpoint_ = bus_.add_endpoint([this](const Envelope& env) { handle(env); });
  sm_.set_actor(static_cast<std::uint32_t>(endpoint_));
  emitter_.bind(endpoint_, &lrm_endpoints_);
}

void Grm::register_lrm(std::size_t site, EndpointId lrm) {
  sm_.register_site(site);  // validates the index
  lrm_endpoints_[site] = lrm;
}

void Grm::set_scope(std::vector<std::size_t> sites, EndpointId parent) {
  sm_.set_scope(sites);
  parent_ = parent;
}

void Grm::update_agreement(std::size_t resource, std::size_t from, std::size_t to,
                           double share) {
  sm_.apply_update(resource, from, to, share);
}

void Grm::handle(const Envelope& env) {
  if (const auto* rep = std::get_if<AvailabilityReport>(&env.payload)) {
    sm_.apply_report(*rep, bus_.now());
    return;
  }
  if (const auto* req = std::get_if<AllocationRequest>(&env.payload)) {
    decide(*req, env.from);
    return;
  }
  if (const auto* reply = std::get_if<AllocationReply>(&env.payload)) {
    // A reply from our parent for a forwarded request: relay it (and cache
    // it so a retried request is answered from here on).
    const auto it = forwarded_.find(reply->request_id);
    if (it != forwarded_.end()) {
      sm_.record(reply->request_id, *reply);
      bus_.post(endpoint_, it->second, *reply, decision_latency_);
      forwarded_.erase(it);
    }
    return;
  }
  if (const auto* ack = std::get_if<Ack>(&env.payload)) {
    emitter_.on_ack(ack->request_id, ack->site);
    return;
  }
  if (const auto* rs = std::get_if<LrmResync>(&env.payload)) {
    sm_.apply_resync(*rs, bus_.now());
    return;
  }
  if (const auto* timer = std::get_if<Timer>(&env.payload)) {
    emitter_.on_timer(timer->token);
    return;
  }
  if (const auto* upd = std::get_if<AgreementUpdate>(&env.payload)) {
    update_agreement(upd->resource, upd->from, upd->to, upd->share);
    return;
  }
  // ReleaseNotice sent to a GRM is informational; availability arrives via
  // the LRM's follow-up report. Replication traffic is not for a plain Grm.
}

void Grm::decide(const AllocationRequest& req, EndpointId reply_to) {
  // Idempotency: a retried request that is still in flight at the parent is
  // simply ignored (its eventual reply is relayed and cached); one already
  // decided is answered from the cache inside the state machine.
  if (forwarded_.count(req.request_id) != 0) {
    sm_.note_duplicate();
    return;
  }
  GrmStateMachine::Decision d =
      sm_.decide(req, bus_.now(), /*record_denial=*/!parent_.has_value());
  switch (d.kind) {
    case GrmStateMachine::Decision::Kind::Unsatisfied:
      // Escalate: the parent sees the full system.
      forwards_.inc();
      forwarded_[req.request_id] = reply_to;
      bus_.post(endpoint_, *parent_, req, decision_latency_);
      return;
    case GrmStateMachine::Decision::Kind::Granted:
      for (auto& [site, cmd] : d.reserves) emitter_.send(req.request_id, site, std::move(cmd));
      break;
    case GrmStateMachine::Decision::Kind::Duplicate:
    case GrmStateMachine::Decision::Kind::Denied:
      break;
  }
  bus_.post(endpoint_, reply_to, std::move(d.reply), decision_latency_);
}

}  // namespace agora::rms
