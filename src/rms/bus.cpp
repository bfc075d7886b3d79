#include "rms/bus.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace agora::rms {

MessageBus::MessageBus() { set_sink(obs::Sink::global()); }

void MessageBus::set_sink(obs::Sink sink) {
  sink_ = sink;
  // Re-point each count's feed; the counts carry on.
  const auto feed = [this](obs::Tally& count, const char* name) {
    const std::uint64_t v = count.value();
    count = obs::Tally(sink_.counter(name));
    count.restore(v);
  };
  feed(delivered_, "rms.bus.delivered");
  feed(dropped_, "rms.bus.dropped");
  feed(duplicated_, "rms.bus.duplicated");
  feed(lost_crash_, "rms.bus.lost_crash");
  feed(lost_partition_, "rms.bus.lost_partition");
}

EndpointId MessageBus::add_endpoint(Handler handler) {
  AGORA_REQUIRE(handler != nullptr, "endpoint needs a handler");
  endpoints_.push_back(std::move(handler));
  restart_handlers_.emplace_back();
  return endpoints_.size() - 1;
}

void MessageBus::set_restart_handler(EndpointId endpoint, RestartHandler handler) {
  AGORA_REQUIRE(endpoint < endpoints_.size(), "unknown endpoint");
  restart_handlers_[endpoint] = std::move(handler);
}

void MessageBus::set_fault_plan(FaultPlan plan) {
  plan.validate();
  plan_ = std::move(plan);
  fault_active_ = plan_.active();
  rng_ = Pcg32(plan_.seed);
  restarts_.clear();
  next_restart_ = 0;
  for (const CrashWindow& w : plan_.crashes)
    if (w.end > now_) restarts_.emplace_back(w.end, w.endpoint);
  std::sort(restarts_.begin(), restarts_.end());
}

void MessageBus::post(EndpointId from, EndpointId to, Payload payload, double latency) {
  AGORA_REQUIRE(from < endpoints_.size() && to < endpoints_.size(), "unknown endpoint");
  AGORA_REQUIRE(latency >= 0.0, "latency must be non-negative");
  if (fault_active_) {
    // A crashed sender cannot put anything on the wire.
    if (plan_.crashed(from, now_)) {
      dropped_.inc();
      lost_crash_.inc();
      sink_.event(now_, obs::EventKind::BusFaultCrashLoss, static_cast<std::uint32_t>(from));
      return;
    }
    // Self-messages model local clocks (timers, scheduled releases), not
    // the network: they bypass link faults and partitions.
    if (from != to) {
      const LinkFaults& lf = plan_.link(from, to);
      if (lf.any()) {
        if (lf.drop > 0.0 && rng_.next_double() < lf.drop) {
          dropped_.inc();
          sink_.event(now_, obs::EventKind::BusFaultDrop, static_cast<std::uint32_t>(from),
                      static_cast<std::uint32_t>(to));
          return;
        }
        const double extra = lf.jitter > 0.0 ? rng_.uniform(0.0, lf.jitter) : 0.0;
        queue_.push(Envelope{now_ + latency + extra, seq_++, from, to, payload});
        if (lf.duplicate > 0.0 && rng_.next_double() < lf.duplicate) {
          const double extra2 = lf.jitter > 0.0 ? rng_.uniform(0.0, lf.jitter) : 0.0;
          duplicated_.inc();
          sink_.event(now_, obs::EventKind::BusFaultDuplicate, static_cast<std::uint32_t>(from),
                      static_cast<std::uint32_t>(to));
          queue_.push(Envelope{now_ + latency + extra2, seq_++, from, to, std::move(payload)});
        }
        return;
      }
    }
  }
  queue_.push(Envelope{now_ + latency, seq_++, from, to, std::move(payload)});
}

bool MessageBus::step() {
  const bool have_msg = !queue_.empty();
  const bool have_restart = restart_pending();
  if (!have_msg && !have_restart) return false;

  if (have_restart &&
      (!have_msg || restarts_[next_restart_].first <= queue_.top().deliver_at)) {
    const auto [t, endpoint] = restarts_[next_restart_++];
    now_ = std::max(now_, t);
    if (restart_handlers_[endpoint]) restart_handlers_[endpoint]();
    return true;
  }

  Envelope env = queue_.top();
  queue_.pop();
  now_ = env.deliver_at;
  if (fault_active_) {
    if (plan_.crashed(env.to, now_)) {
      dropped_.inc();
      lost_crash_.inc();
      sink_.event(now_, obs::EventKind::BusFaultCrashLoss, static_cast<std::uint32_t>(env.to));
      return true;
    }
    if (env.from != env.to && plan_.severed(env.from, env.to, now_)) {
      dropped_.inc();
      lost_partition_.inc();
      sink_.event(now_, obs::EventKind::BusFaultPartitionLoss,
                  static_cast<std::uint32_t>(env.from), static_cast<std::uint32_t>(env.to));
      return true;
    }
  }
  delivered_.inc();
  endpoints_[env.to](env);
  return true;
}

std::size_t MessageBus::run_until(double t) {
  std::size_t count = 0;
  while (true) {
    const double next = next_event_time();
    if (std::isnan(next) || next > t) break;
    step();
    ++count;
  }
  // The wall clock reaches t even when no event lands exactly there, so
  // anything posted afterwards (reports, requests) is stamped at t rather
  // than at the last delivery time.
  if (std::isfinite(t) && t > now_) now_ = t;
  return count;
}

double MessageBus::next_time() const {
  return queue_.empty() ? std::numeric_limits<double>::quiet_NaN() : queue_.top().deliver_at;
}

double MessageBus::next_event_time() const {
  double next = next_time();
  if (restart_pending()) {
    const double r = restarts_[next_restart_].first;
    next = std::isnan(next) ? r : std::min(next, r);
  }
  return next;
}

QuiesceStats MessageBus::run_until_idle(std::size_t max_messages) {
  QuiesceStats stats;
  const std::uint64_t delivered0 = delivered_.value();
  std::size_t count = 0;
  while (step()) {
    if (++count > max_messages) {
      throw InternalError(
          "message bus did not quiesce (possible message loop): queue depth " +
          std::to_string(queue_.size()) + " at sim time " + std::to_string(now_) + ", " +
          std::to_string(delivered_.value() - delivered0) + " delivered, " +
          std::to_string(dropped_.value() - drain_dropped_) + " dropped, " +
          std::to_string(duplicated_.value() - drain_duplicated_) +
          " duplicated since last drain");
    }
  }
  stats.delivered = static_cast<std::size_t>(delivered_.value() - delivered0);
  stats.dropped = static_cast<std::size_t>(dropped_.value() - drain_dropped_);
  stats.duplicated = static_cast<std::size_t>(duplicated_.value() - drain_duplicated_);
  drain_dropped_ = dropped_.value();
  drain_duplicated_ = duplicated_.value();
  return stats;
}

}  // namespace agora::rms
