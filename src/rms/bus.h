// bus.h -- an in-process, virtual-time message bus connecting GRMs, LRMs
// and clients. Messages are delivered in timestamp order with configurable
// latency, which is what makes the GRM/LRM interaction a *simulation* of the
// distributed deployment the paper sketches rather than a thin function
// call: availability reports can be stale, decisions can cross in flight.
//
// An optional FaultPlan (see fault.h) turns the bus into an unreliable
// substrate: seeded per-link drops/duplicates/jitter, scheduled partitions
// and endpoint crash/restart windows. Without a plan (or with an inert
// default-constructed one) the bus behaves exactly like the seed bus.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "obs/sink.h"
#include "rms/fault.h"
#include "rms/messages.h"
#include "util/error.h"
#include "util/rng.h"

namespace agora::rms {

struct Envelope {
  double deliver_at = 0.0;
  std::uint64_t seq = 0;
  EndpointId from = 0;
  EndpointId to = 0;
  Payload payload;
};

/// What one run_until_idle drain did, including the fault layer's share --
/// a drain that delivered nothing because everything was dropped is very
/// different from a drain that had nothing to do. Fault counters cover
/// everything since the previous drain (drops happen at post time, i.e.
/// between drains, as well as at delivery time).
struct QuiesceStats {
  std::size_t delivered = 0;   ///< messages handed to endpoint handlers
  std::size_t dropped = 0;     ///< lost to the fault layer since the last drain
  std::size_t duplicated = 0;  ///< extra copies injected since the last drain
};

class MessageBus {
 public:
  using Handler = std::function<void(const Envelope&)>;
  using RestartHandler = std::function<void()>;

  MessageBus();

  /// Register an endpoint; the handler runs when messages are delivered.
  EndpointId add_endpoint(Handler handler);

  /// Called when `endpoint` comes back up at the end of a crash window
  /// (e.g. an LRM re-announcing its availability and reservations).
  void set_restart_handler(EndpointId endpoint, RestartHandler handler);

  /// Install (or replace) the fault plan. Validates the plan; an inert
  /// plan (FaultPlan{}) disables the fault layer entirely.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Route telemetry (delivery/fault counters, BusFault* trace events with
  /// time = bus virtual time) to `sink`. Default: the process-global sink.
  void set_sink(obs::Sink sink);

  /// Post a message for delivery after `latency` seconds of virtual time.
  void post(EndpointId from, EndpointId to, Payload payload, double latency = 0.0);

  /// Process the next event (advancing virtual time): deliver a message,
  /// lose it to a crash/partition, or fire a restart. False when idle.
  bool step();

  /// Deliver until the queue drains. Returns the drain's accounting.
  /// Throws InternalError past `max_messages` events (runaway protection).
  QuiesceStats run_until_idle(std::size_t max_messages = 1000000);

  /// Process every event scheduled at or before virtual time `t`, then
  /// advance the clock to `t` (so now() == t afterwards even if the last
  /// event landed earlier). Returns events processed; leaves later
  /// messages queued.
  std::size_t run_until(double t);

  /// Delivery time of the next queued message (NaN when idle).
  double next_time() const;

  double now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t delivered() const { return delivered_.value(); }

  /// Cumulative fault-layer accounting (all zero without a fault plan).
  std::uint64_t dropped() const { return dropped_.value(); }
  std::uint64_t duplicated() const { return duplicated_.value(); }
  std::uint64_t lost_to_crash() const { return lost_crash_.value(); }
  std::uint64_t lost_to_partition() const { return lost_partition_.value(); }

 private:
  struct Later {
    bool operator()(const Envelope& a, const Envelope& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  /// Time of the next event of any kind (message or restart); NaN if none.
  double next_event_time() const;
  bool restart_pending() const { return next_restart_ < restarts_.size(); }

  std::vector<Handler> endpoints_;
  std::vector<RestartHandler> restart_handlers_;
  std::priority_queue<Envelope, std::vector<Envelope>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  /// Delivery and fault counts, each feeding its rms.bus.* registry
  /// counter (set_sink re-points the feeds).
  obs::Tally delivered_;

  /// Fault layer.
  bool fault_active_ = false;
  FaultPlan plan_;
  Pcg32 rng_;
  std::vector<std::pair<double, EndpointId>> restarts_;  ///< sorted by time
  std::size_t next_restart_ = 0;
  obs::Tally dropped_;
  obs::Tally duplicated_;
  obs::Tally lost_crash_;
  obs::Tally lost_partition_;
  /// Fault counters as of the end of the previous run_until_idle drain.
  std::uint64_t drain_dropped_ = 0;
  std::uint64_t drain_duplicated_ = 0;

  /// Telemetry. Feeds are resolved in the constructor (and again by
  /// set_sink); posting/stepping only bumps atomics.
  obs::Sink sink_ = obs::Sink::global();
};

}  // namespace agora::rms
