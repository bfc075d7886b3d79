// client.h -- RequestClient: the client half of the hardened allocation
// protocol. Wraps a bus endpoint that submits AllocationRequests to a GRM,
// retries with exponential backoff while the network eats messages, and
// guarantees exactly one final AllocationReply per request: either the
// GRM's decision (duplicates from retries are suppressed) or, once the
// request's deadline passes, a synthesized denial with a reason -- a
// request never hangs.
//
// Against a replicated GRM (replica/group.h) the client takes the full
// list of replica endpoints and discovers the leader on the fly: a
// NotLeader redirect re-targets it (resending immediately when the
// follower names the leader), and a retry that got no response at all
// fails over to the next replica round-robin -- so a leader crash costs
// the client one backoff interval plus an election, not its deadline.
#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "obs/sink.h"
#include "rms/bus.h"
#include "rms/messages.h"
#include "util/rng.h"

namespace agora::rms {

struct ClientOptions {
  /// Total send attempts per request (1 = no retries, seed behavior).
  int max_attempts = 1;
  double retry_backoff = 0.5;   ///< initial spacing between attempts (doubles)
  double backoff_cap = 4.0;     ///< backoff ceiling
  /// Seeded jitter fraction on the retry backoff (0 = seed behavior): each
  /// wait becomes backoff * (1 + jitter * U[0,1)). Decorrelates the retry
  /// storms a fleet of clients would otherwise synchronize on after a
  /// partition heals -- every client retries on the same exponential
  /// schedule unless something breaks the symmetry.
  double retry_jitter = 0.0;
  std::uint64_t retry_jitter_seed = 1;
  /// Seconds after submission at which an unanswered request is resolved
  /// locally as denied ("deadline exceeded"). Infinity = wait forever.
  double deadline = std::numeric_limits<double>::infinity();
  double send_latency = 0.0;    ///< client -> GRM network delay
  /// Telemetry (retry/deadline counters, GrmRetry/ClientDeadline/
  /// ClientRedirect events stamped with bus virtual time).
  obs::Sink sink = obs::Sink::global();
};

class RequestClient {
 public:
  /// A resolved request: the final reply plus its timing, in virtual time.
  struct Outcome {
    AllocationReply reply;
    double submitted_at = 0.0;
    double resolved_at = 0.0;
    double latency() const { return resolved_at - submitted_at; }
  };

  RequestClient(MessageBus& bus, EndpointId grm, ClientOptions opts = {});
  /// Replicated-service client: `targets` are the GRM replica endpoints
  /// (replica::ReplicatedGrm::endpoints()). Requests go to the believed
  /// leader; NotLeader redirects and no-response failover walk the list.
  RequestClient(MessageBus& bus, std::vector<EndpointId> targets, ClientOptions opts = {});

  EndpointId endpoint() const { return endpoint_; }
  /// The endpoint requests are currently sent to (the believed leader).
  EndpointId target() const { return targets_[target_]; }

  /// Submit a request (request_id must be unused). Returns the id.
  std::uint64_t submit(AllocationRequest req);

  bool resolved(std::uint64_t request_id) const;
  /// The final outcome for a resolved request (throws if unresolved).
  const Outcome& outcome(std::uint64_t request_id) const;
  /// All outcomes in resolution order.
  const std::vector<Outcome>& outcomes() const { return order_; }
  std::size_t outstanding() const { return pending_.size(); }

  /// Robustness statistics.
  std::uint64_t retries() const { return retries_.value(); }
  std::uint64_t deadline_denials() const { return deadline_denials_.value(); }
  std::uint64_t duplicate_replies() const { return duplicate_replies_.value(); }
  std::uint64_t redirects() const { return redirects_.value(); }
  std::uint64_t failovers() const { return failovers_.value(); }

 private:
  struct Pending {
    AllocationRequest req;
    double submitted_at = 0.0;
    double deadline_at = 0.0;
    int attempts = 0;
    double backoff = 0.0;
    /// Index into targets_ of the last send (failover detection).
    std::size_t sent_to = 0;
    /// Did any response (reply or redirect) arrive since the last send?
    bool responded = false;
    /// Redirect-driven immediate resends this attempt (bounded so stale
    /// cross-pointing leader hints cannot ping-pong forever).
    int redirect_sends = 0;
  };

  void handle(const Envelope& env);
  void on_timer(std::uint64_t token);
  void on_not_leader(const NotLeader& nl);
  void send(Pending& p);
  void schedule_wakeup(std::uint64_t request_id, double delay);
  double jittered(double delay);
  void finalize(std::uint64_t request_id, AllocationReply reply);

  MessageBus& bus_;
  EndpointId endpoint_;
  std::vector<EndpointId> targets_;  ///< candidate GRM endpoints
  std::size_t target_ = 0;           ///< current (believed-leader) index
  ClientOptions opts_;
  Pcg32 rng_;
  std::unordered_map<std::uint64_t, Pending> pending_;   ///< by request_id
  std::unordered_map<std::uint64_t, std::uint64_t> timer_targets_;  ///< token -> id
  std::unordered_map<std::uint64_t, std::size_t> done_;  ///< id -> order_ index
  std::vector<Outcome> order_;
  std::uint64_t next_token_ = 1;
  /// Robustness counts, each feeding its rms.client.* registry counter.
  obs::Tally retries_;
  obs::Tally deadline_denials_;
  obs::Tally duplicate_replies_;
  obs::Tally redirects_;
  obs::Tally failovers_;
  /// Cached registry handles (see obs/metrics.h).
  obs::LogHistogram* obs_latency_ = nullptr;
};

}  // namespace agora::rms
