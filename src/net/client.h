// client.h -- net::Client, the failover-aware caller side of the wire
// boundary (DESIGN.md §14.4).
//
// A Client owns one socket to one of a list of replica endpoints and speaks
// the framed request/reply protocol synchronously: consult() blocks until a
// definite answer or the caller's deadline budget runs out. The retry
// discipline mirrors rms::RequestClient: bounded attempts, exponential
// backoff with seeded decorrelation jitter, and failover rotation across
// endpoints on connect refusal, timeout, GoAway, or a poisoned stream. A
// server-supplied retry-after hint (attached to shed replies) caps the
// backoff for that attempt -- the server knows its own queue better than
// our exponential guess does.
//
// Every attempt re-stamps the frame header's deadline_us with the REMAINING
// budget, so the server can drop the request the moment the budget is spent
// instead of computing an answer nobody is waiting for.
//
// Thread model: one Client per thread. Clients are cheap (a socket, a
// decoder, a few counters); share endpoints, not Client objects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/wire.h"
#include "obs/sink.h"
#include "util/status.h"

namespace agora::net {

struct Endpoint {
  std::string host;  ///< dotted-quad IPv4; empty = 127.0.0.1
  std::uint16_t port = 0;
};

struct ClientOptions {
  /// Replica endpoints tried in rotation; at least one is required.
  std::vector<Endpoint> endpoints;
  int connect_timeout_ms = 1'000;
  /// Attempts per call (first try + retries/failovers).
  std::size_t max_attempts = 4;
  /// Exponential backoff between attempts: base, multiplier, cap.
  int backoff_ms = 10;
  double backoff_mult = 2.0;
  int backoff_cap_ms = 500;
  /// Decorrelation jitter fraction in [0, 1): each sleep is scaled by a
  /// seeded uniform draw from [1-jitter, 1].
  double jitter = 0.25;
  std::uint64_t seed = 1;
  /// Budget for calls that pass deadline_ms = 0.
  int default_deadline_ms = 1'000;
  std::size_t max_payload = kDefaultMaxPayload;
  obs::Sink sink = obs::Sink::global();
};

/// Telemetry for one Client (single-threaded; read whenever).
struct ClientStats {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;      ///< extra attempts after the first
  std::uint64_t failovers = 0;    ///< endpoint rotations
  std::uint64_t reconnects = 0;   ///< sockets (re)established
  std::uint64_t timeouts = 0;     ///< attempts abandoned on the wire
  std::uint64_t goaways = 0;      ///< GoAway frames received
  std::uint64_t wire_errors = 0;  ///< decode failures / Error frames
};

struct ConsultOutcome {
  /// Always definite: the server's decision, or the client-side verdict
  /// (deadline_exceeded / unavailable) when no server answered in budget.
  Status status;
  /// Valid when a server answered (status carries its code); holds the
  /// retry-after hint and, for grants, the certified plan summary.
  ConsultReply reply;
};

class Client {
 public:
  explicit Client(ClientOptions opts);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One admission consult. deadline_ms = 0 uses the default budget.
  ConsultOutcome consult(std::uint32_t participant, double amount, int deadline_ms = 0);

  /// Liveness probe against the current endpoint.
  Status ping(int deadline_ms = 0);

  /// Service introspection (participants, epoch, draining, in-flight).
  Status info(InfoReply& out, int deadline_ms = 0);

  /// Drop the connection (the next call reconnects).
  void disconnect();

  /// Endpoint index the next attempt will use (for failover tests).
  std::size_t endpoint_index() const;

  ClientStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace agora::net
