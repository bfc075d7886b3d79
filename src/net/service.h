// service.h -- AgoraService: the overload-safe RPC boundary fronting an
// admission backend (DESIGN.md §14).
//
// One poll(2) loop thread owns every socket and every piece of connection
// state; the compute itself happens on one pump thread, the service's one
// executor: it takes each dispatched consult in order, calls the backend's
// AllocatorBase::allocate() with its exceptions mapped to a Status
// (engine::resolve), and answers a future the loop polls. Every backend --
// a direct Allocator or an EnforcementEngine on any number of shards --
// is reached this one way. The loop:
//
//   * accepts loopback connections (bounded by max_connections; excess
//     peers get a GoAway and a close, never a silent hang),
//   * feeds bytes through a per-connection FrameDecoder, answering Ping/
//     Info inline and pushing Consults onto a BOUNDED admission queue --
//     when the queue is full the request is shed immediately with
//     Status::unavailable plus a retry-after hint scaled by queue pressure,
//   * dispatches queued consults to the pump while the in-flight window
//     has room, dropping (not computing) any whose client-supplied deadline
//     budget already ran out (Status::deadline_exceeded),
//   * sweeps completed futures into ConsultReply frames; an answer that
//     completed after its deadline is replaced by deadline_exceeded -- the
//     client stopped waiting, and a grant nobody applies would leak
//     capacity accounting,
//   * enforces idle and write-stall timeouts so a dead or deliberately
//     slow peer cannot pin a connection slot or unbounded output buffer.
//
// Graceful drain (request_drain(), async-signal-safe; SIGTERM in
// agora_serve): stop accepting, send GoAway on every connection, shed the
// not-yet-dispatched queue with unavailable (fail fast -- never solve for a
// caller that must fail over), wait up to drain_grace_ms for in-flight
// answers, resolve stragglers with unavailable, flush, close. Every request
// that ever reached the service gets a definite status frame or a definite
// close -- no future is lost.
//
// Invariant carried across the wire: a reply only claims a grant when the
// backend's plan was Satisfied AND certified; the service never upgrades,
// caches, or invents a decision.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "alloc/allocator_base.h"
#include "net/frame.h"
#include "obs/sink.h"
#include "util/status.h"

namespace agora::engine {
class EnforcementEngine;
}

namespace agora::net {

struct ServiceOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Connection ceiling; excess accepts are turned away with GoAway.
  std::size_t max_connections = 256;
  /// Per-frame payload ceiling fed to each connection's FrameDecoder.
  std::size_t max_payload = kDefaultMaxPayload;
  /// Admission-queue bound: consults parked here awaiting an in-flight
  /// slot. Beyond it the service sheds with unavailable + retry-after.
  std::size_t max_queue = 1024;
  /// Cap on consults dispatched to the pump but not yet answered.
  std::size_t max_inflight = 128;
  /// Close a connection this long without a single complete frame.
  int idle_timeout_ms = 30'000;
  /// Close a connection whose pending output made no progress this long
  /// (slow-read attack / dead peer with a full socket buffer).
  int write_stall_timeout_ms = 5'000;
  /// Per-connection pending-output ceiling; beyond it the peer is too slow
  /// to keep and the connection is closed.
  std::size_t max_write_buffer = std::size_t{4} << 20;
  /// Base retry-after hint (ms) on a shed reply; scaled up with queue
  /// pressure so a stampede spreads out instead of retrying in lockstep.
  std::uint32_t retry_after_ms = 20;
  /// Requests carrying a deadline budget below this are shed on arrival:
  /// the answer could not be computed and written back in time anyway.
  std::uint64_t min_deadline_us = 0;
  /// Drain: how long to wait for in-flight backend answers before
  /// resolving the stragglers with unavailable.
  int drain_grace_ms = 5'000;
  obs::Sink sink = obs::Sink::global();
};

/// Service telemetry (relaxed atomics; each event count is the one that
/// also feeds its net.server.* metric; exact once the loop thread is
/// joined).
struct ServiceStats {
  std::uint64_t accepted = 0;         ///< connections accepted
  std::uint64_t rejected = 0;         ///< accepts turned away (conn limit)
  std::uint64_t closed = 0;           ///< connections closed (any reason)
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t malformed = 0;        ///< decoder/payload errors (then closed)
  std::uint64_t consults = 0;         ///< consult frames that reached admission
  std::uint64_t answered = 0;         ///< definite consult replies written
  std::uint64_t shed_queue = 0;       ///< unavailable: admission queue full
  std::uint64_t shed_drain = 0;       ///< unavailable: draining
  std::uint64_t shed_deadline = 0;    ///< deadline_exceeded before dispatch
  std::uint64_t late_drop = 0;        ///< computed, but after the deadline
  std::uint64_t idle_closed = 0;
  std::uint64_t stall_closed = 0;
  std::uint64_t goaway_sent = 0;
  std::uint64_t peak_queue = 0;       ///< high-water admission-queue depth
  std::uint64_t peak_inflight = 0;
  std::uint64_t peak_connections = 0;
};

class AgoraService {
 public:
  /// The backend outlives the service; the service never owns it.
  explicit AgoraService(alloc::AllocatorBase& backend, ServiceOptions opts = {});
  ~AgoraService();
  AgoraService(const AgoraService&) = delete;
  AgoraService& operator=(const AgoraService&) = delete;

  /// Bind, listen, spawn the loop thread. Io status on bind failure.
  Status start();

  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return port_; }

  /// Begin graceful drain. Async-signal-safe (one atomic store); the loop
  /// notices within one poll tick. Idempotent.
  void request_drain() { drain_requested_.store(true, std::memory_order_release); }

  /// Drain (if not already) and join the loop thread. Idempotent; the
  /// destructor calls it. After stop() returns every consult ever read
  /// from a socket has been resolved with a definite status.
  void stop();

  bool draining() const { return drain_requested_.load(std::memory_order_acquire); }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServiceStats stats() const;

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< loop-thread state; defined in service.cpp

  alloc::AllocatorBase& backend_;
  ServiceOptions opts_;
  std::uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> running_{false};
};

}  // namespace agora::net
