#include "net/client.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "net/socket.h"
#include "util/error.h"
#include "util/rng.h"

namespace agora::net {

namespace {

using Clock = std::chrono::steady_clock;

int ms_remaining(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
  return left <= 0 ? 0 : static_cast<int>(std::min<long long>(left, 3'600'000));
}

std::uint64_t us_remaining(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::microseconds>(deadline - Clock::now()).count();
  return left <= 0 ? 0 : static_cast<std::uint64_t>(left);
}

/// The ClientStats fields; the four with a net.client.* registry counter
/// feed it.
struct Counts {
  explicit Counts(const obs::Sink& sink)
      : requests(sink.counter("net.client.requests")),
        retries(sink.counter("net.client.retries")),
        failovers(sink.counter("net.client.failovers")),
        timeouts(sink.counter("net.client.timeouts")) {}

  obs::Tally requests, retries, failovers, timeouts, reconnects, goaways, wire_errors;

  ClientStats snapshot() const {
    ClientStats s;
    s.requests = requests.value();
    s.retries = retries.value();
    s.failovers = failovers.value();
    s.reconnects = reconnects.value();
    s.timeouts = timeouts.value();
    s.goaways = goaways.value();
    s.wire_errors = wire_errors.value();
    return s;
  }
};

}  // namespace

struct Client::Impl {
  explicit Impl(ClientOptions o) : opts(std::move(o)), rng(opts.seed), stats(opts.sink) {
    AGORA_REQUIRE(!opts.endpoints.empty(), "net::Client needs at least one endpoint");
    AGORA_REQUIRE(opts.max_attempts >= 1, "net::Client needs max_attempts >= 1");
    h_call = &opts.sink.histogram("net.client.call.seconds");
  }

  // --- transport ------------------------------------------------------------

  void disconnect() {
    fd.reset();
    dec = FrameDecoder(opts.max_payload);
  }

  void failover() {
    disconnect();
    cur = (cur + 1) % opts.endpoints.size();
    stats.failovers.inc();
  }

  bool ensure_connected(Clock::time_point deadline) {
    if (fd.valid()) return true;
    const Endpoint& ep = opts.endpoints[cur];
    std::string err;
    const int budget = std::min(opts.connect_timeout_ms, std::max(1, ms_remaining(deadline)));
    fd = connect_tcp(ep.host, ep.port, budget, err);
    if (!fd.valid()) return false;
    dec = FrameDecoder(opts.max_payload);
    stats.reconnects.inc();
    return true;
  }

  /// Write the whole frame, blocking on POLLOUT up to the deadline.
  bool send_all(const std::vector<std::uint8_t>& buf, Clock::time_point deadline) {
    std::size_t off = 0;
    while (off < buf.size()) {
      const std::ptrdiff_t n = write_some(fd.get(), buf.data() + off, buf.size() - off);
      if (n < 0) return false;
      off += static_cast<std::size_t>(n);
      if (off == buf.size()) break;
      pollfd p{fd.get(), POLLOUT, 0};
      const int left = ms_remaining(deadline);
      if (left == 0 || ::poll(&p, 1, left) <= 0) return false;
    }
    return true;
  }

  /// Read until a frame with `rid` arrives (skipping unrelated frames,
  /// noting GoAway) or the deadline passes. Returns ok / deadline_exceeded /
  /// io / internal(wire).
  Status recv_match(std::uint64_t rid, Frame& out, Clock::time_point deadline) {
    std::uint8_t buf[4096];
    while (true) {
      while (true) {
        const FrameDecoder::Result r = dec.next(out);
        if (r == FrameDecoder::Result::Error) {
          stats.wire_errors.inc();
          return Status::internal(std::string("wire decode: ") + to_string(dec.error()));
        }
        if (r == FrameDecoder::Result::NeedMore) break;
        if (out.type == FrameType::GoAway) {
          stats.goaways.inc();
          goaway_seen = true;
          continue;  // server still answers in-flight requests during drain
        }
        if (out.type == FrameType::Error) {
          stats.wire_errors.inc();
          WireError e;
          (void)decode(std::span<const std::uint8_t>(out.payload.data(), out.payload.size()),
                       e);
          return Status::internal("server error frame: " + e.message);
        }
        if (out.request_id == rid) return Status();
        // A reply to a request this Client no longer waits on (an earlier
        // attempt that timed out client-side): drop it.
      }
      const int left = ms_remaining(deadline);
      if (left == 0) return Status::deadline_exceeded("no reply within budget");
      pollfd p{fd.get(), POLLIN, 0};
      const int r = ::poll(&p, 1, left);
      if (r == 0) return Status::deadline_exceeded("no reply within budget");
      if (r < 0) return Status::io("poll failed");
      bool eof = false;
      const std::ptrdiff_t n = read_some(fd.get(), buf, sizeof(buf), eof);
      if (n < 0 || (eof && n == 0 && dec.buffered() == 0))
        return Status::io("connection closed by server");
      if (n > 0) dec.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      if (eof && dec.buffered() == 0) return Status::io("connection closed by server");
    }
  }

  /// One request/reply exchange on the current connection.
  Status roundtrip(FrameType type, const std::vector<std::uint8_t>& payload,
                   FrameType expect, Frame& reply, Clock::time_point deadline) {
    Frame f;
    f.type = type;
    f.request_id = ++next_rid;
    f.deadline_us = us_remaining(deadline);
    if (f.deadline_us == 0) return Status::deadline_exceeded("budget spent before send");
    f.payload = payload;
    std::vector<std::uint8_t> buf;
    encode_frame(f, buf);
    if (!send_all(buf, deadline)) return Status::io("send failed");
    const Status s = recv_match(f.request_id, reply, deadline);
    if (!s.ok()) return s;
    if (reply.type != expect) {
      stats.wire_errors.inc();
      return Status::internal("unexpected reply frame type");
    }
    return Status();
  }

  /// Sleep before the next attempt: exponential backoff with decorrelation
  /// jitter, capped by the server hint (when given) and the budget.
  void backoff_sleep(std::size_t attempt, std::uint32_t hint_ms, Clock::time_point deadline) {
    double ms = static_cast<double>(opts.backoff_ms);
    for (std::size_t i = 0; i < attempt; ++i) ms *= opts.backoff_mult;
    ms = std::min(ms, static_cast<double>(opts.backoff_cap_ms));
    if (hint_ms > 0) ms = std::min(ms, static_cast<double>(hint_ms));
    ms *= 1.0 - opts.jitter * rng.next_double();
    ms = std::min(ms, static_cast<double>(ms_remaining(deadline)));
    if (ms > 0.0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }

  ConsultOutcome consult(std::uint32_t participant, double amount, int deadline_ms) {
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::milliseconds(deadline_ms > 0 ? deadline_ms
                                                       : opts.default_deadline_ms);
    stats.requests.inc();
    ConsultOutcome out;
    out.status = Status::unavailable("no attempt completed");
    std::vector<std::uint8_t> payload;
    encode(ConsultRequest{participant, amount}, payload);
    for (std::size_t attempt = 0; attempt < opts.max_attempts; ++attempt) {
      if (attempt > 0) stats.retries.inc();
      if (ms_remaining(deadline) == 0) {
        out.status = Status::deadline_exceeded("client budget exhausted");
        break;
      }
      goaway_seen = false;
      if (!ensure_connected(deadline)) {
        out.status = Status::unavailable("connect failed");
        failover();
        backoff_sleep(attempt, 0, deadline);
        continue;
      }
      Frame reply;
      const Status s = roundtrip(FrameType::Consult, payload, FrameType::ConsultReply,
                                 reply, deadline);
      if (!s.ok()) {
        if (s.code() == StatusCode::DeadlineExceeded) {
          stats.timeouts.inc();
          // The server may still answer this id later; this connection's
          // stream is now ambiguous, so drop it.
          disconnect();
          out.status = s;
          break;
        }
        failover();
        out.status = s;
        backoff_sleep(attempt, 0, deadline);
        continue;
      }
      ConsultReply m;
      if (!decode(std::span<const std::uint8_t>(reply.payload.data(), reply.payload.size()),
                  m)) {
        stats.wire_errors.inc();
        failover();
        out.status = Status::internal("malformed consult reply");
        backoff_sleep(attempt, 0, deadline);
        continue;
      }
      out.reply = m;
      out.status = Status(m.code, m.message);
      if (m.code == StatusCode::Unavailable) {
        // Shed or draining: rotate away from a draining server, honor the
        // retry-after hint, try again within budget.
        if (goaway_seen) failover();
        backoff_sleep(attempt, m.retry_after_ms, deadline);
        continue;
      }
      break;  // definite decision (grant, denial, deadline, error)
    }
    h_call->observe(std::chrono::duration<double>(Clock::now() - t0).count());
    return out;
  }

  Status simple_call(FrameType type, FrameType expect, Frame& reply, int deadline_ms) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms > 0 ? deadline_ms
                                                                 : opts.default_deadline_ms);
    if (!ensure_connected(deadline)) {
      failover();
      return Status::unavailable("connect failed");
    }
    const Status s = roundtrip(type, {}, expect, reply, deadline);
    if (!s.ok() && s.code() != StatusCode::DeadlineExceeded) failover();
    return s;
  }

  ClientOptions opts;
  Pcg32 rng;
  Fd fd;
  FrameDecoder dec{kDefaultMaxPayload};
  std::size_t cur = 0;  ///< current endpoint index
  std::uint64_t next_rid = 0;
  bool goaway_seen = false;
  Counts stats;
  obs::LogHistogram* h_call = nullptr;
};

Client::Client(ClientOptions opts) : impl_(new Impl(std::move(opts))) {}
Client::~Client() { delete impl_; }

ConsultOutcome Client::consult(std::uint32_t participant, double amount, int deadline_ms) {
  return impl_->consult(participant, amount, deadline_ms);
}

Status Client::ping(int deadline_ms) {
  Frame reply;
  return impl_->simple_call(FrameType::Ping, FrameType::Pong, reply, deadline_ms);
}

Status Client::info(InfoReply& out, int deadline_ms) {
  Frame reply;
  const Status s =
      impl_->simple_call(FrameType::Info, FrameType::InfoReply, reply, deadline_ms);
  if (!s.ok()) return s;
  if (!decode(std::span<const std::uint8_t>(reply.payload.data(), reply.payload.size()), out))
    return Status::internal("malformed info reply");
  return Status();
}

void Client::disconnect() { impl_->disconnect(); }

std::size_t Client::endpoint_index() const { return impl_->cur; }

ClientStats Client::stats() const { return impl_->stats.snapshot(); }

}  // namespace agora::net
