#include "net/service.h"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/error.h"
#include "util/task_queue.h"

namespace agora::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Cap on the deadline budget a client may request: beyond an hour the
/// arithmetic risks overflow and the number is surely a bug, not a budget.
constexpr std::uint64_t kMaxDeadlineUs = 3'600'000'000ULL;

/// Bytes read per connection per loop round: enough to swallow a burst,
/// small enough that one firehose connection cannot starve its neighbors.
constexpr std::size_t kReadRound = 64 * 1024;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The ServiceStats fields, written by the loop thread, snapshot by anyone:
/// relaxed atomics so stats() is race-free while the service runs. Each
/// event count feeds its net.server.* registry counter.
struct Counts {
  explicit Counts(const obs::Sink& sink)
      : accepted(sink.counter("net.server.conns.accepted")),
        rejected(sink.counter("net.server.conns.rejected")),
        closed(sink.counter("net.server.conns.closed")),
        frames_rx(sink.counter("net.server.frames.rx")),
        frames_tx(sink.counter("net.server.frames.tx")),
        bytes_rx(sink.counter("net.server.bytes.rx")),
        bytes_tx(sink.counter("net.server.bytes.tx")),
        malformed(sink.counter("net.server.malformed")),
        consults(sink.counter("net.server.consults")),
        answered(sink.counter("net.server.answered")),
        shed_queue(sink.counter("net.server.shed.queue")),
        shed_drain(sink.counter("net.server.shed.drain")),
        shed_deadline(sink.counter("net.server.shed.deadline")),
        late_drop(sink.counter("net.server.late_drop")),
        idle_closed(sink.counter("net.server.idle_closed")),
        stall_closed(sink.counter("net.server.stall_closed")),
        goaway_sent(sink.counter("net.server.goaway")) {}

  obs::Tally accepted, rejected, closed, frames_rx, frames_tx, bytes_rx, bytes_tx;
  obs::Tally malformed, consults, answered, shed_queue, shed_drain, shed_deadline;
  obs::Tally late_drop, idle_closed, stall_closed, goaway_sent;
  /// High-water marks; the loop thread is their only writer.
  std::atomic<std::uint64_t> peak_queue{0}, peak_inflight{0}, peak_connections{0};

  static void raise(std::atomic<std::uint64_t>& peak, std::uint64_t x) {
    if (x > peak.load(std::memory_order_relaxed)) peak.store(x, std::memory_order_relaxed);
  }

  ServiceStats snapshot() const {
    ServiceStats s;
    s.accepted = accepted.value();
    s.rejected = rejected.value();
    s.closed = closed.value();
    s.frames_rx = frames_rx.value();
    s.frames_tx = frames_tx.value();
    s.bytes_rx = bytes_rx.value();
    s.bytes_tx = bytes_tx.value();
    s.malformed = malformed.value();
    s.consults = consults.value();
    s.answered = answered.value();
    s.shed_queue = shed_queue.value();
    s.shed_drain = shed_drain.value();
    s.shed_deadline = shed_deadline.value();
    s.late_drop = late_drop.value();
    s.idle_closed = idle_closed.value();
    s.stall_closed = stall_closed.value();
    s.goaway_sent = goaway_sent.value();
    s.peak_queue = peak_queue.load(std::memory_order_relaxed);
    s.peak_inflight = peak_inflight.load(std::memory_order_relaxed);
    s.peak_connections = peak_connections.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace

struct AgoraService::Impl {
  struct Conn {
    Fd fd;
    FrameDecoder dec;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    Clock::time_point last_frame;   ///< last complete frame (or accept time)
    Clock::time_point stall_since;  ///< when `out` last had pending bytes w/o progress
    std::size_t outstanding = 0;    ///< consults queued or in flight for this conn
    bool closing = false;           ///< flush `out`, then close
    bool error_sent = false;
  };

  struct Pending {
    std::uint64_t conn = 0;
    std::uint64_t rid = 0;
    std::uint32_t participant = 0;
    double amount = 0.0;
    bool has_deadline = false;
    Clock::time_point deadline{};
    Clock::time_point admitted{};
  };

  struct InFlight {
    std::uint64_t conn = 0;
    std::uint64_t rid = 0;
    bool has_deadline = false;
    Clock::time_point deadline{};
    Clock::time_point admitted{};
    std::future<engine::EngineResult> fut;
  };

  /// One op for the serial pump fronting a non-engine (thread-hostile)
  /// backend: the pump thread is then the only caller of allocate().
  struct PumpOp {
    std::size_t participant = 0;
    double amount = 0.0;
    std::promise<engine::EngineResult> result;
  };

  explicit Impl(AgoraService& svc)
      : svc(svc),
        backend(svc.backend_),
        opts(svc.opts_),
        engine(dynamic_cast<engine::EnforcementEngine*>(&svc.backend_)),
        stats(opts.sink) {
    const obs::Sink& sink = opts.sink;
    g_conns = &sink.gauge("net.server.connections");
    g_queue = &sink.gauge("net.server.queue_depth");
    g_inflight = &sink.gauge("net.server.inflight");
    h_consult = &sink.histogram("net.server.consult.seconds");
    if (engine == nullptr) {
      pump_thread = std::thread([this] {
        PumpOp op;
        while (pump.wait_pop(op)) {
          engine::EngineResult res;
          try {
            res.plan = backend.allocate(op.participant, op.amount);
            res.status = res.plan.to_status();
          } catch (const std::exception& e) {
            res.status = to_status(e);
          }
          op.result.set_value(std::move(res));
        }
      });
    }
  }

  ~Impl() {
    if (pump_thread.joinable()) {
      pump.close();
      pump_thread.join();
    }
  }

  // --- outbound frames ------------------------------------------------------

  void send_frame(std::uint64_t id, Conn& c, FrameType type, std::uint64_t rid,
                  const std::vector<std::uint8_t>& payload) {
    if (c.closing && type != FrameType::Error && type != FrameType::GoAway) return;
    Frame f;
    f.type = type;
    f.request_id = rid;
    f.payload = payload;
    const std::size_t before = c.out.size();
    if (before == c.out_off) c.stall_since = Clock::now();  // buffer was flushed
    encode_frame(f, c.out);
    stats.frames_tx.inc();
    const std::size_t added = c.out.size() - before;
    stats.bytes_tx.inc(added);
    if (c.out.size() - c.out_off > opts.max_write_buffer) {
      // The peer is not reading: keeping an unbounded buffer for it would
      // let one slow client absorb the service's memory.
      stats.stall_closed.inc();
      close_conn(id, c);
    }
  }

  void send_consult_reply(std::uint64_t id, Conn& c, std::uint64_t rid, const ConsultReply& m) {
    std::vector<std::uint8_t> payload;
    encode(m, payload);
    send_frame(id, c, FrameType::ConsultReply, rid, payload);
    stats.answered.inc();
  }

  void send_shed(std::uint64_t id, Conn& c, std::uint64_t rid, Status s,
                 std::uint32_t retry_after_ms) {
    ConsultReply m;
    m.code = s.code();
    m.message = s.message();
    m.retry_after_ms = retry_after_ms;
    send_consult_reply(id, c, rid, m);
  }

  void send_goaway(std::uint64_t id, Conn& c) {
    send_frame(id, c, FrameType::GoAway, 0, {});
    stats.goaway_sent.inc();
  }

  void protocol_error(std::uint64_t id, Conn& c, std::uint8_t code, const std::string& msg) {
    stats.malformed.inc();
    if (!c.error_sent) {
      WireError e;
      e.code = code;
      e.message = msg;
      std::vector<std::uint8_t> payload;
      encode(e, payload);
      send_frame(id, c, FrameType::Error, 0, payload);
      c.error_sent = true;
    }
    c.closing = true;
  }

  /// Retry-after hint scaled by queue pressure: an idle queue suggests the
  /// base delay, a saturated one up to 4x, so shed clients decorrelate
  /// instead of stampeding back on the same tick.
  std::uint32_t retry_hint() const {
    const double fill =
        opts.max_queue == 0
            ? 1.0
            : static_cast<double>(queue.size()) / static_cast<double>(opts.max_queue);
    return opts.retry_after_ms +
           static_cast<std::uint32_t>(3.0 * fill * static_cast<double>(opts.retry_after_ms));
  }

  // --- frame handling -------------------------------------------------------

  void handle_frame(std::uint64_t id, Conn& c, const Frame& f, Clock::time_point now) {
    c.last_frame = now;
    stats.frames_rx.inc();
    switch (f.type) {
      case FrameType::Ping:
        send_frame(id, c, FrameType::Pong, f.request_id, {});
        return;
      case FrameType::Info: {
        InfoReply m;
        m.participants = static_cast<std::uint32_t>(backend.size());
        m.epoch = engine != nullptr ? engine->epoch() : 0;
        m.draining = svc.draining() ? 1 : 0;
        m.in_flight = queue.size() + inflight.size();
        std::vector<std::uint8_t> payload;
        encode(m, payload);
        send_frame(id, c, FrameType::InfoReply, f.request_id, payload);
        return;
      }
      case FrameType::Consult:
        handle_consult(id, c, f, now);
        return;
      case FrameType::GoAway:
        // Client is leaving; flush what it is owed, then close.
        c.closing = true;
        return;
      case FrameType::Error:
        // Peer reported a violation on our stream; nothing sane to send back.
        stats.malformed.inc();
        c.closing = true;
        c.error_sent = true;
        return;
      case FrameType::ConsultReply:
      case FrameType::InfoReply:
      case FrameType::Pong:
        protocol_error(id, c, 0, "unexpected server-to-client frame type from client");
        return;
    }
    protocol_error(id, c, 0, "unhandled frame type");
  }

  void handle_consult(std::uint64_t id, Conn& c, const Frame& f, Clock::time_point now) {
    ConsultRequest req;
    if (!decode(std::span<const std::uint8_t>(f.payload.data(), f.payload.size()), req)) {
      protocol_error(id, c, 0, "malformed consult payload");
      return;
    }
    if (c.closing) return;  // peer half-closed: no channel to answer on
    stats.consults.inc();
    if (svc.draining()) {
      stats.shed_drain.inc();
      send_shed(id, c, f.request_id, Status::unavailable("service is draining"),
                opts.retry_after_ms);
      return;
    }
    if (queue.size() >= opts.max_queue) {
      stats.shed_queue.inc();
      send_shed(id, c, f.request_id, Status::unavailable("admission queue full"),
                retry_hint());
      return;
    }
    if (f.deadline_us > 0 && f.deadline_us < opts.min_deadline_us) {
      stats.shed_deadline.inc();
      send_shed(id, c, f.request_id,
                Status::deadline_exceeded("deadline budget below service minimum"), 0);
      return;
    }
    Pending p;
    p.conn = id;
    p.rid = f.request_id;
    p.participant = req.participant;
    p.amount = req.amount;
    p.admitted = now;
    if (f.deadline_us > 0) {
      p.has_deadline = true;
      p.deadline =
          now + std::chrono::microseconds(std::min<std::uint64_t>(f.deadline_us, kMaxDeadlineUs));
    }
    queue.push_back(p);
    c.outstanding++;
    Counts::raise(stats.peak_queue, queue.size());
  }

  // --- dispatch + completion ------------------------------------------------

  std::future<engine::EngineResult> submit(std::uint32_t participant, double amount) {
    if (engine != nullptr) return engine->submit(participant, amount);
    PumpOp op;
    op.participant = participant;
    op.amount = amount;
    std::future<engine::EngineResult> fut = op.result.get_future();
    if (!pump.push(std::move(op))) {
      std::promise<engine::EngineResult> p;
      p.set_value({Status::unavailable("backend pump is shut down"), {}});
      return p.get_future();
    }
    return fut;
  }

  void dispatch(Clock::time_point now) {
    while (!queue.empty() && inflight.size() < opts.max_inflight) {
      Pending p = std::move(queue.front());
      queue.pop_front();
      auto it = conns.find(p.conn);
      if (it == conns.end()) continue;  // client left while queued
      if (p.has_deadline && now >= p.deadline) {
        // The budget ran out while parked: drop, do not compute -- the LP
        // seconds would buy an answer nobody is waiting for.
        stats.shed_deadline.inc();
        it->second.outstanding--;
        send_shed(p.conn, it->second, p.rid,
                  Status::deadline_exceeded("deadline expired in admission queue"), 0);
        continue;
      }
      InFlight f;
      f.conn = p.conn;
      f.rid = p.rid;
      f.has_deadline = p.has_deadline;
      f.deadline = p.deadline;
      f.admitted = p.admitted;
      f.fut = submit(p.participant, p.amount);
      inflight.push_back(std::move(f));
      Counts::raise(stats.peak_inflight, inflight.size());
    }
  }

  void complete(InFlight& f, Clock::time_point now) {
    engine::EngineResult res = f.fut.get();
    auto it = conns.find(f.conn);
    if (it != conns.end()) it->second.outstanding--;
    if (it == conns.end() || it->second.closing) return;  // resolved, unreceivable
    Conn& c = it->second;
    if (f.has_deadline && now > f.deadline) {
      // Late answer: the client's budget is spent, it has (or should have)
      // moved on. A definite deadline_exceeded beats a grant that desyncs
      // the two sides' idea of what was admitted.
      stats.late_drop.inc();
      send_shed(f.conn, c, f.rid, Status::deadline_exceeded("answer completed too late"), 0);
      return;
    }
    ConsultReply m;
    m.code = res.status.code();
    m.message = res.status.message();
    const alloc::AllocationPlan& plan = res.plan;
    if (plan.satisfied() && !plan.certified) {
      // Never let an uncertified grant cross the wire, whatever the backend
      // was configured to do. Deny explicitly instead.
      m.code = StatusCode::Denied;
      m.message = "uncertified grant suppressed at the wire boundary";
    } else if (plan.satisfied()) {
      m.has_plan = true;
      m.theta = plan.theta;
      m.certified = plan.certified;
      m.decision_epoch = plan.decision_epoch;
      m.total_drawn = plan.total_drawn();
      for (std::size_t k = 0; k < plan.draw.size(); ++k)
        if (plan.draw[k] != 0.0)
          m.draws.push_back({static_cast<std::uint32_t>(k), plan.draw[k]});
    }
    h_consult->observe(seconds_between(f.admitted, now));
    send_consult_reply(f.conn, c, f.rid, m);
  }

  void sweep(Clock::time_point now) {
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(inflight[i], now);
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
      } else {
        ++i;
      }
    }
  }

  // --- connection lifecycle -------------------------------------------------

  void accept_ready(Clock::time_point now) {
    while (true) {
      const int raw = ::accept(listener.get(), nullptr, nullptr);
      if (raw < 0) return;
      Fd fd(raw);
      if (!set_nonblocking(fd.get())) continue;
      set_nodelay(fd.get());
      if (conns.size() >= opts.max_connections) {
        // Turn the peer away explicitly: one best-effort GoAway beats a
        // silent close the client would misread as a crash.
        std::vector<std::uint8_t> buf;
        Frame f;
        f.type = FrameType::GoAway;
        encode_frame(f, buf);
        (void)write_some(fd.get(), buf.data(), buf.size());
        stats.rejected.inc();
        continue;
      }
      const std::uint64_t id = next_conn_id++;
      Conn c;
      c.fd = std::move(fd);
      c.dec = FrameDecoder(opts.max_payload);
      c.last_frame = now;
      conns.emplace(id, std::move(c));
      stats.accepted.inc();
      Counts::raise(stats.peak_connections, conns.size());
      if (svc.draining()) send_goaway(id, conns.at(id));
    }
  }

  void read_ready(std::uint64_t id, Conn& c, Clock::time_point now) {
    std::uint8_t buf[4096];
    std::size_t total = 0;
    while (total < kReadRound) {
      bool eof = false;
      const std::ptrdiff_t n = read_some(c.fd.get(), buf, sizeof(buf), eof);
      if (n < 0) {
        close_conn(id, c);
        return;
      }
      if (n > 0) {
        total += static_cast<std::size_t>(n);
        stats.bytes_rx.inc(static_cast<std::uint64_t>(n));
        c.dec.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      }
      if (eof) {
        c.closing = true;
        break;
      }
      if (n < static_cast<std::ptrdiff_t>(sizeof(buf))) break;
    }
    Frame f;
    while (true) {
      const FrameDecoder::Result r = c.dec.next(f);
      if (r == FrameDecoder::Result::Frame) {
        handle_frame(id, c, f, now);
        continue;
      }
      if (r == FrameDecoder::Result::Error)
        protocol_error(id, c, static_cast<std::uint8_t>(c.dec.error()),
                       to_string(c.dec.error()));
      break;
    }
  }

  void write_ready(std::uint64_t id, Conn& c, Clock::time_point now) {
    if (c.out_off >= c.out.size()) return;
    const std::ptrdiff_t n =
        write_some(c.fd.get(), c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n < 0) {
      close_conn(id, c);
      return;
    }
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      c.stall_since = now;
    }
    if (c.out_off >= c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    } else if (c.out_off > (std::size_t{1} << 16)) {
      c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
      c.out_off = 0;
    }
  }

  void close_conn(std::uint64_t id, Conn& c) {
    c.closing = true;
    c.out.clear();
    c.out_off = 0;
    c.fd.reset();
    (void)id;
  }

  /// Reap connections that are closed, flushed-and-closing, stalled, or
  /// idle past the timeout.
  void reap(Clock::time_point now) {
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = it->second;
      const bool flushed = c.out_off >= c.out.size();
      bool dead = !c.fd.valid() || (c.closing && flushed);
      if (!dead && !flushed &&
          seconds_between(c.stall_since, now) * 1000.0 >
              static_cast<double>(opts.write_stall_timeout_ms)) {
        stats.stall_closed.inc();
        dead = true;
      }
      if (!dead && flushed && c.outstanding == 0 && !c.closing &&
          seconds_between(c.last_frame, now) * 1000.0 >
              static_cast<double>(opts.idle_timeout_ms)) {
        stats.idle_closed.inc();
        dead = true;
      }
      if (dead) {
        stats.closed.inc();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- drain ----------------------------------------------------------------

  void begin_drain(Clock::time_point now) {
    drain_started = true;
    drain_deadline = now + std::chrono::milliseconds(opts.drain_grace_ms);
    listener.reset();  // stop accepting; clients fail over on connect refusal
    for (auto& [id, c] : conns)
      if (c.fd.valid() && !c.closing) send_goaway(id, c);
    // Shed everything still parked in the admission queue with a definite
    // unavailable -- EnforcementEngine::shutdown semantics: never burn LP
    // time on a caller that must fail over anyway.
    for (Pending& p : queue) {
      auto it = conns.find(p.conn);
      if (it == conns.end()) continue;
      it->second.outstanding--;
      stats.shed_drain.inc();
      send_shed(p.conn, it->second, p.rid, Status::unavailable("service is draining"),
                opts.retry_after_ms);
    }
    queue.clear();
  }

  /// True when drain has fully settled: no in-flight work and every
  /// surviving connection flushed (or the grace period expired).
  bool drain_complete(Clock::time_point now) {
    if (!inflight.empty()) {
      if (now < drain_deadline) return false;
      // Grace expired with answers still pending: resolve them definitely
      // (the abandoned futures are harmless -- the backend's result lands
      // in a promise nobody reads), then allow one short flush window so
      // the unavailable replies actually reach the peers.
      for (InFlight& f : inflight) {
        auto it = conns.find(f.conn);
        if (it == conns.end()) continue;
        it->second.outstanding--;
        send_shed(f.conn, it->second, f.rid,
                  Status::unavailable("drain grace period expired"), opts.retry_after_ms);
      }
      inflight.clear();
      drain_deadline = now + std::chrono::milliseconds(100);
      return false;
    }
    for (auto& [id, c] : conns)
      if (c.fd.valid() && c.out_off < c.out.size() && now < drain_deadline) return false;
    return true;
  }

  // --- the loop -------------------------------------------------------------

  void run() {
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> ids;
    while (true) {
      const bool busy = !inflight.empty() || !queue.empty();
      pfds.clear();
      ids.clear();
      if (listener.valid()) {
        pfds.push_back({listener.get(), POLLIN, 0});
        ids.push_back(0);
      }
      for (auto& [id, c] : conns) {
        if (!c.fd.valid()) continue;
        short ev = 0;
        if (!c.closing) ev |= POLLIN;
        if (c.out_off < c.out.size()) ev |= POLLOUT;
        if (ev == 0) continue;
        pfds.push_back({c.fd.get(), ev, 0});
        ids.push_back(id);
      }
      // With work in flight the loop busy-polls: backend answers land in
      // microseconds and a millisecond poll tick would dominate the p99.
      // Idle, it parks for a full tick.
      const int timeout_ms = busy ? 0 : 20;
      (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
      const Clock::time_point now = Clock::now();

      if (svc.draining() && !drain_started) begin_drain(now);

      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        if (ids[i] == 0 && listener.valid() && pfds[i].fd == listener.get()) {
          accept_ready(now);
          continue;
        }
        auto it = conns.find(ids[i]);
        if (it == conns.end() || !it->second.fd.valid()) continue;
        if (pfds[i].revents & (POLLERR | POLLNVAL)) {
          close_conn(ids[i], it->second);
          continue;
        }
        if (pfds[i].revents & (POLLIN | POLLHUP)) read_ready(ids[i], it->second, now);
        if (it->second.fd.valid() && (pfds[i].revents & POLLOUT))
          write_ready(ids[i], it->second, now);
      }

      if (!drain_started) dispatch(now);
      sweep(now);
      // Opportunistic flush: replies generated this round go out now, not a
      // poll tick later.
      for (auto& [id, c] : conns)
        if (c.fd.valid() && c.out_off < c.out.size()) write_ready(id, c, now);
      reap(now);

      g_conns->set(static_cast<double>(conns.size()));
      g_queue->set(static_cast<double>(queue.size()));
      g_inflight->set(static_cast<double>(inflight.size()));

      if (drain_started && queue.empty() && drain_complete(Clock::now())) break;
    }
    // Final accounting: every connection closes, every gauge lands on zero.
    stats.closed.inc(conns.size());
    conns.clear();
    g_conns->set(0.0);
    g_queue->set(0.0);
    g_inflight->set(0.0);
  }

  AgoraService& svc;
  alloc::AllocatorBase& backend;
  ServiceOptions opts;
  engine::EnforcementEngine* engine = nullptr;

  Fd listener;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  std::deque<Pending> queue;
  std::vector<InFlight> inflight;
  bool drain_started = false;
  Clock::time_point drain_deadline{};

  BlockingQueue<PumpOp> pump;
  std::thread pump_thread;

  Counts stats;  ///< loop-thread writes, relaxed-atomic snapshot reads

  obs::Gauge *g_conns = nullptr, *g_queue = nullptr, *g_inflight = nullptr;
  obs::LogHistogram* h_consult = nullptr;
};

AgoraService::AgoraService(alloc::AllocatorBase& backend, ServiceOptions opts)
    : backend_(backend), opts_(std::move(opts)) {}

AgoraService::~AgoraService() {
  stop();
  delete impl_;
}

Status AgoraService::start() {
  AGORA_REQUIRE(impl_ == nullptr && !loop_.joinable(), "AgoraService::start called twice");
  impl_ = new Impl(*this);
  std::string err;
  impl_->listener = listen_tcp(opts_.port, port_, err);
  if (!impl_->listener.valid()) {
    delete impl_;
    impl_ = nullptr;
    return Status::io("bind 127.0.0.1:" + std::to_string(opts_.port) + ": " + err);
  }
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] {
    impl_->run();
    running_.store(false, std::memory_order_release);
  });
  return Status();
}

void AgoraService::stop() {
  request_drain();
  if (loop_.joinable()) loop_.join();
}

ServiceStats AgoraService::stats() const {
  // Relaxed-atomic snapshot: race-free while the service runs, exact once
  // stop() has joined the loop thread.
  if (impl_ == nullptr) return {};
  return impl_->stats.snapshot();
}

}  // namespace agora::net
