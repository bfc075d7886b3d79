// Loopback integration tests for the wire boundary (DESIGN.md §14): the
// framed service fronting a real EnforcementEngine (or, for the overload
// test, a gated direct Allocator), every consult reaching the backend
// through the service's serial pump, driven by net::Client and by raw
// sockets for the adversarial cases. Covers decision parity with the
// direct allocator on one shard and on two, explicit load shedding with
// retry-after hints, deadline propagation (shed on arrival, dropped in
// queue, late answers replaced), malformed-input handling (Error frame +
// close), graceful drain (GoAway, every in-flight request resolved), and
// the obs counters.
#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "agree/matrices.h"
#include "alloc/allocator.h"
#include "alloc/ledger.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/service.h"
#include "net/socket.h"
#include "net/wire.h"

namespace agora::net {
namespace {

using Clock = std::chrono::steady_clock;

agree::AgreementSystem small_economy(std::size_t n = 6, double share = 0.15) {
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 10.0 + static_cast<double>(i);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      if (a != b) sys.relative(a, b) = share;
  return sys;
}

/// Two islands of `per` participants with no agreement between them: two
/// components, so an engine asked for two shards runs one per island.
agree::AgreementSystem two_island_economy(std::size_t per = 4, double share = 0.2) {
  agree::AgreementSystem sys(2 * per);
  for (std::size_t i = 0; i < 2 * per; ++i) sys.capacity[i] = 8.0 + static_cast<double>(i);
  for (std::size_t a = 0; a < 2 * per; ++a)
    for (std::size_t b = 0; b < 2 * per; ++b)
      if (a != b && a / per == b / per) sys.relative(a, b) = share;
  return sys;
}

struct Harness {
  agree::AgreementSystem sys;
  engine::EnforcementEngine engine;
  AgoraService service;

  explicit Harness(ServiceOptions sopts = {}, std::size_t threads = 2,
                   agree::AgreementSystem economy = small_economy())
      : sys(std::move(economy)),
        engine(sys, [&] {
          engine::EngineOptions e;
          e.threads = threads;
          return e;
        }()),
        service(engine, sopts) {
    const Status st = service.start();
    if (!st.ok()) throw std::runtime_error("service start failed: " + st.to_string());
  }

  ClientOptions client_options() const {
    ClientOptions c;
    c.endpoints = {Endpoint{"", service.port()}};
    return c;
  }
};

/// Blocking read of exactly one frame from a raw socket, with timeout.
bool read_one_frame(int fd, Frame& out, int timeout_ms = 2000) {
  FrameDecoder dec(kDefaultMaxPayload);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint8_t buf[4096];
  while (Clock::now() < deadline) {
    if (dec.next(out) == FrameDecoder::Result::Frame) return true;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    bool eof = false;
    const std::ptrdiff_t n = read_some(fd, buf, sizeof(buf), eof);
    if (n > 0) dec.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    if (n < 0 || (eof && n == 0)) return dec.next(out) == FrameDecoder::Result::Frame;
  }
  return dec.next(out) == FrameDecoder::Result::Frame;
}

/// True when the peer has closed (EOF within timeout).
bool peer_closed(int fd, int timeout_ms = 2000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint8_t buf[256];
  while (Clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    bool eof = false;
    const std::ptrdiff_t n = read_some(fd, buf, sizeof(buf), eof);
    if (n < 0 || eof) return true;
  }
  return false;
}

// ----------------------------------------------------------------- parity ---

TEST(NetService, ConsultsMatchTheDirectAllocatorDecisionForDecision) {
  // One connected economy (one shard), then two islands on two shards: the
  // service's one pump serves both layouts.
  const struct {
    agree::AgreementSystem economy;
    std::size_t shards;
  } cases[] = {{small_economy(), 1}, {two_island_economy(), 2}};
  for (const auto& c : cases) {
    Harness h(ServiceOptions{}, /*threads=*/2, c.economy);
    ASSERT_EQ(h.engine.num_shards(), c.shards);
    alloc::Allocator direct(h.sys, alloc::AllocatorOptions{});
    Client client(h.client_options());
    for (std::uint32_t a = 0; a < h.sys.size(); ++a) {
      for (const double amount : {0.5, 2.0, 7.5, 1.0e5}) {
        const ConsultOutcome out = client.consult(a, amount);
        const alloc::AllocationPlan want = direct.allocate(a, amount);
        const std::string where = std::to_string(c.shards) + " shards a=" +
                                  std::to_string(a) + " amount=" + std::to_string(amount);
        switch (want.status) {
          case alloc::PlanStatus::Satisfied: {
            ASSERT_EQ(out.status.code(), StatusCode::Ok)
                << where << ": " << out.status.to_string();
            EXPECT_TRUE(out.reply.certified) << "uncertified grant crossed the wire";
            EXPECT_NEAR(out.reply.total_drawn, amount, 1e-7) << where;
            EXPECT_NEAR(out.reply.theta, want.theta, 1e-9) << where;
            double sum = 0.0;
            for (const WireDraw& d : out.reply.draws) {
              ASSERT_LT(d.participant, h.sys.size());
              EXPECT_NEAR(want.draw[d.participant], d.amount, 1e-9) << where;
              sum += d.amount;
            }
            EXPECT_NEAR(sum, amount, 1e-7) << where;
            break;
          }
          case alloc::PlanStatus::Insufficient:
            EXPECT_EQ(out.status.code(), StatusCode::Insufficient) << where;
            break;
          case alloc::PlanStatus::Denied:
            EXPECT_EQ(out.status.code(), StatusCode::Denied) << where;
            break;
          case alloc::PlanStatus::SolverFailed:
            EXPECT_EQ(out.status.code(), StatusCode::SolverFailed) << where;
            break;
        }
      }
    }
    const ServiceStats s = h.service.stats();
    EXPECT_EQ(s.consults, h.sys.size() * 4);
    EXPECT_EQ(s.answered, h.sys.size() * 4);
    EXPECT_EQ(s.malformed, 0u);
  }
}

TEST(NetService, PingAndInfoWork) {
  Harness h;
  Client client(h.client_options());
  EXPECT_TRUE(client.ping().ok());
  InfoReply info;
  ASSERT_TRUE(client.info(info).ok());
  EXPECT_EQ(info.participants, h.sys.size());
  EXPECT_EQ(info.draining, 0u);
}

// --------------------------------------------------------------- shedding ---

/// A backend whose allocate() blocks until the test opens its gate, over a
/// direct Allocator. Not an engine, so the service fronts it with its serial
/// pump: while the gate is shut, the one consult the pump took holds the
/// service's in-flight slot.
class GatedBackend : public alloc::AllocatorBase {
 public:
  explicit GatedBackend(agree::AgreementSystem sys) : inner_(std::move(sys)) {}

  std::size_t size() const override { return inner_.size(); }
  const agree::AgreementSystem& system() const override { return inner_.system(); }
  double available_to(std::size_t a) const override { return inner_.available_to(a); }
  alloc::AllocationPlan allocate(std::size_t a, double amount) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      opened_.wait(lock, [this] { return open_; });
    }
    return inner_.allocate(a, amount);
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    opened_.notify_all();
  }

 protected:
  void commit(const alloc::CapacityWrite& write) override {
    std::vector<double> next;
    alloc::next_capacities(inner_.system().capacity, write, next);
    inner_.set_capacities(next);
  }

 private:
  alloc::Allocator inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable opened_;
  bool open_ = false;
};

TEST(NetService, OverloadShedsExplicitlyWithRetryAfter) {
  // A tiny queue and in-flight window, the one slot held by a gated backend
  // until the queue has overflowed: a burst from several clients MUST shed
  // some requests with unavailable + a retry hint, and every request still
  // gets a definite answer.
  ServiceOptions sopts;
  sopts.max_queue = 2;
  sopts.max_inflight = 1;
  GatedBackend backend(small_economy());
  AgoraService service(backend, sopts);
  ASSERT_TRUE(service.start().ok());

  constexpr int kClients = 4, kPerClient = 50;
  std::atomic<std::uint64_t> definite{0}, shed{0}, hinted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copt;
      copt.endpoints = {Endpoint{"", service.port()}};
      copt.max_attempts = 1;  // observe the shed itself, not the retry
      copt.seed = static_cast<std::uint64_t>(t) + 1;
      Client client(copt);
      for (int i = 0; i < kPerClient; ++i) {
        const ConsultOutcome out =
            client.consult(static_cast<std::uint32_t>(i % 6), 0.25 + 0.001 * i, 2000);
        switch (out.status.code()) {
          case StatusCode::Ok:
          case StatusCode::Insufficient:
          case StatusCode::Denied:
            definite++;
            break;
          case StatusCode::Unavailable:
            shed++;
            definite++;
            if (out.reply.retry_after_ms > 0) hinted++;
            break;
          default:
            definite++;
            break;
        }
      }
    });
  }
  // Four clients against one held slot and a queue of two: the fourth
  // consult in flight overflows the queue. Then let the backend answer.
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (service.stats().shed_queue == 0 && Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  backend.open();
  for (auto& t : threads) t.join();
  EXPECT_EQ(definite.load(), kClients * kPerClient) << "a request was lost";
  const ServiceStats s = service.stats();
  // Under 4 clients hammering a queue of 2 with one in-flight slot the
  // service MUST shed, and shed replies carry a retry hint. (shed counted
  // client-side may also include client-local verdicts, so only the
  // service's own counter is compared exactly against zero.)
  EXPECT_GT(s.shed_queue, 0u) << "overload was not shed explicitly";
  EXPECT_GT(shed.load(), 0u);
  EXPECT_GT(hinted.load(), 0u) << "shed replies carried no hint";
  EXPECT_LE(s.peak_queue, 2u);
  EXPECT_LE(s.peak_inflight, 1u);
  // Every consult got a definite reply (sheds are answered too).
  EXPECT_EQ(s.consults, s.answered);
  EXPECT_LE(s.shed_queue + s.shed_drain + s.shed_deadline, s.answered);
}

TEST(NetService, ClientHonorsRetryAfterAndEventuallySucceeds) {
  ServiceOptions sopts;
  sopts.max_queue = 1;
  sopts.max_inflight = 1;
  Harness h(sopts, /*threads=*/1);
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copt = h.client_options();
      copt.max_attempts = 16;
      copt.seed = static_cast<std::uint64_t>(t) + 7;
      Client client(copt);
      for (int i = 0; i < 20; ++i)
        if (client.consult(0, 0.5, 5000).status.code() == StatusCode::Ok) ok++;
    });
  }
  for (auto& t : threads) t.join();
  // With retries the transient sheds are absorbed; all calls land.
  EXPECT_EQ(ok.load(), 60u);
}

// --------------------------------------------------------------- deadlines ---

TEST(NetService, ArrivalBelowMinimumDeadlineIsShedAsDeadlineExceeded) {
  ServiceOptions sopts;
  sopts.min_deadline_us = 60'000'000;  // one minute: nothing qualifies
  Harness h(sopts);
  ClientOptions copt = h.client_options();
  copt.max_attempts = 1;
  Client client(copt);
  const ConsultOutcome out = client.consult(0, 0.5, 500);
  EXPECT_EQ(out.status.code(), StatusCode::DeadlineExceeded);
  const ServiceStats s = h.service.stats();
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.answered, 1u);  // the shed reply IS the definite answer
}

TEST(NetService, ZeroDeadlineMeansNoDeadline) {
  Harness h;
  // A raw frame with deadline_us = 0 must be admitted and answered.
  std::string err;
  Fd fd = connect_tcp("", h.service.port(), 1000, err);
  ASSERT_TRUE(fd.valid()) << err;
  Frame f;
  f.type = FrameType::Consult;
  f.request_id = 42;
  f.deadline_us = 0;
  encode(ConsultRequest{1, 0.5}, f.payload);
  std::vector<std::uint8_t> buf;
  encode_frame(f, buf);
  std::size_t off = 0;
  while (off < buf.size()) {
    const std::ptrdiff_t n = write_some(fd.get(), buf.data() + off, buf.size() - off);
    ASSERT_GE(n, 0);
    off += static_cast<std::size_t>(n);
  }
  Frame reply;
  ASSERT_TRUE(read_one_frame(fd.get(), reply));
  EXPECT_EQ(reply.type, FrameType::ConsultReply);
  EXPECT_EQ(reply.request_id, 42u);
  ConsultReply m;
  ASSERT_TRUE(decode(std::span<const std::uint8_t>(reply.payload.data(),
                                                   reply.payload.size()),
                     m));
  EXPECT_EQ(m.code, StatusCode::Ok);
}

// --------------------------------------------------------------- malformed ---

TEST(NetService, GarbageBytesGetAnErrorFrameAndAClose) {
  Harness h;
  std::string err;
  Fd fd = connect_tcp("", h.service.port(), 1000, err);
  ASSERT_TRUE(fd.valid()) << err;
  // At least kHeaderSize bytes, so the decoder has a full (bogus) header
  // to reject rather than waiting for more.
  std::string garbage = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  garbage.resize(2 * kHeaderSize, '#');
  ASSERT_GT(write_some(fd.get(), reinterpret_cast<const std::uint8_t*>(garbage.data()),
                       garbage.size()),
            0);
  Frame reply;
  ASSERT_TRUE(read_one_frame(fd.get(), reply)) << "no Error frame before close";
  EXPECT_EQ(reply.type, FrameType::Error);
  WireError we;
  ASSERT_TRUE(
      decode(std::span<const std::uint8_t>(reply.payload.data(), reply.payload.size()), we));
  EXPECT_EQ(we.code, static_cast<std::uint8_t>(DecodeError::BadMagic));
  EXPECT_TRUE(peer_closed(fd.get()));
  // The service survives and still answers a well-behaved client.
  Client client(h.client_options());
  EXPECT_TRUE(client.ping().ok());
  EXPECT_GE(h.service.stats().malformed, 1u);
}

TEST(NetService, ServerTypeFrameFromClientIsAProtocolError) {
  Harness h;
  std::string err;
  Fd fd = connect_tcp("", h.service.port(), 1000, err);
  ASSERT_TRUE(fd.valid()) << err;
  Frame f;
  f.type = FrameType::ConsultReply;  // clients must not send replies
  f.request_id = 1;
  std::vector<std::uint8_t> buf;
  encode_frame(f, buf);
  ASSERT_GT(write_some(fd.get(), buf.data(), buf.size()), 0);
  Frame reply;
  ASSERT_TRUE(read_one_frame(fd.get(), reply));
  EXPECT_EQ(reply.type, FrameType::Error);
  EXPECT_TRUE(peer_closed(fd.get()));
}

// ------------------------------------------------------------------- drain ---

TEST(NetService, DrainSendsGoAwayResolvesEverythingAndStops) {
  Harness h;
  Client client(h.client_options());
  ASSERT_EQ(client.consult(0, 0.5).status.code(), StatusCode::Ok);

  // A raw idle connection observes the GoAway when drain begins. Exchange
  // a Ping first: connect_tcp returns on the kernel handshake, and a drain
  // racing ahead of the loop's accept would close the listener before this
  // connection ever existed service-side.
  std::string err;
  Fd idle = connect_tcp("", h.service.port(), 1000, err);
  ASSERT_TRUE(idle.valid()) << err;
  {
    Frame ping;
    ping.type = FrameType::Ping;
    ping.request_id = 7;
    std::vector<std::uint8_t> buf;
    encode_frame(ping, buf);
    ASSERT_GT(write_some(idle.get(), buf.data(), buf.size()), 0);
    Frame pong;
    ASSERT_TRUE(read_one_frame(idle.get(), pong));
    ASSERT_EQ(pong.type, FrameType::Pong);
  }

  h.service.request_drain();
  Frame goaway;
  ASSERT_TRUE(read_one_frame(idle.get(), goaway));
  EXPECT_EQ(goaway.type, FrameType::GoAway);

  // The loop exits on its own once drained; stop() just joins.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (h.service.running() && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(h.service.running());
  h.service.stop();

  // Post-drain requests get a definite client-side failure, not a hang.
  ClientOptions copt = h.client_options();
  copt.max_attempts = 1;
  copt.connect_timeout_ms = 200;
  Client late(copt);
  const ConsultOutcome out = late.consult(0, 0.5, 300);
  EXPECT_FALSE(out.status.ok());
  EXPECT_GE(h.service.stats().goaway_sent, 1u);
}

TEST(NetService, DrainUnderLoadResolvesEveryInFlightRequest) {
  ServiceOptions sopts;
  sopts.max_queue = 256;
  sopts.drain_grace_ms = 3000;
  Harness h(sopts, /*threads=*/2);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0}, resolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copt = h.client_options();
      copt.max_attempts = 1;
      copt.connect_timeout_ms = 200;
      copt.seed = static_cast<std::uint64_t>(t) + 11;
      Client client(copt);
      while (!stop.load(std::memory_order_relaxed)) {
        sent++;
        const ConsultOutcome out =
            client.consult(static_cast<std::uint32_t>(sent % 6), 0.25, 1000);
        // Every call must resolve with SOME definite status (including
        // client-side unavailable after the listener closes) -- never hang.
        (void)out;
        resolved++;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  h.service.request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  h.service.stop();
  EXPECT_EQ(sent.load(), resolved.load());
  const ServiceStats s = h.service.stats();
  // Conservation at the service: every admitted consult got a definite
  // reply (sheds included), none was silently dropped.
  EXPECT_EQ(s.consults, s.answered);
}

// ---------------------------------------------------------------- failover ---

TEST(NetClient, FailsOverToASecondReplica) {
  Harness a;
  Harness b;
  ClientOptions copt;
  copt.endpoints = {Endpoint{"", a.service.port()}, Endpoint{"", b.service.port()}};
  copt.max_attempts = 6;
  Client client(copt);
  ASSERT_EQ(client.consult(0, 0.5).status.code(), StatusCode::Ok);

  // Kill the replica the client is pinned to; the next consult must land on
  // the survivor via failover instead of failing.
  const std::size_t cur = client.endpoint_index();
  (cur == 0 ? a : b).service.stop();
  const ConsultOutcome out = client.consult(1, 0.5, 3000);
  EXPECT_EQ(out.status.code(), StatusCode::Ok) << out.status.to_string();
  EXPECT_GE(client.stats().failovers, 1u);
}

// ---------------------------------------------------------------- counters ---

TEST(NetService, StatsAndGaugesStayConsistent) {
  Harness h;
  {
    Client client(h.client_options());
    for (int i = 0; i < 20; ++i)
      ASSERT_TRUE(client.consult(static_cast<std::uint32_t>(i % 6), 0.5).status.ok());
  }
  h.service.stop();
  const ServiceStats s = h.service.stats();
  EXPECT_EQ(s.consults, 20u);
  EXPECT_EQ(s.answered, 20u);
  EXPECT_GE(s.frames_rx, 20u);
  EXPECT_GE(s.frames_tx, 20u);
  EXPECT_GT(s.bytes_rx, 0u);
  EXPECT_GT(s.bytes_tx, 0u);
  EXPECT_GE(s.accepted, 1u);
  EXPECT_EQ(s.accepted, s.closed) << "connection leak";
}

}  // namespace
}  // namespace agora::net
