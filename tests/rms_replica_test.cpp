// Unit tests for the replicated GRM: the factored-out deterministic state
// machine (snapshot/restore/digest, bounded decided cache), Raft-lite
// leader election and log replication over the simulated bus, NotLeader
// client redirects and no-response failover, snapshot catch-up for lagging
// replicas, conflicting-suffix truncation, and bit-identical replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "agree/matrices.h"
#include "agree/topology.h"
#include "rms/bus.h"
#include "rms/client.h"
#include "rms/grm.h"
#include "rms/lrm.h"
#include "rms/replica/group.h"
#include "util/error.h"

namespace agora::rms {
namespace {

using replica::RaftNode;
using replica::ReplicatedGrm;

std::vector<agree::AgreementSystem> two_site_systems(double cap0 = 2.0, double cap1 = 10.0,
                                                     double share10 = 0.5) {
  agree::AgreementSystem cpu(2);
  cpu.capacity = {cap0, cap1};
  cpu.relative(1, 0) = share10;
  return {cpu};
}

AllocationRequest make_request(std::uint64_t id, std::size_t principal, double amount,
                               double duration = 0.0) {
  AllocationRequest req;
  req.request_id = id;
  req.principal = principal;
  req.amounts = {amount};
  req.duration = duration;
  return req;
}

// ---------------------------------------------------------- state machine ---

TEST(GrmStateMachineTest, SnapshotRestoreRoundTripsDigest) {
  GrmStateMachine a(two_site_systems(), {}, {});
  GrmStateMachine b(two_site_systems(), {}, {});
  a.register_site(0);
  a.register_site(1);
  AvailabilityReport rep;
  rep.lrm = 1;
  rep.available = {7.5};
  rep.report_seq = 3;
  a.apply_report(rep, 1.0);
  (void)a.decide(make_request(1, 0, 1.5), 2.0, true);
  (void)a.decide(make_request(2, 0, 100.0), 2.5, true);  // denied
  EXPECT_NE(a.digest(), b.digest());

  b.restore(a.snapshot());
  EXPECT_EQ(a.digest(), b.digest());
  // The restored machine decides future requests identically.
  const auto da = a.decide(make_request(3, 1, 2.0), 3.0, true);
  const auto db = b.decide(make_request(3, 1, 2.0), 3.0, true);
  EXPECT_EQ(da.reply.granted, db.reply.granted);
  EXPECT_EQ(da.reply.draws, db.reply.draws);
  EXPECT_EQ(a.digest(), b.digest());
}

/// Eight sites on a complete graph of 0.12 shares, capacities 5 + i, every
/// site registered and none reporting: the economy of the drain and
/// restore tests below.
GrmStateMachine eight_site_machine() {
  agree::AgreementSystem cpu(8);
  cpu.relative = agree::complete_graph(8, 0.12);
  for (std::size_t i = 0; i < 8; ++i) cpu.capacity[i] = 5.0 + static_cast<double>(i);
  GrmStateMachine sm({cpu}, {}, {});
  for (std::size_t s = 0; s < 8; ++s) sm.register_site(s);
  return sm;
}

/// Decision k of the warm-up stream (principal 3k mod 8, amount 1 + 0.1k).
AllocationRequest warmup_request(std::uint64_t k) {
  return make_request(1 + k, (3 * k) % 8, 1.0 + 0.1 * static_cast<double>(k));
}

/// Decision j of the stream that follows it (principal 5j mod 8, amount
/// 0.8 + 0.05j), which drains sites to exactly zero along the way.
AllocationRequest drain_request(std::uint64_t j) {
  return make_request(1000 + j, (5 * j) % 8, 0.8 + 0.05 * static_cast<double>(j));
}

TEST(GrmStateMachineTest, FullDrawLeavesNoNegativeCapacityBehind) {
  // A grant that draws a site dry must commit 0, not -eps: the next
  // decide() hands the known capacities to the allocator, which rejects a
  // negative one. Unclamped, decision j = 14 below threw on a site left at
  // -3.5e-18 by an earlier grant.
  GrmStateMachine sm = eight_site_machine();
  for (std::uint64_t k = 0; k < 20; ++k) (void)sm.decide(warmup_request(k), 1.0, true);
  for (std::uint64_t j = 0; j < 40; ++j) {
    GrmStateMachine::Decision d;
    ASSERT_NO_THROW(d = sm.decide(drain_request(j), 2.0, true)) << "decision " << j;
    EXPECT_NE(d.kind, GrmStateMachine::Decision::Kind::Unsatisfied) << "decision " << j;
  }
  const GrmSnapshot snap = sm.snapshot();
  for (double v : snap.known[0]) EXPECT_GE(v, 0.0);
}

TEST(GrmStateMachineTest, RestoredMachineDecidesInLockstep) {
  // A replica restored from a snapshot must decide every later request
  // exactly like the machine it was restored from: its rebuilt allocators
  // start with no solver history, so this pins that plans depend only on
  // replicated state.
  GrmStateMachine a = eight_site_machine();
  for (std::uint64_t k = 0; k < 20; ++k) (void)a.decide(warmup_request(k), 1.0, true);
  GrmStateMachine b = eight_site_machine();
  b.restore(a.snapshot());
  ASSERT_EQ(a.digest(), b.digest());
  std::uint64_t granted = 0;
  for (std::uint64_t j = 0; j < 40; ++j) {
    const auto da = a.decide(drain_request(j), 2.0, true);
    const auto db = b.decide(drain_request(j), 2.0, true);
    ASSERT_EQ(da.kind, db.kind) << "decision " << j;
    EXPECT_EQ(da.reply.draws, db.reply.draws) << "decision " << j;
    ASSERT_EQ(a.digest(), b.digest()) << "decision " << j;
    if (da.kind == GrmStateMachine::Decision::Kind::Granted) ++granted;
  }
  EXPECT_GT(granted, 0u);
}

TEST(GrmStateMachineTest, DecidedCacheEvictsFifoAndCounts) {
  StateMachineOptions opts;
  opts.decided_cache_capacity = 3;
  GrmStateMachine sm(two_site_systems(), {}, opts);
  sm.register_site(0);
  sm.register_site(1);
  for (std::uint64_t id = 1; id <= 5; ++id) (void)sm.decide(make_request(id, 0, 0.1), 1.0, true);
  EXPECT_EQ(sm.decided_size(), 3u);
  EXPECT_EQ(sm.decided_evictions(), 2u);
  // FIFO: the two oldest decisions are gone, the three newest remain.
  EXPECT_EQ(sm.cached(1), nullptr);
  EXPECT_EQ(sm.cached(2), nullptr);
  EXPECT_NE(sm.cached(3), nullptr);
  EXPECT_NE(sm.cached(5), nullptr);
  // Eviction state survives snapshot/restore bit-for-bit.
  GrmStateMachine other(two_site_systems(), {}, opts);
  other.restore(sm.snapshot());
  EXPECT_EQ(other.digest(), sm.digest());
  EXPECT_EQ(other.decided_evictions(), 2u);
}

TEST(GrmTest, BoundedDecidedCacheIsWiredThroughOptions) {
  MessageBus bus;
  GrmOptions gopts;
  gopts.decided_cache_capacity = 2;
  Grm grm(bus, two_site_systems(), {}, 0.0, gopts);
  Lrm lrm0(bus, {2.0}), lrm1(bus, {10.0});
  grm.register_lrm(0, lrm0.endpoint());
  grm.register_lrm(1, lrm1.endpoint());
  lrm0.attach(grm.endpoint(), 0);
  lrm1.attach(grm.endpoint(), 1);
  const EndpointId client = bus.add_endpoint([](const Envelope&) {});
  bus.run_until_idle();
  for (std::uint64_t id = 1; id <= 5; ++id) {
    bus.post(client, grm.endpoint(), make_request(id, 0, 0.05));
    bus.run_until_idle();
  }
  EXPECT_EQ(grm.decided_cached(), 2u);
  EXPECT_EQ(grm.decided_evictions(), 3u);
}

// -------------------------------------------------------------- elections ---

/// Replicated rig: R replicas over two LRM sites plus a failover client.
struct ReplicaRig {
  MessageBus bus;
  ReplicatedGrm grp;
  Lrm lrm0, lrm1;
  RequestClient client;

  static GrmOptions grm_options(std::size_t replicas, GrmOptions base = {}) {
    base.replication.replicas = replicas;
    return base;
  }
  static ClientOptions client_options(ClientOptions base = {}) {
    base.max_attempts = 8;
    base.retry_backoff = 0.5;
    base.backoff_cap = 2.0;
    base.deadline = 60.0;
    return base;
  }

  explicit ReplicaRig(std::size_t replicas, GrmOptions gopts = {}, ClientOptions copts = {})
      : grp(bus, two_site_systems(), {}, /*decision_latency=*/0.01,
            grm_options(replicas, gopts)),
        lrm0(bus, {2.0}, /*report_latency=*/0.01),
        lrm1(bus, {10.0}, /*report_latency=*/0.01),
        client(bus, grp.endpoints(), client_options(copts)) {
    grp.register_lrm(0, lrm0.endpoint());
    grp.register_lrm(1, lrm1.endpoint());
    lrm0.attach(grp.ingress(0), 0);
    lrm1.attach(grp.ingress(1), 1);
    grp.start();
  }

  /// Stop the protocol and drain the bus (tests call this before digest
  /// comparisons; heartbeats would otherwise keep the bus busy forever).
  void quiesce() {
    grp.stop();
    bus.run_until_idle();
  }
};

TEST(ReplicaTest, ElectsExactlyOneLeader) {
  ReplicaRig rig(3);
  rig.bus.run_until(10.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < rig.grp.size(); ++i) {
    if (rig.grp.node(i).role() == RaftNode::Role::Leader) ++leaders;
    EXPECT_EQ(rig.grp.node(i).term(), rig.grp.node(*leader).term());
    EXPECT_EQ(rig.grp.node(i).leader_hint(), leader);
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(rig.grp.stats().elections_won, 1u);
  rig.quiesce();
}

TEST(ReplicaTest, SingleReplicaGroupServesLikeAGrm) {
  ReplicaRig rig(1);
  rig.bus.run_until(3.0);
  ASSERT_TRUE(rig.grp.leader().has_value());
  rig.client.submit(make_request(1, 0, 1.0));
  rig.bus.run_until(10.0);
  ASSERT_TRUE(rig.client.resolved(1));
  EXPECT_TRUE(rig.client.outcome(1).reply.granted);
  // A physical hold exists and exactly the granted amount left the pool (a
  // grant may split its draw across both sites).
  EXPECT_GE(rig.lrm0.active_reservations() + rig.lrm1.active_reservations(), 1u);
  EXPECT_DOUBLE_EQ(rig.lrm0.available()[0] + rig.lrm1.available()[0], 12.0 - 1.0);
  rig.quiesce();
}

TEST(ReplicaTest, CommitsOnMajorityAndReplicasConverge) {
  ReplicaRig rig(3);
  rig.bus.run_until(5.0);
  ASSERT_TRUE(rig.grp.leader().has_value());
  for (std::uint64_t id = 1; id <= 6; ++id) {
    rig.client.submit(make_request(id, id % 2, 0.5));
    rig.bus.run_until(5.0 + static_cast<double>(id));
  }
  rig.bus.run_until(15.0);
  rig.quiesce();
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(rig.client.resolved(id)) << "request " << id;
    EXPECT_TRUE(rig.client.outcome(id).reply.granted) << "request " << id;
  }
  // Every replica applied the same committed log: bit-identical machines.
  EXPECT_TRUE(rig.grp.converged());
  const auto& sm = rig.grp.node(0).machine();
  EXPECT_EQ(sm.decisions(), 6u);
  EXPECT_EQ(sm.grants(), 6u);
  // Physical holds exist at the LRMs and the pool shrank by exactly the
  // granted total (a grant may split its draw across both sites).
  EXPECT_GE(rig.lrm0.active_reservations() + rig.lrm1.active_reservations(), 6u);
  EXPECT_DOUBLE_EQ(rig.lrm0.available()[0] + rig.lrm1.available()[0], 12.0 - 6 * 0.5);
  // The log replicated beyond the leader.
  for (std::size_t i = 0; i < rig.grp.size(); ++i)
    EXPECT_EQ(rig.grp.node(i).applied_index(), rig.grp.node(0).applied_index());
}

TEST(ReplicaTest, FollowerRedirectsClientToLeader) {
  MessageBus bus;
  GrmOptions gopts;
  gopts.replication.replicas = 3;
  ReplicatedGrm grp(bus, two_site_systems(), {}, 0.01, gopts);
  Lrm lrm0(bus, {2.0}, 0.01), lrm1(bus, {10.0}, 0.01);
  grp.register_lrm(0, lrm0.endpoint());
  grp.register_lrm(1, lrm1.endpoint());
  lrm0.attach(grp.ingress(0), 0);
  lrm1.attach(grp.ingress(1), 1);
  grp.start();
  bus.run_until(5.0);
  const auto leader = grp.leader();
  ASSERT_TRUE(leader.has_value());

  // Point the client at a follower first: the redirect must re-target it.
  std::vector<EndpointId> targets = grp.endpoints();
  std::rotate(targets.begin(), targets.begin() + static_cast<std::ptrdiff_t>((*leader + 1) % 3),
              targets.end());
  ASSERT_NE(targets[0], grp.node(*leader).endpoint());
  ClientOptions copts = ReplicaRig::client_options();
  RequestClient client(bus, targets, copts);
  client.submit(make_request(1, 0, 1.0));
  bus.run_until(15.0);
  ASSERT_TRUE(client.resolved(1));
  EXPECT_TRUE(client.outcome(1).reply.granted);
  EXPECT_GE(client.redirects(), 1u);
  EXPECT_EQ(client.target(), grp.node(*leader).endpoint());
  EXPECT_GE(grp.stats().redirects, 1u);
  grp.stop();
  bus.run_until_idle();
}

TEST(ReplicaTest, DuplicateRequestAnsweredFromReplicatedCache) {
  ReplicaRig rig(3);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  const EndpointId lead = rig.grp.node(*leader).endpoint();

  std::vector<AllocationReply> replies;
  const EndpointId probe = rig.bus.add_endpoint([&](const Envelope& env) {
    if (const auto* r = std::get_if<AllocationReply>(&env.payload)) replies.push_back(*r);
  });
  rig.bus.post(probe, lead, make_request(42, 1, 2.0));
  rig.bus.run_until(8.0);
  ASSERT_EQ(replies.size(), 1u);
  // The retry lands after commit: answered from the replicated decided
  // cache, not re-decided.
  rig.bus.post(probe, lead, make_request(42, 1, 2.0));
  rig.bus.run_until(10.0);
  rig.quiesce();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].granted, replies[1].granted);
  EXPECT_EQ(replies[0].draws, replies[1].draws);
  EXPECT_EQ(rig.grp.node(*leader).machine().decisions(), 1u);
  EXPECT_GE(rig.grp.node(*leader).machine().duplicate_requests(), 1u);
  EXPECT_TRUE(rig.grp.converged());
}

TEST(ReplicaTest, LaggingReplicaCatchesUpViaSnapshot) {
  GrmOptions gopts;
  gopts.replication.snapshot_threshold = 8;
  ReplicaRig rig(3, gopts);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  // Crash a follower for a long window while traffic flows.
  const std::size_t lagger = (*leader + 1) % 3;
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{rig.grp.node(lagger).endpoint(), 5.5, 40.0});
  rig.bus.set_fault_plan(plan);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    rig.client.submit(make_request(id, id % 2, 0.05));
    rig.bus.run_until(5.5 + static_cast<double>(id));
  }
  rig.bus.run_until(60.0);  // restart at 40, catch up, settle
  rig.quiesce();
  for (std::uint64_t id = 1; id <= 20; ++id) ASSERT_TRUE(rig.client.resolved(id));
  EXPECT_GE(rig.grp.node(lagger).stats().snapshots_installed, 1u);
  EXPECT_GE(rig.grp.stats().compactions, 1u);
  EXPECT_GE(rig.grp.node(lagger).snapshot_index(), 8u);
  EXPECT_TRUE(rig.grp.converged());
  EXPECT_EQ(rig.grp.node(lagger).applied_index(), rig.grp.node(*leader).applied_index());
}

TEST(ReplicaTest, DeposedLeaderTruncatesConflictingSuffix) {
  ReplicaRig rig(3);
  rig.bus.run_until(5.0);
  const auto old_leader = rig.grp.leader();
  ASSERT_TRUE(old_leader.has_value());
  const EndpointId old_ep = rig.grp.node(*old_leader).endpoint();

  // A probe isolated WITH the old leader keeps feeding it requests it can
  // append but never commit (its AppendEntries die at the partition cut).
  std::vector<AllocationReply> probe_replies;
  const EndpointId probe = rig.bus.add_endpoint([&](const Envelope& env) {
    if (const auto* r = std::get_if<AllocationReply>(&env.payload))
      probe_replies.push_back(*r);
  });
  FaultPlan plan;
  plan.partitions.push_back(Partition{5.0, 20.0, {old_ep, probe}});
  rig.bus.set_fault_plan(plan);

  rig.bus.run_until(6.0);
  rig.bus.post(probe, old_ep, make_request(100, 0, 0.5));
  rig.bus.post(probe, old_ep, make_request(101, 1, 0.5));
  // Majority side elects a new leader and serves clients meanwhile.
  rig.bus.run_until(12.0);
  const auto new_leader = rig.grp.leader();
  ASSERT_TRUE(new_leader.has_value());
  ASSERT_NE(*new_leader, *old_leader);
  rig.client.submit(make_request(1, 0, 0.5));
  rig.bus.run_until(18.0);
  ASSERT_TRUE(rig.client.resolved(1));
  EXPECT_TRUE(rig.client.outcome(1).reply.granted);
  // The minority leader never committed, so it never replied: no client
  // ever saw a grant the majority did not agree to.
  EXPECT_TRUE(probe_replies.empty());
  EXPECT_GT(rig.grp.node(*old_leader).last_index(),
            rig.grp.node(*old_leader).commit_index());

  // Heal: the old leader steps down, drops its uncommitted suffix, and
  // converges on the majority's history.
  rig.bus.run_until(30.0);
  rig.quiesce();
  EXPECT_EQ(rig.grp.node(*old_leader).role(), RaftNode::Role::Follower);
  EXPECT_GE(rig.grp.node(*old_leader).stats().suffix_truncations, 1u);
  EXPECT_TRUE(rig.grp.converged());
}

TEST(ReplicaTest, IngressForwardingReachesTheLeader) {
  ReplicaRig rig(3);
  rig.bus.run_until(5.0);
  ASSERT_TRUE(rig.grp.leader().has_value());
  // Capacity growth at a site reports to its (possibly follower) ingress
  // replica; the report must still land in the replicated log.
  rig.lrm1.adjust_capacity(0, 5.0);
  rig.bus.run_until(8.0);
  rig.quiesce();
  EXPECT_DOUBLE_EQ(rig.grp.node(0).machine().known_available(1, 0), 15.0);
  EXPECT_TRUE(rig.grp.converged());
}

TEST(ReplicaTest, AgreementUpdateFlowsThroughTheLog) {
  ReplicaRig rig(3);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  const EndpointId probe = rig.bus.add_endpoint([](const Envelope&) {});
  AgreementUpdate upd;
  upd.resource = 0;
  upd.from = 1;
  upd.to = 0;
  upd.share = 0.9;
  rig.bus.post(probe, rig.grp.node(*leader).endpoint(), upd);
  rig.bus.run_until(8.0);
  rig.quiesce();
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(rig.grp.node(i).machine().digest(), rig.grp.node(0).machine().digest());
  EXPECT_TRUE(rig.grp.converged());
}

TEST(ReplicaTest, MalformedRequestIsDeniedAtTheEdge) {
  ReplicaRig rig(3);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  std::vector<AllocationReply> replies;
  const EndpointId probe = rig.bus.add_endpoint([&](const Envelope& env) {
    if (const auto* r = std::get_if<AllocationReply>(&env.payload)) replies.push_back(*r);
  });
  AllocationRequest bad;
  bad.request_id = 7;
  bad.principal = 99;  // unknown principal: must never enter the log
  bad.amounts = {1.0};
  rig.bus.post(probe, rig.grp.node(*leader).endpoint(), bad);
  rig.bus.run_until(8.0);
  rig.quiesce();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].granted);
  EXPECT_NE(replies[0].reason.find("invalid"), std::string::npos);
  EXPECT_EQ(rig.grp.node(*leader).machine().decisions(), 0u);
  EXPECT_TRUE(rig.grp.converged());
}

TEST(ReplicaTest, SameSeedReplaysBitIdentically) {
  auto run = [](std::uint64_t seed) {
    GrmOptions gopts;
    gopts.replication.seed = seed;
    ReplicaRig rig(3, gopts);
    rig.bus.run_until(5.0);
    for (std::uint64_t id = 1; id <= 4; ++id) {
      rig.client.submit(make_request(id, id % 2, 0.5));
      rig.bus.run_until(5.0 + 2.0 * static_cast<double>(id));
    }
    rig.bus.run_until(20.0);
    rig.quiesce();
    struct Fingerprint {
      std::vector<std::uint64_t> digests;
      std::uint64_t term;
      std::uint64_t delivered;
      std::optional<std::size_t> leader;
    } fp;
    fp.digests = rig.grp.digests();
    fp.term = rig.grp.node(0).term();
    fp.delivered = rig.bus.delivered();
    fp.leader = rig.grp.leader();
    return std::make_tuple(fp.digests, fp.term, fp.delivered, fp.leader);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<0>(run(7)), std::vector<std::uint64_t>{});  // sanity
  // A different seed elects (in general) a different leader at a different
  // time; the digests can differ because edge-driven timing differs, but
  // the run still quiesces converged.
  const auto other = run(8);
  EXPECT_EQ(std::get<0>(other).size(), 3u);
}

// ---------------------------------------------------------------- client ---

TEST(ClientFailover, RotatesOffADeadTargetAndResolves) {
  MessageBus bus;
  // Target 0 swallows every request (a crashed coordinator from the
  // client's point of view); target 1 is a live single GRM.
  const EndpointId dead = bus.add_endpoint([](const Envelope&) {});
  Grm grm(bus, two_site_systems());
  Lrm lrm0(bus, {2.0}), lrm1(bus, {10.0});
  grm.register_lrm(0, lrm0.endpoint());
  grm.register_lrm(1, lrm1.endpoint());
  lrm0.attach(grm.endpoint(), 0);
  lrm1.attach(grm.endpoint(), 1);
  ClientOptions copts;
  copts.max_attempts = 4;
  copts.retry_backoff = 0.5;
  copts.deadline = 30.0;
  RequestClient client(bus, {dead, grm.endpoint()}, copts);
  client.submit(make_request(1, 0, 1.0));
  bus.run_until_idle();
  ASSERT_TRUE(client.resolved(1));
  EXPECT_TRUE(client.outcome(1).reply.granted);
  EXPECT_GE(client.failovers(), 1u);
  EXPECT_EQ(client.target(), grm.endpoint());
}

TEST(ClientFailover, BackoffJitterDecorrelatesSchedulesWithoutChangingOutcomes) {
  auto retry_times = [](double jitter, std::uint64_t seed) {
    MessageBus bus;
    const EndpointId dead = bus.add_endpoint([](const Envelope&) {});
    std::vector<double> times;
    const EndpointId sink = bus.add_endpoint([&](const Envelope& env) {
      if (std::get_if<AllocationRequest>(&env.payload)) times.push_back(bus.now());
    });
    ClientOptions copts;
    copts.max_attempts = 5;
    copts.retry_backoff = 0.5;
    copts.backoff_cap = 8.0;
    copts.retry_jitter = jitter;
    copts.retry_jitter_seed = seed;
    copts.deadline = 64.0;
    RequestClient client(bus, {dead, sink, dead, sink}, copts);
    client.submit(make_request(1, 0, 1.0));
    bus.run_until_idle();
    return times;
  };
  // Jitter off: bit-identical schedules regardless of the seed (the RNG is
  // never consulted -- the seed protocol is unchanged).
  EXPECT_EQ(retry_times(0.0, 1), retry_times(0.0, 99));
  // Jitter on: same seed replays identically; different seeds decorrelate.
  EXPECT_EQ(retry_times(0.5, 1), retry_times(0.5, 1));
  EXPECT_NE(retry_times(0.5, 1), retry_times(0.5, 2));
  EXPECT_NE(retry_times(0.5, 1), retry_times(0.0, 1));
}

TEST(ReserveJitter, GrmReserveRetriesJitterDeterministically) {
  auto retry_times = [](double jitter, std::uint64_t seed) {
    MessageBus bus;
    GrmOptions gopts;
    gopts.reserve_attempts = 4;
    gopts.reserve_backoff = 0.25;
    gopts.reserve_jitter = jitter;
    gopts.reserve_jitter_seed = seed;
    Grm grm(bus, two_site_systems(), {}, 0.0, gopts);
    Lrm lrm0(bus, {2.0}), lrm1(bus, {10.0});
    grm.register_lrm(0, lrm0.endpoint());
    grm.register_lrm(1, lrm1.endpoint());
    lrm0.attach(grm.endpoint(), 0);
    lrm1.attach(grm.endpoint(), 1);
    // Sever the GRM -> LRM1 reserve path so every attempt retries.
    FaultPlan plan;
    plan.per_link[{grm.endpoint(), lrm1.endpoint()}] = LinkFaults{1.0, 0.0, 0.0};
    bus.set_fault_plan(plan);
    const EndpointId client = bus.add_endpoint([](const Envelope&) {});
    bus.run_until_idle();
    bus.post(client, grm.endpoint(), make_request(1, 1, 5.0));
    bus.run_until_idle();
    return std::make_pair(grm.reserve_retries(), bus.now());
  };
  EXPECT_EQ(retry_times(0.0, 1), retry_times(0.0, 42));
  EXPECT_EQ(retry_times(0.5, 1), retry_times(0.5, 1));
  // Jittered retries stretch the schedule (strictly later quiesce).
  EXPECT_GT(retry_times(0.5, 1).second, retry_times(0.0, 1).second);
}

}  // namespace
}  // namespace agora::rms
