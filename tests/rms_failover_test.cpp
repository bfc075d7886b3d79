// Chaos/failover suite for the replicated GRM (tier2-chaos label): leader
// crash under live traffic with a bounded unavailability window, minority
// and majority partitions, lossy/duplicating/jittery replication links
// under a fault-seed sweep -- always asserting the two acceptance
// invariants: SAFETY (every request resolves exactly once, physical
// capacity never goes negative, and all replicas hold bit-identical state
// after the network heals and the bus quiesces) and LIVENESS (service
// resumes within a few election timeouts of losing the leader).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "agree/matrices.h"
#include "rms/bus.h"
#include "rms/client.h"
#include "rms/grm.h"
#include "rms/lrm.h"
#include "rms/replica/group.h"
#include "util/rng.h"

namespace agora::rms {
namespace {

using replica::RaftNode;
using replica::ReplicatedGrm;

std::vector<agree::AgreementSystem> two_site_systems() {
  agree::AgreementSystem cpu(2);
  cpu.capacity = {5.0, 10.0};
  cpu.relative(1, 0) = 0.5;
  return {cpu};
}

/// Raft timings fast enough for a sub-minute virtual-time scenario. The
/// liveness bound below is expressed in units of election_timeout_max.
constexpr double kElectionMax = 1.0;

GrmOptions chaos_grm_options(std::size_t replicas) {
  GrmOptions g;
  g.reserve_attempts = 4;  // effects survive a lossy GRM -> LRM path
  g.reserve_backoff = 0.1;
  g.reserve_jitter = 0.25;
  g.replication.replicas = replicas;
  g.replication.election_timeout_min = 0.5;
  g.replication.election_timeout_max = kElectionMax;
  g.replication.heartbeat_interval = 0.1;
  g.replication.latency = 0.01;
  g.replication.snapshot_threshold = 64;
  return g;
}

ClientOptions chaos_client_options() {
  ClientOptions c;
  c.max_attempts = 10;
  c.retry_backoff = 0.2;
  c.backoff_cap = 1.0;
  c.retry_jitter = 0.25;
  c.deadline = 30.0;
  c.send_latency = 0.01;
  return c;
}

/// Replicated rig plus a deterministic open-loop workload driver.
struct FailoverRig {
  MessageBus bus;
  ReplicatedGrm grp;
  Lrm lrm0, lrm1;
  RequestClient client;
  Pcg32 workload;
  std::uint64_t next_id = 1;

  explicit FailoverRig(std::size_t replicas, std::uint64_t raft_seed = 1,
                       std::uint64_t workload_seed = 42)
      : grp(bus, two_site_systems(), {}, 0.01,
            [&] {
              GrmOptions g = chaos_grm_options(replicas);
              g.replication.seed = raft_seed;
              return g;
            }()),
        lrm0(bus, {5.0}, 0.01),
        lrm1(bus, {10.0}, 0.01),
        client(bus, grp.endpoints(), chaos_client_options()),
        workload(workload_seed) {
    grp.register_lrm(0, lrm0.endpoint());
    grp.register_lrm(1, lrm1.endpoint());
    lrm0.attach(grp.ingress(0), 0);
    lrm1.attach(grp.ingress(1), 1);
    grp.start();
  }

  /// Submit one random request and advance virtual time by `gap`, checking
  /// physical conservation (the safety half of the acceptance criteria) at
  /// every step.
  void pump_one(double gap = 0.25) {
    AllocationRequest req;
    req.request_id = next_id++;
    req.principal = workload.uniform_u32(2);
    req.amounts = {workload.uniform(0.3, 1.5)};
    req.duration = workload.uniform(0.5, 2.0);
    client.submit(req);
    bus.run_until(bus.now() + gap);
    for (const Lrm* l : {&lrm0, &lrm1})
      for (double a : l->available()) ASSERT_GE(a, -1e-9);
  }

  /// Heal the network, let the protocol settle (heartbeats push the final
  /// commit index), then stop the timers and drain the bus.
  void heal_and_quiesce(double settle = 5.0) {
    bus.set_fault_plan(FaultPlan{});
    bus.run_until(bus.now() + settle);
    grp.stop();
    bus.run_until_idle();
  }

  /// Exactly-once + convergence + full capacity recovery: the invariant
  /// block every chaos scenario ends with. `healed` names replicas whose
  /// digests must match (all of them by default).
  void check_invariants(std::uint64_t submitted) {
    EXPECT_EQ(client.outstanding(), 0u);
    EXPECT_EQ(client.outcomes().size(), submitted);
    for (const RequestClient::Outcome& out : client.outcomes()) {
      if (!out.reply.granted) {
        EXPECT_FALSE(out.reply.reason.empty());
      }
    }
    EXPECT_TRUE(grp.converged()) << "replica state diverged after quiesce";
    // The converged machine decided each id at most once: no dual-leader
    // double decisions anywhere in the group's history.
    EXPECT_LE(grp.node(0).machine().decisions(), submitted);
    // All holds expired and every release landed: the pool is whole again.
    EXPECT_EQ(lrm0.active_reservations(), 0u);
    EXPECT_EQ(lrm1.active_reservations(), 0u);
    EXPECT_NEAR(lrm0.available()[0], 5.0, 1e-9);
    EXPECT_NEAR(lrm1.available()[0], 10.0, 1e-9);
  }

  std::uint64_t granted_count() const {
    std::uint64_t n = 0;
    for (const auto& out : client.outcomes()) n += out.reply.granted ? 1 : 0;
    return n;
  }

  /// Virtual seconds from `start` until the first grant resolved after it
  /// (infinity if none): the unavailability window a crash/partition cost.
  double grant_gap_after(double start) const {
    double first = std::numeric_limits<double>::infinity();
    for (const auto& out : client.outcomes())
      if (out.reply.granted && out.resolved_at >= start)
        first = std::min(first, out.resolved_at);
    return first - start;
  }
};

// ------------------------------------------------------------ leader crash ---

TEST(Failover, LeaderCrashMidTrafficRecoversWithinElectionBound) {
  FailoverRig rig(3);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());

  for (int i = 0; i < 8; ++i) rig.pump_one();
  const double crash_at = rig.bus.now();
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{rig.grp.node(*leader).endpoint(), crash_at, crash_at + 12.0});
  rig.bus.set_fault_plan(plan);

  for (int i = 0; i < 60; ++i) rig.pump_one();
  ASSERT_GT(rig.bus.now(), crash_at + 12.0);  // the old leader restarted
  rig.bus.run_until(rig.bus.now() + 5.0);     // catch-up + hold expiry
  rig.heal_and_quiesce();

  rig.check_invariants(68);
  EXPECT_EQ(rig.client.deadline_denials(), 0u);  // liveness: nobody starved
  // A new leader took over and the client followed it.
  const auto new_leader = rig.grp.leader();
  ASSERT_TRUE(new_leader.has_value());
  EXPECT_NE(*new_leader, *leader);
  EXPECT_GE(rig.client.failovers() + rig.client.redirects(), 1u);
  // Liveness bound (the ISSUE acceptance criterion): service resumed
  // within a few election timeouts -- election + client backoff + retry.
  EXPECT_LE(rig.grant_gap_after(crash_at), 4.0 * kElectionMax);
  // The restarted ex-leader rejoined as a follower and caught up fully.
  EXPECT_EQ(rig.grp.node(*leader).role(), RaftNode::Role::Follower);
  EXPECT_GE(rig.grp.node(*leader).stats().restarts, 1u);
  EXPECT_EQ(rig.grp.node(*leader).applied_index(), rig.grp.node(*new_leader).applied_index());
}

TEST(Failover, BackToBackLeaderCrashes) {
  FailoverRig rig(3);
  rig.bus.run_until(5.0);
  const auto first = rig.grp.leader();
  ASSERT_TRUE(first.has_value());
  // Crash whoever leads now; once the next leader emerges, crash it too.
  // Both windows end before the run does, so all three replicas are up for
  // the convergence check.
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{rig.grp.node(*first).endpoint(), 6.0, 14.0});
  rig.bus.set_fault_plan(plan);
  for (int i = 0; i < 16; ++i) rig.pump_one();  // t in [5, 9): first crash lands
  const auto second = rig.grp.leader();
  ASSERT_TRUE(second.has_value());
  ASSERT_NE(*second, *first);
  plan.crashes.push_back(
      CrashWindow{rig.grp.node(*second).endpoint(), rig.bus.now() + 0.01, rig.bus.now() + 8.0});
  rig.bus.set_fault_plan(plan);
  for (int i = 0; i < 60; ++i) rig.pump_one();
  rig.bus.run_until(rig.bus.now() + 5.0);
  rig.heal_and_quiesce();

  rig.check_invariants(76);
  EXPECT_EQ(rig.client.deadline_denials(), 0u);
  EXPECT_GE(rig.grp.stats().restarts, 2u);
  EXPECT_GE(rig.grp.stats().elections_won, 3u);  // initial + two takeovers
}

// -------------------------------------------------------------- partitions ---

TEST(Failover, MinorityPartitionDoesNotInterruptService) {
  FailoverRig rig(3);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  // Cut one follower off for a long window; the leader keeps its quorum.
  const std::size_t follower = (*leader + 1) % 3;
  FaultPlan plan;
  plan.partitions.push_back(Partition{6.0, 18.0, {rig.grp.node(follower).endpoint()}});
  rig.bus.set_fault_plan(plan);

  for (int i = 0; i < 60; ++i) rig.pump_one();
  rig.bus.run_until(rig.bus.now() + 5.0);
  rig.heal_and_quiesce();

  rig.check_invariants(60);
  EXPECT_EQ(rig.client.deadline_denials(), 0u);
  // The leader never lost its quorum: no grant gap longer than the
  // isolated follower's election attempts could cause.
  EXPECT_LE(rig.grant_gap_after(6.0), 2.0 * kElectionMax);
  EXPECT_GT(rig.granted_count(), 0u);
}

TEST(Failover, IsolatedLeaderCannotGrantAndMajorityTakesOver) {
  FailoverRig rig(3);
  rig.bus.run_until(5.0);
  const auto old_leader = rig.grp.leader();
  ASSERT_TRUE(old_leader.has_value());
  // The leader alone on the wrong side of the cut: the majority (with the
  // client and both LRMs) elects a replacement and keeps serving; the
  // minority leader can append but never commit, so it never emits one
  // uncertified grant.
  FaultPlan plan;
  plan.partitions.push_back(Partition{6.0, 20.0, {rig.grp.node(*old_leader).endpoint()}});
  rig.bus.set_fault_plan(plan);
  rig.bus.run_until(6.0);
  const std::uint64_t commit_before = rig.grp.node(*old_leader).commit_index();

  for (int i = 0; i < 60; ++i) rig.pump_one();
  ASSERT_GT(rig.bus.now(), 20.0);
  const auto new_leader = rig.grp.leader();
  ASSERT_TRUE(new_leader.has_value());
  EXPECT_NE(*new_leader, *old_leader);
  rig.bus.run_until(rig.bus.now() + 5.0);
  rig.heal_and_quiesce();

  rig.check_invariants(60);
  EXPECT_EQ(rig.client.deadline_denials(), 0u);
  EXPECT_LE(rig.grant_gap_after(6.0), 4.0 * kElectionMax);
  // Nothing committed on the minority side while it was cut off.
  EXPECT_GE(rig.grp.node(*old_leader).commit_index(), commit_before);
  EXPECT_EQ(rig.grp.node(*old_leader).role(), RaftNode::Role::Follower);
}

TEST(Failover, MajorityPartitionedAwayFromClientsStallsButStaysSafe) {
  // Put TWO replicas (a quorum) on the far side of the cut from the client
  // and the LRMs: the group keeps a leader but its replies cannot reach
  // anyone. Service stalls -- the safety-over-liveness tradeoff -- and
  // every stranded request resolves locally at its deadline instead of
  // hanging. After the heal, service resumes and the replicas converge.
  FailoverRig rig(3);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  FaultPlan plan;
  plan.partitions.push_back(Partition{
      6.0, 26.0,
      {rig.grp.node(*leader).endpoint(), rig.grp.node((*leader + 1) % 3).endpoint()}});
  rig.bus.set_fault_plan(plan);

  for (int i = 0; i < 30; ++i) rig.pump_one(1.0);  // t: 5 -> 35
  rig.bus.run_until(rig.bus.now() + 10.0);
  rig.heal_and_quiesce();

  rig.check_invariants(30);
  // Requests stranded inside the window hit their deadline (resolved, not
  // hung); requests after the heal were served again.
  EXPECT_GT(rig.client.deadline_denials(), 0u);
  const double heal = 26.0;
  EXPECT_TRUE(std::isfinite(rig.grant_gap_after(heal)));
  EXPECT_GT(rig.granted_count(), 0u);
}

// ------------------------------------------------- lossy replication links ---

struct SweepResult {
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> digests;
  std::string transcript;
};

SweepResult run_lossy_sweep(std::uint64_t fault_seed) {
  FailoverRig rig(3, /*raft_seed=*/3, /*workload_seed=*/fault_seed ^ 0xabcd);
  rig.bus.run_until(5.0);
  // Drop, duplicate and jitter EVERY link (replication traffic included;
  // self-message timers are exempt by design, they model local clocks).
  FaultPlan plan;
  plan.seed = fault_seed;
  plan.default_link.drop = 0.10;
  plan.default_link.duplicate = 0.10;
  plan.default_link.jitter = 0.05;
  rig.bus.set_fault_plan(plan);
  for (int i = 0; i < 80; ++i) rig.pump_one();
  rig.bus.run_until(rig.bus.now() + 5.0);
  rig.heal_and_quiesce();

  rig.check_invariants(80);
  SweepResult res;
  for (const auto& out : rig.client.outcomes()) {
    res.granted += out.reply.granted ? 1 : 0;
    res.denied += out.reply.granted ? 0 : 1;
    res.transcript += std::to_string(out.reply.request_id) +
                      (out.reply.granted ? ":1;" : ":0;");
  }
  res.dropped = rig.bus.dropped();
  res.digests = rig.grp.digests();
  return res;
}

TEST(Failover, LossyReplicationLinksSeedSweepStaysSafeAndLive) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const SweepResult res = run_lossy_sweep(seed);
    EXPECT_GT(res.dropped, 0u) << "the network was not actually lossy";
    EXPECT_GT(res.granted, 0u);
    EXPECT_EQ(res.granted + res.denied, 80u);
    ASSERT_EQ(res.digests.size(), 3u);
    EXPECT_EQ(res.digests[0], res.digests[1]);
    EXPECT_EQ(res.digests[0], res.digests[2]);
  }
}

TEST(Failover, SameFaultSeedReplaysByteIdentically) {
  const SweepResult a = run_lossy_sweep(99);
  const SweepResult b = run_lossy_sweep(99);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.granted, b.granted);
}

TEST(Failover, CrashPlusLossyLinksCombined) {
  // The full gauntlet: a leader crash in the middle of a lossy-link run.
  FailoverRig rig(3, /*raft_seed=*/5);
  rig.bus.run_until(5.0);
  const auto leader = rig.grp.leader();
  ASSERT_TRUE(leader.has_value());
  FaultPlan plan;
  plan.seed = 7;
  plan.default_link.drop = 0.05;
  plan.default_link.duplicate = 0.05;
  plan.default_link.jitter = 0.03;
  plan.crashes.push_back(CrashWindow{rig.grp.node(*leader).endpoint(), 8.0, 16.0});
  rig.bus.set_fault_plan(plan);
  for (int i = 0; i < 80; ++i) rig.pump_one();
  rig.bus.run_until(rig.bus.now() + 5.0);
  rig.heal_and_quiesce();

  rig.check_invariants(80);
  EXPECT_EQ(rig.client.deadline_denials(), 0u);
  EXPECT_LE(rig.grant_gap_after(8.0), 6.0 * kElectionMax);  // lossy links slow the election
  EXPECT_GE(rig.grp.stats().restarts, 1u);
}

}  // namespace
}  // namespace agora::rms
