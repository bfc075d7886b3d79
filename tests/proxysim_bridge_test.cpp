// Unit tests for the SchedulerBridge: the glue between the simulator's
// overflow events and the allocation engine.
#include <gtest/gtest.h>

#include "agree/topology.h"
#include "proxysim/scheduler_bridge.h"
#include "util/error.h"

namespace agora::proxysim {
namespace {

SimConfig lp_config(std::size_t n, double share) {
  SimConfig cfg;
  cfg.num_proxies = n;
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(n, share);
  return cfg;
}

TEST(SchedulerBridge, NoneKeepsEverythingLocal) {
  SimConfig cfg;
  cfg.num_proxies = 3;
  cfg.scheduler = SchedulerKind::None;
  SchedulerBridge bridge(cfg);
  const RedirectDecision dec = bridge.plan(1, 7.0, {10.0, 0.0, 10.0});
  EXPECT_DOUBLE_EQ(dec.absorb[1], 7.0);
  EXPECT_DOUBLE_EQ(dec.absorb[0] + dec.absorb[2], 0.0);
}

TEST(SchedulerBridge, LpSplitsAcrossIdleDonors) {
  SchedulerBridge bridge(lp_config(3, 0.4));
  const RedirectDecision dec = bridge.plan(0, 6.0, {0.0, 100.0, 100.0});
  EXPECT_NEAR(dec.absorb[0] + dec.absorb[1] + dec.absorb[2], 6.0, 1e-6);
  EXPECT_GT(dec.absorb[1], 0.0);
  EXPECT_GT(dec.absorb[2], 0.0);
}

TEST(SchedulerBridge, LpRespectsAgreementEntitlements) {
  // 10% direct shares plus one transitive hop (0.1 * 0.1): each donor may
  // absorb at most T = 0.11 of its spare under the full closure.
  SchedulerBridge bridge(lp_config(3, 0.1));
  const RedirectDecision dec = bridge.plan(0, 50.0, {0.0, 100.0, 100.0});
  EXPECT_LE(dec.absorb[1], 11.0 + 1e-9);
  EXPECT_LE(dec.absorb[2], 11.0 + 1e-9);
  // The rest stays local.
  EXPECT_NEAR(dec.absorb[0], 50.0 - dec.absorb[1] - dec.absorb[2], 1e-6);
}

TEST(SchedulerBridge, LpWithNoSpareKeepsLocal) {
  SchedulerBridge bridge(lp_config(3, 0.4));
  const RedirectDecision dec = bridge.plan(0, 6.0, {0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(dec.absorb[0], 6.0);
}

TEST(SchedulerBridge, ZeroOverflowIsNoop) {
  SchedulerBridge bridge(lp_config(2, 0.5));
  const RedirectDecision dec = bridge.plan(0, 0.0, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(dec.absorb[0], 0.0);
  EXPECT_DOUBLE_EQ(dec.absorb[1], 0.0);
}

TEST(SchedulerBridge, EndpointUsesDirectSharesOnlyAndIgnoresLoad) {
  SimConfig cfg;
  cfg.num_proxies = 3;
  cfg.scheduler = SchedulerKind::Endpoint;
  cfg.agreements = Matrix{{0, 0, 0}, {0.5, 0, 0}, {0, 0.9, 0}};  // chain 2->1->0
  SchedulerBridge bridge(cfg);
  // Donor 1 is reported as fully loaded (zero spare); the endpoint scheme
  // is deliberately blind to that and pushes the overflow there anyway
  // (the paper's non-LP baseline "redistributes ... no matter whether they
  // are busy or not"), bounded only by the static epoch budget.
  const RedirectDecision dec = bridge.plan(0, 4.0, {0.0, 0.0, 100.0});
  EXPECT_DOUBLE_EQ(dec.absorb[2], 0.0);   // no direct 2->0 agreement
  EXPECT_NEAR(dec.absorb[1], 4.0, 1e-9);  // blindly dumped on the busy donor
  EXPECT_NEAR(dec.absorb[0], 0.0, 1e-9);
}

TEST(SchedulerBridge, RejectsBadInputs) {
  SchedulerBridge bridge(lp_config(2, 0.5));
  EXPECT_THROW(bridge.plan(5, 1.0, {1.0, 1.0}), PreconditionError);
  EXPECT_THROW(bridge.plan(0, 1.0, {1.0}), PreconditionError);
  SimConfig bad;
  bad.num_proxies = 3;
  bad.scheduler = SchedulerKind::Lp;
  bad.agreements = Matrix(2, 2);
  EXPECT_THROW(SchedulerBridge{bad}, PreconditionError);
}

TEST(SchedulerBridge, TransitivityLevelLimitsReach) {
  SimConfig cfg;
  cfg.num_proxies = 3;
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = Matrix{{0, 0, 0}, {0.5, 0, 0}, {0, 0.9, 0}};  // chain 2->1->0
  cfg.alloc_opts.transitive.max_level = 1;
  SchedulerBridge direct(cfg);
  const RedirectDecision d1 = direct.plan(0, 20.0, {0.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(d1.absorb[2], 0.0);  // two hops away, not reachable

  cfg.alloc_opts.transitive.max_level = 2;
  SchedulerBridge transitive(cfg);
  const RedirectDecision d2 = transitive.plan(0, 20.0, {0.0, 10.0, 100.0});
  EXPECT_GT(d2.absorb[2], 0.0);  // now reachable via 2->1->0
}

}  // namespace
}  // namespace agora::proxysim
