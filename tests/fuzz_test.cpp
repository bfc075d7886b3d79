// Randomized stress tests ("fuzz-lite"): long random operation sequences
// against the economy, larger LPs that force the revised simplex through
// its refactorization path, and randomized simulator configurations. These
// assert *invariants*, not specific values.
#include <gtest/gtest.h>

#include <cmath>

#include "agree/capacity.h"
#include "agree/from_economy.h"
#include "core/economy.h"
#include "core/valuation.h"
#include "lp/certify.h"
#include "lp/solve.h"
#include "proxysim/simulator.h"
#include "rms/bus.h"
#include "rms/client.h"
#include "rms/grm.h"
#include "rms/lrm.h"
#include "trace/generator.h"
#include "util/rng.h"

namespace agora {
namespace {

// ------------------------------------------------------------ economy fuzz ---

class EconomyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EconomyFuzz, RandomOperationSequencesKeepInvariants) {
  Pcg32 rng(GetParam());
  core::Economy e;
  std::vector<core::ResourceTypeId> resources;
  std::vector<core::PrincipalId> principals;
  std::vector<core::CurrencyId> currencies;
  std::vector<core::TicketId> live_tickets;

  resources.push_back(e.add_resource_type("r0"));
  principals.push_back(e.add_principal("p0", 100.0));
  currencies.push_back(e.default_currency(principals[0]));

  for (int step = 0; step < 200; ++step) {
    const double dice = rng.next_double();
    try {
      if (dice < 0.08 && resources.size() < 4) {
        resources.push_back(e.add_resource_type("r" + std::to_string(resources.size())));
      } else if (dice < 0.20) {
        const auto p =
            e.add_principal("p" + std::to_string(principals.size()), rng.uniform(10.0, 1000.0));
        principals.push_back(p);
        currencies.push_back(e.default_currency(p));
      } else if (dice < 0.28) {
        const auto owner = principals[rng.uniform_u32(principals.size())];
        currencies.push_back(e.create_virtual_currency(
            owner, "v" + std::to_string(currencies.size()), rng.uniform(10.0, 500.0)));
      } else if (dice < 0.45) {
        live_tickets.push_back(
            e.fund_with_resource(currencies[rng.uniform_u32(currencies.size())],
                                 resources[rng.uniform_u32(resources.size())],
                                 rng.uniform(0.0, 50.0)));
      } else if (dice < 0.70) {
        const auto from = currencies[rng.uniform_u32(currencies.size())];
        const auto to = currencies[rng.uniform_u32(currencies.size())];
        if (from == to) continue;
        // Keep issued shares small so valuation cycles stay contractive.
        const double face = e.currency(from).face_value * rng.uniform(0.0, 0.15);
        live_tickets.push_back(e.issue_relative(from, to, face,
                                                rng.next_double() < 0.5
                                                    ? resources[rng.uniform_u32(resources.size())]
                                                    : core::ResourceTypeId{}));
      } else if (dice < 0.85) {
        const auto from = currencies[rng.uniform_u32(currencies.size())];
        const auto to = currencies[rng.uniform_u32(currencies.size())];
        if (from == to) continue;
        live_tickets.push_back(e.issue_absolute(from, to,
                                                resources[rng.uniform_u32(resources.size())],
                                                rng.uniform(0.0, 10.0)));
      } else if (dice < 0.93 && !live_tickets.empty()) {
        const std::size_t idx = rng.uniform_u32(static_cast<std::uint32_t>(live_tickets.size()));
        e.revoke(live_tickets[idx]);
        live_tickets.erase(live_tickets.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        const auto c = currencies[rng.uniform_u32(currencies.size())];
        e.set_face_value(c, rng.uniform(10.0, 1000.0));
      }
    } catch (const PreconditionError&) {
      // Randomly generated preconditions can fail (duplicate names etc.);
      // the economy must stay consistent regardless.
    }

    if (step % 40 == 39) {
      e.check_consistency();
      const core::Valuation v = core::value_economy(e);
      for (std::size_t c = 0; c < e.num_currencies(); ++c)
        for (std::size_t r = 0; r < e.num_resource_types(); ++r) {
          const double val = v.currency_value(core::CurrencyId(c), core::ResourceTypeId(r));
          EXPECT_TRUE(std::isfinite(val));
          EXPECT_GE(val, 0.0);
        }
      // The bridge must accept whatever the fuzzer built.
      for (std::size_t r = 0; r < e.num_resource_types(); ++r) {
        const agree::AgreementSystem sys = agree::from_economy(e, core::ResourceTypeId(r));
        const agree::CapacityReport rep = agree::compute_capacities(sys);
        for (double cap : rep.capacity) {
          EXPECT_TRUE(std::isfinite(cap));
          EXPECT_GE(cap, -1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EconomyFuzz, ::testing::Range<std::uint64_t>(100, 108));

// ------------------------------------------------- revised simplex, larger ---

TEST(RevisedSimplexStress, RefactorizationPathExercised) {
  // An LP big enough to exceed kRefactorInterval pivots: dense random
  // feasible system with ~80 variables and ~60 rows.
  Pcg32 rng(4242);
  lp::Problem p;
  const std::size_t n = 80, m = 60;
  std::vector<double> interior(n);
  for (std::size_t j = 0; j < n; ++j) {
    interior[j] = rng.uniform(0.0, 1.0);
    p.add_variable("x" + std::to_string(j), 0.0, 3.0, rng.uniform(-2.0, 2.0));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coeffs(n);
    double at_interior = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      coeffs[j] = rng.uniform(-1.0, 1.0);
      at_interior += coeffs[j] * interior[j];
    }
    p.add_constraint(std::move(coeffs), lp::Relation::LessEqual, at_interior + 0.25);
  }
  const lp::SolveResult rev = lp::solve(p);
  ASSERT_EQ(rev.status, lp::Status::Optimal);
  EXPECT_GT(rev.iterations, lp::kRefactorInterval);
  // Past brute force's reach, the Verifier's KKT certificate is the oracle.
  const lp::Certificate cert = lp::Verifier().certify(p, rev);
  EXPECT_TRUE(cert.certified) << (cert.reject ? cert.reject : "");
  EXPECT_EQ(cert.claim, lp::Certificate::Claim::Optimal);
  EXPECT_LE(p.max_violation(rev.x), 1e-5);
}

// ------------------------------------------------------- simulator configs ---

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzz, RandomConfigsConserveWork) {
  Pcg32 rng(GetParam());
  const std::size_t n = 2 + rng.uniform_u32(4);
  proxysim::SimConfig cfg;
  cfg.num_proxies = n;
  cfg.horizon = 1800.0;
  cfg.slot_width = 300.0;
  cfg.scheduler = static_cast<proxysim::SchedulerKind>(rng.uniform_u32(3));
  if (cfg.scheduler != proxysim::SchedulerKind::None) {
    Matrix s(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double budget = 1.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || rng.next_double() < 0.4) continue;
        const double v = rng.uniform(0.0, budget * 0.5);
        s(i, j) = v;
        budget -= v;
      }
    }
    cfg.agreements = s;
  }
  cfg.redirect_cost = rng.next_double() < 0.5 ? 0.0 : rng.uniform(0.0, 0.3);
  cfg.queue_threshold = rng.uniform(1.0, 20.0);
  cfg.consult_cooldown = rng.uniform(1.0, 60.0);
  cfg.planning_window = rng.uniform(30.0, 900.0);
  cfg.power.assign(n, 0.0);
  for (auto& pw : cfg.power) pw = rng.uniform(0.5, 2.0);

  trace::GeneratorConfig gc;
  gc.peak_rate = rng.uniform(1.0, 12.0);
  const trace::Generator gen(gc, trace::DiurnalProfile::flat(1.0, cfg.horizon, 6));
  std::vector<std::vector<trace::TraceRequest>> traces;
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < n; ++p) {
    traces.push_back(gen.generate(GetParam() * 31 + p));
    total += traces.back().size();
  }

  const proxysim::SimMetrics m = proxysim::Simulator(cfg).run(traces);
  EXPECT_EQ(m.total_requests, total);
  EXPECT_EQ(m.wait_overall.count(), total);
  EXPECT_GE(m.mean_wait(), 0.0);
  EXPECT_TRUE(std::isfinite(m.mean_wait()));
  EXPECT_LE(m.redirected_requests, total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz, ::testing::Range<std::uint64_t>(500, 512));

// ------------------------------------------------------------- rms chaos ---

class RmsChaosFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Random envelope loss/duplication/reordering against a hardened
// Grm + 2 LRM rig: whatever the network does, every request resolves,
// granted draws never exceed physical capacity, and all capacity comes
// back once the holds expire (conservation).
TEST_P(RmsChaosFuzz, RandomFaultsPreserveConservation) {
  Pcg32 rng(GetParam());
  rms::MessageBus bus;
  agree::AgreementSystem cpu(2);
  cpu.capacity = {4.0, 12.0};
  cpu.relative(1, 0) = 0.5;
  rms::GrmOptions gopts;
  gopts.reserve_attempts = 5;
  gopts.reserve_backoff = 0.1;
  gopts.reserve_backoff_cap = 1.0;
  rms::Grm grm(bus, {cpu}, {}, /*decision_latency=*/0.01, gopts);
  rms::Lrm lrm0(bus, {4.0}, 0.01), lrm1(bus, {12.0}, 0.01);
  grm.register_lrm(0, lrm0.endpoint());
  grm.register_lrm(1, lrm1.endpoint());
  lrm0.attach(grm.endpoint(), 0);
  lrm1.attach(grm.endpoint(), 1);
  bus.run_until_idle();

  rms::FaultPlan plan;
  plan.seed = GetParam() * 977 + 13;
  plan.default_link.drop = rng.uniform(0.0, 0.35);
  plan.default_link.duplicate = rng.uniform(0.0, 0.35);
  plan.default_link.jitter = rng.uniform(0.0, 0.5);
  bus.set_fault_plan(plan);

  rms::ClientOptions copts;
  copts.max_attempts = 8;
  copts.retry_backoff = 0.2;
  copts.backoff_cap = 1.0;
  copts.deadline = 30.0;
  copts.send_latency = 0.01;
  rms::RequestClient client(bus, grm.endpoint(), copts);

  const std::size_t kRequests = 40;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    rms::AllocationRequest req;
    req.request_id = id;
    req.principal = rng.uniform_u32(2);
    req.amounts = {rng.uniform(0.5, 4.0)};
    req.duration = rng.uniform(0.2, 2.0);
    client.submit(req);
    bus.run_until(bus.now() + rng.uniform(0.05, 0.6));
  }
  bus.run_until_idle();

  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.outcomes().size(), kRequests);
  for (const rms::RequestClient::Outcome& out : client.outcomes()) {
    EXPECT_LE(out.latency(), copts.deadline + 1e-9);
    if (out.reply.granted) {
      EXPECT_EQ(out.reply.draws.size(), 1u);
      if (out.reply.draws.size() == 1) {
        EXPECT_LE(out.reply.draws[0][0], 4.0 + 1e-9);
        EXPECT_LE(out.reply.draws[0][1], 12.0 + 1e-9);
      }
    } else {
      EXPECT_FALSE(out.reply.reason.empty());
    }
  }
  // Conservation: everything granted was eventually released.
  EXPECT_EQ(lrm0.active_reservations(), 0u);
  EXPECT_EQ(lrm1.active_reservations(), 0u);
  EXPECT_NEAR(lrm0.available()[0], 4.0, 1e-9);
  EXPECT_NEAR(lrm1.available()[0], 12.0, 1e-9);
  EXPECT_LE(grm.decisions(), kRequests);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmsChaosFuzz, ::testing::Range<std::uint64_t>(900, 907));

}  // namespace
}  // namespace agora
