// The public-API contract test: this file includes ONLY <agora/agora.h>
// (plus gtest) and drives every supported decision backend -- the flat LP
// Allocator, the HierarchicalAllocator and the sharded EnforcementEngine --
// through the alloc::AllocatorBase interface alone. If a facade re-export
// goes missing or a backend drifts off the interface, this translation
// unit stops compiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "agora/agora.h"

namespace agora {
namespace {

agree::AgreementSystem demo_system() {
  agree::AgreementSystem sys(4);
  sys.capacity = {10.0, 10.0, 10.0, 10.0};
  sys.relative = agree::complete_graph(4, 0.3);
  return sys;
}

/// Exercise one backend purely through the interface: allocate, apply,
/// release, set_capacities, availability and solver telemetry.
void drive(alloc::AllocatorBase& backend) {
  ASSERT_EQ(backend.size(), 4u);
  const double before = backend.available_to(1);
  EXPECT_GT(before, 0.0);

  const alloc::AllocationPlan plan = backend.allocate(1, 2.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_EQ(to_status(plan.status).code(), StatusCode::Ok);

  backend.apply(plan);
  EXPECT_LT(backend.available_to(1), before);
  backend.release(plan.draw);
  EXPECT_NEAR(backend.available_to(1), before, 1e-6);

  const std::vector<double> caps(backend.size(), 8.0);
  backend.set_capacities(std::span<const double>(caps));
  for (std::size_t i = 0; i < backend.size(); ++i)
    EXPECT_NEAR(backend.system().capacity[i], 8.0, 1e-12);

  // Telemetry is reachable through the interface. (The count may be zero:
  // the hierarchical backend's intra-group fast path decides small
  // requests without running the certified LP pipeline.)
  const lp::PipelineStats* stats = backend.solver_stats();
  if (stats != nullptr) {
    EXPECT_GE(stats->solves + 1, 1u);
  }
}

TEST(Facade, EveryBackendRunsThroughAllocatorBase) {
  std::vector<std::unique_ptr<alloc::AllocatorBase>> backends;
  backends.push_back(std::make_unique<alloc::Allocator>(demo_system()));
  backends.push_back(
      std::make_unique<alloc::HierarchicalAllocator>(demo_system(),
                                                     std::vector<std::size_t>{0, 0, 1, 1}));
  engine::EngineOptions eopts;
  eopts.threads = 2;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  backends.push_back(std::make_unique<engine::EnforcementEngine>(demo_system(), eopts));
  for (auto& backend : backends) drive(*backend);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> availability(const alloc::AllocatorBase& backend) {
  std::vector<double> out(backend.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = backend.available_to(i);
  return out;
}

/// The flat Allocator, the HierarchicalAllocator over `groups`, and engines
/// on one and two shards: every backend that writes capacity.
std::vector<std::unique_ptr<alloc::AllocatorBase>> write_backends(
    const agree::AgreementSystem& sys, const std::vector<std::size_t>& groups) {
  std::vector<std::unique_ptr<alloc::AllocatorBase>> backends;
  backends.push_back(std::make_unique<alloc::Allocator>(sys));
  backends.push_back(std::make_unique<alloc::HierarchicalAllocator>(sys, groups));
  for (const std::size_t threads : {1, 2}) {
    engine::EngineOptions eopts;
    eopts.threads = threads;
    eopts.sink = obs::Sink::none();
    eopts.alloc.sink = obs::Sink::none();
    backends.push_back(std::make_unique<engine::EnforcementEngine>(sys, eopts));
  }
  return backends;
}

TEST(Facade, EveryBackendRefusesMalformedWritesUnchanged) {
  agree::AgreementSystem sys = demo_system();
  sys.capacity = {10.0, 11.0, 12.0, 13.0};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (auto& backend : write_backends(sys, {0, 0, 1, 1})) {
    const alloc::AllocationPlan plan = backend->allocate(1, 2.0);
    ASSERT_TRUE(plan.satisfied());
    const std::vector<double> capacity = backend->system().capacity;
    const std::vector<double> available = availability(*backend);
    const auto expect_unchanged = [&](const char* write) {
      EXPECT_TRUE(bitwise_equal(backend->system().capacity, capacity)) << write;
      EXPECT_TRUE(bitwise_equal(availability(*backend), available)) << write;
    };
    const auto drawing = [&](double d) {
      alloc::AllocationPlan bad = plan;
      bad.draw[0] = d;
      return bad;
    };

    EXPECT_THROW(backend->apply(drawing(-5.0)), PreconditionError);
    expect_unchanged("negative draw");
    EXPECT_THROW(backend->apply(drawing(kNan)), PreconditionError);
    expect_unchanged("NaN draw");
    EXPECT_THROW(backend->apply(drawing(-kInf)), PreconditionError);
    expect_unchanged("-inf draw");
    EXPECT_THROW(backend->apply(drawing(capacity[0] + 1.0)), PreconditionError);
    expect_unchanged("draw above capacity");
    EXPECT_THROW(backend->release({1.0, -1.0, 0.0, 0.0}), PreconditionError);
    expect_unchanged("negative release");
    EXPECT_THROW(backend->release({kInf, 0.0, 0.0, 0.0}), PreconditionError);
    expect_unchanged("+inf release");
    std::vector<double> caps = capacity;
    caps[2] = kNan;
    EXPECT_THROW(backend->set_capacities(caps), PreconditionError);
    expect_unchanged("NaN capacity");
  }
}

/// `islands` complete-graph islands of `per` participants (share 0.2,
/// capacities 10 .. 10 + per - 1) with no agreement between islands.
agree::AgreementSystem island_economy(std::size_t islands, std::size_t per) {
  agree::AgreementSystem sys(islands * per);
  for (std::size_t i = 0; i < sys.size(); ++i)
    sys.capacity[i] = 10.0 + static_cast<double>(i % per);
  for (std::size_t g = 0; g < islands; ++g)
    for (std::size_t i = g * per; i < (g + 1) * per; ++i)
      for (std::size_t j = g * per; j < (g + 1) * per; ++j)
        if (i != j) sys.relative(i, j) = 0.2;
  return sys;
}

TEST(Facade, EveryBackendCommitsTheSameCapacities) {
  // A seeded conservation stream: plans from the direct Allocator, each
  // applied with p = 0.25 and released after a sampled hold, and a fresh
  // report through set_capacities every 50 writes. Every backend turns each
  // write into its next capacities by the same rule, so their capacities
  // stay bitwise equal, and a released hold gives back exactly its draw.
  constexpr std::size_t kIslands = 8, kPer = 8;
  const agree::AgreementSystem sys = island_economy(kIslands, kPer);
  std::vector<std::size_t> groups(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) groups[i] = i / kPer;
  const auto backends = write_backends(sys, groups);
  alloc::AllocatorBase& planner = *backends[0];

  std::mt19937_64 rng(19);
  std::uniform_int_distribution<std::size_t> who(0, sys.size() - 1);
  std::uniform_real_distribution<double> frac(0.05, 0.9);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> hold_steps(1, 40);

  std::vector<double> start = sys.capacity;
  std::size_t writes = 0;
  const auto same_everywhere = [&] {
    const std::vector<double>& c = backends[0]->system().capacity;
    for (std::size_t b = 1; b < backends.size(); ++b)
      if (!bitwise_equal(backends[b]->system().capacity, c)) return false;
    return std::all_of(c.begin(), c.end(), [](double v) { return v >= 0.0; });
  };
  const auto report_every_50 = [&] {
    if (++writes % 50 != 0) return;
    // Every capacity grows by a sampled amount, and so does the level a
    // fully released economy returns to.
    std::vector<double> caps = planner.system().capacity;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const double up = unit(rng);
      caps[i] += up;
      start[i] += up;
    }
    for (auto& b : backends) b->set_capacities(caps);
  };

  struct Hold {
    std::size_t due = 0;
    std::vector<double> draw;
  };
  std::vector<Hold> holds;
  std::size_t applied = 0;
  for (std::size_t step = 0; step < 2000; ++step) {
    for (std::size_t h = 0; h < holds.size();) {
      if (holds[h].due > step) {
        ++h;
        continue;
      }
      for (auto& b : backends) b->release(holds[h].draw);
      ASSERT_TRUE(same_everywhere()) << "release at step " << step;
      report_every_50();
      ASSERT_TRUE(same_everywhere()) << "report at step " << step;
      holds.erase(holds.begin() + static_cast<std::ptrdiff_t>(h));
    }
    const std::size_t a = who(rng);
    const alloc::AllocationPlan plan = planner.allocate(a, frac(rng) * planner.available_to(a));
    if (!plan.satisfied() || unit(rng) >= 0.25) continue;
    for (auto& b : backends) b->apply(plan);
    ++applied;
    ASSERT_TRUE(same_everywhere()) << "apply at step " << step;
    report_every_50();
    ASSERT_TRUE(same_everywhere()) << "report at step " << step;
    holds.push_back(Hold{step + hold_steps(rng), plan.draw});
  }
  EXPECT_GT(applied, 200u);
  EXPECT_GT(writes, 400u);

  for (const Hold& h : holds)
    for (auto& b : backends) b->release(h.draw);
  ASSERT_TRUE(same_everywhere());
  const std::vector<double>& end = backends[0]->system().capacity;
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_NEAR(end[i], start[i], 1e-9 * (1.0 + start[i])) << "participant " << i;
}

TEST(Facade, ExpressionToAllocationRoundTrip) {
  // The quickstart flow, through the facade: economy -> valuation ->
  // matrices -> transitive availability -> one LP allocation.
  core::Economy economy;
  const auto disk = economy.add_resource_type("disk", "TB");
  const auto a = economy.add_principal("A", 1000.0);
  const auto b = economy.add_principal("B", 100.0);
  economy.fund_with_resource(economy.default_currency(a), disk, 10.0);
  economy.issue_relative(economy.default_currency(a), economy.default_currency(b), 500.0, disk,
                         core::SharingMode::Sharing);

  const core::Valuation val = core::value_economy(economy);
  EXPECT_GT(val.currency_value(economy.default_currency(b), disk), 0.0);

  const agree::AgreementSystem sys = agree::from_economy(economy, disk);
  const agree::CapacityReport rep = agree::compute_capacities(sys);
  EXPECT_GT(rep.capacity[1], 0.0);  // B reaches A's disk transitively

  const std::unique_ptr<alloc::AllocatorBase> backend =
      std::make_unique<alloc::Allocator>(sys);
  const alloc::AllocationPlan plan = backend->allocate(1, 3.0);
  EXPECT_TRUE(plan.satisfied());
}

}  // namespace
}  // namespace agora
