// Unit tests for the trace substrate: diurnal profiles, the synthetic
// generator, and trace (de)serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_io.h"
#include "trace/zipf.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace agora::trace {
namespace {

// ---------------------------------------------------------------- profile ---

TEST(Profile, BerkeleyShapePeaksAtMidnightTroughsEarlyMorning) {
  const DiurnalProfile p = DiurnalProfile::berkeley_like();
  EXPECT_EQ(p.slots(), 144u);
  EXPECT_DOUBLE_EQ(p.horizon(), 86400.0);
  // Peak within an hour of midnight.
  double peak = 0.0;
  std::size_t peak_slot = 0;
  for (std::size_t s = 0; s < p.slots(); ++s)
    if (p.slot_weight(s) > peak) {
      peak = p.slot_weight(s);
      peak_slot = s;
    }
  const double peak_hour = p.slot_mid_hour(peak_slot);
  EXPECT_TRUE(peak_hour < 1.0 || peak_hour > 23.0) << "peak at hour " << peak_hour;
  // Trough in the early morning (4-7am), well below half the peak.
  double trough = 1e9;
  std::size_t trough_slot = 0;
  for (std::size_t s = 0; s < p.slots(); ++s)
    if (p.slot_weight(s) < trough) {
      trough = p.slot_weight(s);
      trough_slot = s;
    }
  const double trough_hour = p.slot_mid_hour(trough_slot);
  EXPECT_GE(trough_hour, 4.0);
  EXPECT_LE(trough_hour, 7.0);
  EXPECT_LT(trough, 0.5 * peak);
}

TEST(Profile, WeightAtInterpolatesAndWraps) {
  const DiurnalProfile p({1.0, 3.0}, 100.0);
  // Slot mids at t=25 (w=1) and t=75 (w=3); halfway between: 2.
  EXPECT_NEAR(p.weight_at(25.0), 1.0, 1e-12);
  EXPECT_NEAR(p.weight_at(75.0), 3.0, 1e-12);
  EXPECT_NEAR(p.weight_at(50.0), 2.0, 1e-12);
  // Wrap: t=0 is halfway between slot 1 (t=75, w=3) and slot 0 (t=125->25, w=1).
  EXPECT_NEAR(p.weight_at(0.0), 2.0, 1e-12);
  EXPECT_NEAR(p.weight_at(100.0), p.weight_at(0.0), 1e-12);
  EXPECT_NEAR(p.weight_at(-25.0), 3.0, 1e-12);
}

TEST(Profile, FlatProfile) {
  const DiurnalProfile p = DiurnalProfile::flat(2.0, 1000.0, 10);
  EXPECT_NEAR(p.mean_weight(), 2.0, 1e-12);
  EXPECT_NEAR(p.peak_weight(), 2.0, 1e-12);
  EXPECT_NEAR(p.weight_at(123.0), 2.0, 1e-12);
}

TEST(Profile, RejectsBadInput) {
  EXPECT_THROW(DiurnalProfile({}, 100.0), PreconditionError);
  EXPECT_THROW(DiurnalProfile({1.0}, -1.0), PreconditionError);
  EXPECT_THROW(DiurnalProfile({-1.0}, 100.0), PreconditionError);
}

// -------------------------------------------------------------- generator ---

TEST(Generator, DeterministicInSeed) {
  GeneratorConfig cfg;
  cfg.peak_rate = 2.0;
  Generator gen(cfg, DiurnalProfile::flat(1.0, 3600.0, 6));
  const auto a = gen.generate(7);
  const auto b = gen.generate(7);
  const auto c = gen.generate(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].response_bytes, b[i].response_bytes);
  }
  EXPECT_NE(a.size(), c.size());
}

TEST(Generator, RateMatchesProfile) {
  GeneratorConfig cfg;
  cfg.peak_rate = 5.0;
  Generator gen(cfg, DiurnalProfile::flat(1.0, 36000.0, 10));
  const auto reqs = gen.generate(1);
  // Expect ~ rate * horizon = 180000 arrivals, Poisson noise ~ +-0.5%.
  EXPECT_NEAR(static_cast<double>(reqs.size()), 180000.0, 3000.0);
}

TEST(Generator, ArrivalsSortedAndInHorizon) {
  GeneratorConfig cfg;
  cfg.peak_rate = 3.0;
  Generator gen(cfg, DiurnalProfile::berkeley_like(7200.0, 12));
  const auto reqs = gen.generate(3);
  double prev = 0.0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.arrival, prev);
    EXPECT_LT(r.arrival, 7200.0);
    prev = r.arrival;
  }
}

TEST(Generator, TimeShiftWrapsCyclically) {
  GeneratorConfig cfg;
  cfg.peak_rate = 2.0;
  // Strongly asymmetric profile: all load in the first half.
  Generator gen(cfg, DiurnalProfile({1.0, 0.0}, 1000.0));
  const auto base = gen.generate(5, 0.0);
  const auto shifted = gen.generate(5, 500.0);
  ASSERT_EQ(base.size(), shifted.size());
  for (const auto& r : base) EXPECT_LT(r.arrival, 500.0);
  for (const auto& r : shifted) EXPECT_GE(r.arrival, 500.0);
}

TEST(Generator, ResponseSizeDistributionSane) {
  GeneratorConfig cfg;
  cfg.peak_rate = 20.0;
  Generator gen(cfg, DiurnalProfile::flat(1.0, 10000.0, 10));
  const auto reqs = gen.generate(11);
  StreamingStats bytes;
  for (const auto& r : reqs) bytes.add(static_cast<double>(r.response_bytes));
  // Empirical mean should be near the analytic expectation (heavy tail:
  // generous tolerance).
  const double expected = expected_response_bytes(cfg);
  EXPECT_GT(bytes.mean(), expected * 0.6);
  EXPECT_LT(bytes.mean(), expected * 1.7);
  EXPECT_GT(bytes.max(), 10.0 * bytes.mean());  // tail present
}

TEST(Generator, ExpectedBytesFormula) {
  GeneratorConfig cfg;
  cfg.tail_probability = 0.0;
  cfg.body_log_median_bytes = std::log(1000.0);
  cfg.body_sigma = 0.0;
  EXPECT_NEAR(expected_response_bytes(cfg), 1000.0, 1e-9);
}

TEST(Generator, SameSeedYieldsByteIdenticalSerializedStream) {
  // Stronger than value equality: the serialized trace (what golden-figure
  // runs and --metrics-out snapshots are built on) must be byte-identical
  // across same-seed runs, on the realistic diurnal profile.
  GeneratorConfig cfg;
  cfg.peak_rate = 3.0;
  Generator gen(cfg, DiurnalProfile::berkeley_like(7200.0, 24));
  std::ostringstream a, b, other;
  write_trace(a, gen.generate(42, 300.0));
  write_trace(b, gen.generate(42, 300.0));
  write_trace(other, gen.generate(43, 300.0));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str(), other.str());
  // A fresh, identically configured generator replays the same stream too
  // (no hidden state carried between generate() calls).
  Generator gen2(cfg, DiurnalProfile::berkeley_like(7200.0, 24));
  std::ostringstream c;
  write_trace(c, gen2.generate(42, 300.0));
  EXPECT_EQ(a.str(), c.str());
}

// The generator as it was before it ordered each slot on its arrival draws,
// transcribed as the oracle: draw the day in generation order, wrap with
// fmod, then sort stably, so tied arrivals keep their draw order.
std::vector<TraceRequest> stable_sorted_draws(const GeneratorConfig& cfg,
                                              const DiurnalProfile& profile, std::uint64_t seed,
                                              double time_shift) {
  Pcg32 rng(seed);
  const double horizon = profile.horizon();
  const double width = profile.slot_width();
  const bool zipf_mode = cfg.zipf_s > 0.0 && cfg.zipf_catalog > 0;
  std::vector<std::uint64_t> object_bytes;
  std::optional<ZipfSampler> zipf;
  if (zipf_mode) {
    Pcg32 crng(0x0b1ec7ULL, /*stream=*/0xca7a10ULL);
    for (std::size_t k = 0; k < cfg.zipf_catalog; ++k) {
      const double b = crng.next_double() < cfg.tail_probability
                           ? crng.pareto(cfg.tail_scale_bytes, cfg.tail_alpha)
                           : crng.lognormal(cfg.body_log_median_bytes, cfg.body_sigma);
      object_bytes.push_back(static_cast<std::uint64_t>(b));
    }
    zipf.emplace(cfg.zipf_catalog, cfg.zipf_s, seed);
  }
  std::vector<TraceRequest> out;
  for (std::size_t s = 0; s < profile.slots(); ++s) {
    const double mean = cfg.peak_rate * profile.slot_weight(s) * width;
    const std::uint64_t count = rng.poisson(mean);
    const double slot_start = static_cast<double>(s) * width;
    for (std::uint64_t k = 0; k < count; ++k) {
      TraceRequest r;
      double t = slot_start + rng.next_double() * width + time_shift;
      t = std::fmod(t, horizon);
      if (t < 0.0) t += horizon;
      r.arrival = t;
      if (zipf_mode) {
        r.response_bytes = object_bytes[zipf->next()];
      } else if (rng.next_double() < cfg.tail_probability) {
        r.response_bytes =
            static_cast<std::uint64_t>(rng.pareto(cfg.tail_scale_bytes, cfg.tail_alpha));
      } else {
        r.response_bytes = static_cast<std::uint64_t>(
            rng.lognormal(cfg.body_log_median_bytes, cfg.body_sigma));
      }
      r.client = rng.uniform_u32(cfg.num_clients);
      out.push_back(r);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceRequest& a, const TraceRequest& b) {
    return a.arrival < b.arrival;
  });
  return out;
}

// Index of the first record that differs, compared field by field (the
// struct has padding) and the arrival bit for bit; a.size() if none does.
std::size_t first_difference(const std::vector<TraceRequest>& a,
                             const std::vector<TraceRequest>& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i].arrival) != std::bit_cast<std::uint64_t>(b[i].arrival) ||
        a[i].response_bytes != b[i].response_bytes || a[i].client != b[i].client)
      return i;
  return a.size();
}

TEST(Generator, OrderIsAStableSortOfTheDrawOrder) {
  struct Case {
    const char* name;
    DiurnalProfile profile;
    double peak_rate;
    double shift;
    double zipf_s;
    std::uint64_t first_seed;
    std::uint64_t seeds;
    bool ties_expected = false;
  };
  const DiurnalProfile day = DiurnalProfile::berkeley_like();
  const double two_pow_60 = std::ldexp(1.0, 60);
  const std::vector<Case> cases = {
      {"proxy_day's shape, shift 3600", day, 9.5, 3600.0, 0.0, 101, 2},
      {"a slot straddles the horizon", day, 2.0, 1234.5, 0.0, 1, 2},
      {"2.5 horizons + 17.25", day, 2.0, 2.5 * 86400.0 + 17.25, 0.0, 3, 1},
      {"negative shift", day, 2.0, -5000.3, 0.0, 4, 1},
      {"width 1000/3", DiurnalProfile::flat(1.0, 1000.0, 3), 50.0, 0.0, 0.0, 5, 2},
      {"width 1000/3, straddling", DiurnalProfile::flat(1.0, 1000.0, 3), 50.0, 500.5, 0.0, 7, 1},
      {"one dense slot", DiurnalProfile::flat(1.0, 1.0, 1), 2e5, 0.0, 0.0, 1, 4, true},
      {"zipf mode", day, 2.0, 7200.0, 1.1, 8, 1},
      // Far from 0 an ulp spans many draws, so distinct draws of one slot
      // round to one arrival, in either order.
      {"shift 1e12", DiurnalProfile::flat(1.0, 1000.0, 3), 50.0, 1e12 + 0.5, 0.0, 9, 1, true},
      // At 2^60 an ulp is 256 s, so a day's arrivals land on 5 points 256 s
      // apart: the day can wrap twice (horizon 1000), or its last arrival
      // can wrap onto its first (horizon 1024, a multiple of the ulp). About
      // four draws a day.
      {"shift 2^60, two wraps", DiurnalProfile::flat(1.0, 1000.0, 1), 0.004, two_pow_60, 0.0,
       1, 300, true},
      {"shift 2^60, last onto first", DiurnalProfile::flat(1.0, 1024.0, 1), 4.0 / 1024.0,
       two_pow_60, 0.0, 1, 300, true},
  };
  for (const Case& c : cases) {
    GeneratorConfig cfg;
    cfg.peak_rate = c.peak_rate;
    cfg.zipf_s = c.zipf_s;
    const Generator gen(cfg, c.profile);
    std::size_t ties = 0;
    for (std::uint64_t seed = c.first_seed; seed < c.first_seed + c.seeds; ++seed) {
      const auto oracle = stable_sorted_draws(cfg, c.profile, seed, c.shift);
      const auto got = gen.generate(seed, c.shift);
      ASSERT_EQ(got.size(), oracle.size()) << c.name << ", seed " << seed;
      const std::size_t at = first_difference(got, oracle);
      EXPECT_EQ(at, got.size()) << c.name << ", seed " << seed << ": record " << at
                                << " differs from the stable sort";
      for (std::size_t i = 1; i < oracle.size(); ++i)
        ties += oracle[i].arrival == oracle[i - 1].arrival ? 1 : 0;
    }
    if (c.ties_expected) {
      EXPECT_GT(ties, 0u) << c.name << ": no tied arrivals, so the tie order went untested";
    }
  }
}

TEST(Generator, NegativeShiftStaysInsideTheHorizon) {
  // Shift the first request of slot 0 to just below 0: 1e-13 is far below
  // half an ulp of the horizon, so fmod's remainder plus the horizon rounds
  // to the horizon itself.
  GeneratorConfig cfg;
  cfg.peak_rate = 9.5;
  const DiurnalProfile day = DiurnalProfile::berkeley_like();
  Pcg32 rng(7);
  (void)rng.poisson(cfg.peak_rate * day.slot_weight(0) * day.slot_width());
  const double first = Pcg32::unit(rng.next_u32()) * day.slot_width();
  const auto reqs = Generator(cfg, day).generate(7, -(first + 1e-13));
  ASSERT_FALSE(reqs.empty());
  for (const TraceRequest& r : reqs) {
    ASSERT_GE(r.arrival, 0.0);
    ASSERT_LT(r.arrival, day.horizon());
  }
  EXPECT_EQ(reqs.back().arrival, std::nextafter(day.horizon(), 0.0));
}

TEST(Generator, RejectsANonFiniteShift) {
  const Generator gen(GeneratorConfig{}, DiurnalProfile::flat(1.0, 600.0, 2));
  EXPECT_THROW(gen.generate(1, std::numeric_limits<double>::quiet_NaN()), PreconditionError);
  EXPECT_THROW(gen.generate(1, std::numeric_limits<double>::infinity()), PreconditionError);
}

// ---------------------------------------------------------------- trace_io ---

TEST(TraceIo, RoundTrip) {
  std::vector<TraceRequest> reqs{{1.5, 2048, 7}, {3.25, 100, 8}};
  std::ostringstream os;
  write_trace(os, reqs);
  std::istringstream is(os.str());
  const auto back = read_trace(is);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].arrival, 1.5);
  EXPECT_EQ(back[0].response_bytes, 2048u);
  EXPECT_EQ(back[1].client, 8u);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::istringstream is("# header\n\n1.0 10 2\n");
  const auto reqs = read_trace(is);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_DOUBLE_EQ(reqs[0].arrival, 1.0);
}

TEST(TraceIo, RejectsMalformedLines) {
  std::istringstream is("not a trace line\n");
  EXPECT_THROW(read_trace(is), IoError);
  std::istringstream neg("-1.0 10 2\n");
  EXPECT_THROW(read_trace(neg), IoError);
}

TEST(TraceIo, MissingFileReported) {
  EXPECT_THROW(load_trace("/nonexistent/path/trace.txt"), IoError);
}

TEST(TraceIo, FileRoundTrip) {
  GeneratorConfig cfg;
  cfg.peak_rate = 1.0;
  Generator gen(cfg, DiurnalProfile::flat(1.0, 600.0, 2));
  const auto reqs = gen.generate(21);
  const std::string path = ::testing::TempDir() + "/agora_trace_test.txt";
  save_trace(path, reqs);
  const auto back = load_trace(path);
  ASSERT_EQ(back.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(back[i].response_bytes, reqs[i].response_bytes);
}

// ------------------------------------------------------------------- zipf ---

TEST(Zipf, ProbabilitiesFollowThePowerLaw) {
  ZipfSampler z(100, 1.1, 7);
  double total = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) total += z.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(k) / P(2k) == 2^s for a pure power law.
  EXPECT_NEAR(z.probability(1) / z.probability(3), std::pow(2.0, 1.1), 1e-9);
  EXPECT_NEAR(z.mass_of_top(z.size()), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(z.mass_of_top(0), 0.0);
}

TEST(Zipf, SamplingIsDeterministicInTheSeed) {
  ZipfSampler a(64, 1.1, 42), b(64, 1.1, 42), c(64, 1.1, 43);
  bool any_diff = false;
  for (int i = 0; i < 256; ++i) {
    const std::size_t ra = a.next();
    EXPECT_EQ(ra, b.next());
    if (ra != c.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);  // different seed, different stream
}

TEST(Zipf, EmpiricalSkewMatchesTheory) {
  ZipfSampler z(64, 1.1, 11);
  std::vector<std::size_t> count(64, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++count[z.next()];
  // Rank 0 should dominate and land near its theoretical mass.
  const double p0 = static_cast<double>(count[0]) / draws;
  EXPECT_NEAR(p0, z.probability(0), 0.02);
  EXPECT_GT(count[0], count[32]);
  std::size_t top8 = 0;
  for (std::size_t k = 0; k < 8; ++k) top8 += count[k];
  EXPECT_NEAR(static_cast<double>(top8) / draws, z.mass_of_top(8), 0.03);
}

TEST(Zipf, ShapeGeneratorIsDeterministicAndBounded) {
  ZipfShapeGenerator::Config cfg;
  cfg.participants = 16;
  cfg.shapes = 64;
  cfg.seed = 5;
  ZipfShapeGenerator g1(cfg), g2(cfg);
  ASSERT_EQ(g1.catalog().size(), 64u);
  for (const RequestShape& s : g1.catalog()) {
    EXPECT_LT(s.participant, 16u);
    EXPECT_GE(s.amount, cfg.amount_min);
    EXPECT_LE(s.amount,
              cfg.amount_min + cfg.amount_step * static_cast<double>(cfg.amount_levels - 1));
  }
  for (int i = 0; i < 128; ++i) {
    const RequestShape a = g1.next(), b = g2.next();
    EXPECT_EQ(a.participant, b.participant);
    EXPECT_EQ(a.amount, b.amount);
  }
  // hottest_share is a proper cache-hit-rate bound: monotone, <= 1.
  EXPECT_LE(g1.hottest_share(8), g1.hottest_share(64));
  EXPECT_NEAR(g1.hottest_share(64), 1.0, 1e-12);
}

}  // namespace
}  // namespace agora::trace
