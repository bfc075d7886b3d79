// rng.h -- deterministic, seedable random number generation and the
// distributions the trace generator needs.
//
// We carry our own small PCG32 generator rather than std::mt19937 so that
// trace generation is bit-reproducible across standard libraries -- the
// simulator's regression tests depend on that. The draws always were; the
// order of tied arrivals in a trace is too since the generator keeps ties
// in draw order (trace/generator.h) instead of leaving them to std::sort.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.h"

namespace agora {

/// PCG32 (O'Neill): 64-bit state, 32-bit output, excellent statistical
/// quality for simulation workloads and tiny state for cheap copies.
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0u;
    inc_ = (stream << 1u) | 1u;
    next_u32();
    state_ += seed;
    next_u32();
  }

  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }
  result_type operator()() { return next_u32(); }

  std::uint32_t next_u32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// The double in [0, 1) that next_double() makes of the 32-bit draw `u`:
  /// u * 2^-32, exact. Equal draws give equal doubles, and order is kept.
  static double unit(std::uint32_t u) { return u * (1.0 / 4294967296.0); }

  /// Uniform double in [0, 1).
  double next_double() { return unit(next_u32()); }

  /// Uniform double in [0, 1) that is never exactly 0 (safe for log()).
  double next_double_open() {
    double u;
    do {
      u = next_double();
    } while (u == 0.0);
    return u;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [0, n).
  std::uint32_t uniform_u32(std::uint32_t n) {
    AGORA_REQUIRE(n > 0, "uniform_u32 needs n > 0");
    // Lemire-style rejection to remove modulo bias.
    const std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * n;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < n) {
      const std::uint32_t threshold = (0u - n) % n;
      std::uint64_t mm = m;
      while (lo < threshold) {
        mm = static_cast<std::uint64_t>(next_u32()) * n;
        lo = static_cast<std::uint32_t>(mm);
      }
      return static_cast<std::uint32_t>(mm >> 32);
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate) {
    AGORA_REQUIRE(rate > 0.0, "exponential rate must be positive");
    return -std::log(next_double_open()) / rate;
  }

  /// Standard normal via Box-Muller (one value per call; simple and exact
  /// enough for trace synthesis).
  double normal() {
    const double u1 = next_double_open();
    const double u2 = next_double();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Lognormal with the given log-space mean and sigma.
  double lognormal(double mu, double sigma) { return std::exp(mu + sigma * normal()); }

  /// Pareto with scale x_m > 0 and shape alpha > 0.
  double pareto(double x_m, double alpha) {
    AGORA_REQUIRE(x_m > 0.0 && alpha > 0.0, "pareto parameters must be positive");
    return x_m / std::pow(next_double_open(), 1.0 / alpha);
  }

  /// Poisson with the given mean. Uses inversion for small means and
  /// normal approximation with rounding for large ones.
  std::uint64_t poisson(double mean) {
    AGORA_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0) return 0;
    if (mean < 60.0) {
      const double l = std::exp(-mean);
      std::uint64_t k = 0;
      double p = 1.0;
      do {
        ++k;
        p *= next_double_open();
      } while (p > l);
      return k - 1;
    }
    const double v = mean + std::sqrt(mean) * normal();
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }

  /// Derive an independent child generator (for per-proxy streams).
  Pcg32 split(std::uint64_t salt) {
    const std::uint64_t s = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
    return Pcg32(s ^ (salt * 0x9e3779b97f4a7c15ULL), salt * 2 + 1);
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace agora
