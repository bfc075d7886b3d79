// generator.h -- synthetic trace generation.
//
// Arrivals: per 10-minute slot, a Poisson count with mean
// peak_rate * weight(slot) * slot_width, placed uniformly inside the slot
// (equivalent to a piecewise-constant non-homogeneous Poisson process).
//
// Response lengths: a lognormal body with a Pareto tail -- the standard
// web-workload shape (most responses are a few KB; rare ones are huge). The
// paper caps per-request cost at c seconds anyway, so the exact tail index
// only mildly affects results.
//
// Time skew: the paper evaluates geographically distributed ISPs by shifting
// otherwise-identical client populations in time ("gap"/time-zone skip).
// `time_shift` cyclically shifts arrivals within the horizon.
//
// Order: a trace is its draws sorted stably by arrival, so arrivals ascend
// and equal arrivals keep the order they were drawn in. Each slot is sorted
// on its 32-bit arrival draws as it is drawn, in linear time (within a slot
// the arrival never decreases as the draw grows), and one rotation at the
// horizon wrap finishes the day. The tie order matters to the simulator,
// which serves tied arrivals of one proxy in trace order.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/profile.h"
#include "trace/request.h"
#include "util/rng.h"

namespace agora::trace {

struct GeneratorConfig {
  /// Requests per second at profile weight 1.0.
  double peak_rate = 10.0;
  /// Lognormal body: median exp(mu) bytes, shape sigma.
  double body_log_median_bytes = 8.0;  ///< log(~3 KB)
  double body_sigma = 1.2;
  /// Pareto tail: probability, scale (bytes), shape.
  double tail_probability = 0.05;
  double tail_scale_bytes = 30000.0;
  double tail_alpha = 1.3;
  /// Synthetic client population size.
  std::uint32_t num_clients = 5000;
  /// Optional Zipf popularity mode (agora_sim --zipf): when zipf_s > 0,
  /// response lengths are drawn from a fixed catalog of `zipf_catalog`
  /// distinct objects whose rank popularity follows Zipf(zipf_s) (zipf.h),
  /// instead of the fresh lognormal/Pareto draw per request above. The
  /// catalog depends on the config alone, so every proxy sees the same
  /// object population; rank sampling stays deterministic in the per-proxy
  /// seed. A few hot object sizes dominating the stream is what makes the
  /// engine's request-shape plan cache effective end to end.
  double zipf_s = 0.0;
  std::size_t zipf_catalog = 512;
};

/// Mean response length implied by the config (bytes).
double expected_response_bytes(const GeneratorConfig& cfg);

class Generator {
 public:
  Generator(GeneratorConfig cfg, DiurnalProfile profile)
      : cfg_(cfg), profile_(std::move(profile)) {}

  const GeneratorConfig& config() const { return cfg_; }
  const DiurnalProfile& profile() const { return profile_; }

  /// Generate one proxy's stream, deterministically in `seed`, cyclically
  /// shifted by `time_shift` seconds (finite, of either sign). Every arrival
  /// lies in [0, horizon); arrivals ascend, and equal arrivals keep their
  /// draw order.
  std::vector<TraceRequest> generate(std::uint64_t seed, double time_shift = 0.0) const;

 private:
  GeneratorConfig cfg_;
  DiurnalProfile profile_;
};

}  // namespace agora::trace
