#include "trace/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "trace/zipf.h"

namespace agora::trace {

double expected_response_bytes(const GeneratorConfig& cfg) {
  const double body_mean =
      std::exp(cfg.body_log_median_bytes + cfg.body_sigma * cfg.body_sigma / 2.0);
  // Pareto mean is finite only for alpha > 1.
  const double tail_mean = cfg.tail_alpha > 1.0
                               ? cfg.tail_scale_bytes * cfg.tail_alpha / (cfg.tail_alpha - 1.0)
                               : cfg.tail_scale_bytes * 10.0;
  return (1.0 - cfg.tail_probability) * body_mean + cfg.tail_probability * tail_mean;
}

namespace {

/// `x` wrapped into [0, horizon): fmod's remainder, moved up by one horizon
/// when negative. Skipping fmod where it would return `x` or `x - horizon`
/// gives the same bits, because Sterbenz's lemma makes that subtraction
/// exact.
double wrap_into(double x, double horizon) {
  if (x >= 0.0 && x < horizon) return x;
  if (x >= horizon && x < 2.0 * horizon) return x - horizon;
  double t = std::fmod(x, horizon);
  if (t < 0.0) t += horizon;
  // Adding the horizon to a negative remainder smaller in magnitude than
  // half its ulp rounds to the horizon itself; the largest double below it
  // is the nearest value in range.
  return t < horizon ? t : std::nextafter(horizon, 0.0);
}

/// One day's random draws in generation order: per slot a Poisson count,
/// then per request its arrival draw, its size and its client. Both ways of
/// ordering the day below consume the same draws through this.
class DayDraws {
 public:
  DayDraws(const GeneratorConfig& cfg, const DiurnalProfile& profile, std::uint64_t seed,
           double time_shift)
      : cfg_(cfg), profile_(profile), rng_(seed), shift_(time_shift) {
    // Zipf popularity mode: a config-deterministic object catalog (same size
    // mixture as the per-request draw below, fixed seed so all proxies share
    // it) plus a per-proxy-seeded rank sampler.
    if (cfg_.zipf_s > 0.0 && cfg_.zipf_catalog > 0) {
      Pcg32 crng(0x0b1ec7ULL, /*stream=*/0xca7a10ULL);
      object_bytes_.reserve(cfg_.zipf_catalog);
      for (std::size_t k = 0; k < cfg_.zipf_catalog; ++k) {
        const double b = crng.next_double() < cfg_.tail_probability
                             ? crng.pareto(cfg_.tail_scale_bytes, cfg_.tail_alpha)
                             : crng.lognormal(cfg_.body_log_median_bytes, cfg_.body_sigma);
        object_bytes_.push_back(static_cast<std::uint64_t>(b));
      }
      zipf_.emplace(cfg_.zipf_catalog, cfg_.zipf_s, seed);
    }
  }

  /// Starts slot `s` and draws how many requests it holds.
  std::uint64_t begin_slot(std::size_t s) {
    slot_start_ = static_cast<double>(s) * width_;
    return rng_.poisson(cfg_.peak_rate * profile_.slot_weight(s) * width_);
  }

  /// A request and the 32-bit draw its arrival came from. Within a slot the
  /// unwrapped arrival never decreases as the draw grows.
  struct Draw {
    TraceRequest request;
    std::uint32_t u = 0;
  };

  /// Draws the slot's next request.
  Draw next() {
    const std::uint32_t u = rng_.next_u32();
    TraceRequest r;
    r.arrival = wrap_into(slot_start_ + Pcg32::unit(u) * width_ + shift_, horizon_);
    if (zipf_) {
      r.response_bytes = object_bytes_[zipf_->next()];
    } else if (rng_.next_double() < cfg_.tail_probability) {
      r.response_bytes =
          static_cast<std::uint64_t>(rng_.pareto(cfg_.tail_scale_bytes, cfg_.tail_alpha));
    } else {
      r.response_bytes = static_cast<std::uint64_t>(
          rng_.lognormal(cfg_.body_log_median_bytes, cfg_.body_sigma));
    }
    r.client = rng_.uniform_u32(cfg_.num_clients);
    return {r, u};
  }

 private:
  const GeneratorConfig& cfg_;
  const DiurnalProfile& profile_;
  Pcg32 rng_;
  const double horizon_ = profile_.horizon();
  const double width_ = profile_.slot_width();
  const double shift_;
  double slot_start_ = 0.0;
  std::vector<std::uint64_t> object_bytes_;
  std::optional<ZipfSampler> zipf_;
};

/// Stable LSD radix sort of `(key << 32) | index` entries on their 32-bit
/// key, in three passes of 11 bits. Entries drawn in index order thus end in
/// (key, index) order. `tmp` is scratch.
void sort_on_key(std::vector<std::uint64_t>& v, std::vector<std::uint64_t>& tmp) {
  constexpr unsigned kBits = 11;
  constexpr std::size_t kRadix = std::size_t{1} << kBits;
  const auto digit = [](std::uint64_t e, unsigned pass) {
    return static_cast<std::size_t>(e >> (32 + kBits * pass)) & (kRadix - 1);
  };
  std::array<std::array<std::uint32_t, kRadix>, 3> start{};
  for (const std::uint64_t e : v)
    for (unsigned pass = 0; pass < 3; ++pass) ++start[pass][digit(e, pass)];
  for (auto& counts : start) {
    std::uint32_t sum = 0;
    for (std::uint32_t& c : counts) sum += std::exchange(c, sum);
  }
  tmp.resize(v.size());
  for (unsigned pass = 0; pass < 3; ++pass) {
    for (const std::uint64_t e : v) tmp[start[pass][digit(e, pass)]++] = e;
    v.swap(tmp);
  }
}

/// Orders the day slot by slot: each slot is sorted on its arrival draws as
/// soon as it is drawn and appended, and one rotation at the horizon wrap
/// finishes. Scratch is the largest slot. Returns false when the result
/// would not be the stable sort of the draw order: two distinct draws of one
/// slot round to one arrival out of draw order, the arrivals step down more
/// than once, or the last arrival does not end before the first begins. Each
/// needs a shift or a horizon of over about 2^20 slot widths, where an ulp of
/// an arrival spans many draws.
bool order_slot_by_slot(DayDraws& draws, std::size_t slots, std::vector<TraceRequest>& out) {
  std::vector<TraceRequest> slot;
  std::vector<std::uint64_t> order;
  std::vector<std::uint64_t> tmp;
  std::size_t wrap = 0;  // where the arrivals step down; 0 while they have not
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint64_t count = draws.begin_slot(s);
    AGORA_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max(),
                  "a trace slot holds at most 2^32 - 1 requests");
    slot.clear();
    order.clear();
    for (std::uint64_t k = 0; k < count; ++k) {
      const DayDraws::Draw d = draws.next();
      slot.push_back(d.request);
      order.push_back(std::uint64_t{d.u} << 32 | k);
    }
    sort_on_key(order, tmp);

    const std::size_t slot_begin = out.size();
    std::uint32_t prev_k = 0;
    for (const std::uint64_t e : order) {
      const auto k = static_cast<std::uint32_t>(e);
      const TraceRequest& r = slot[k];
      if (!out.empty()) {
        const double last = out.back().arrival;
        if (r.arrival < last) {
          if (wrap != 0) return false;
          wrap = out.size();
        } else if (r.arrival == last && out.size() > slot_begin && k < prev_k) {
          return false;
        }
      }
      out.push_back(r);
      prev_k = k;
    }
  }
  if (wrap == 0) return true;
  // The part after the wrap goes first, so it must end before the first
  // part begins: a tie there would put a later draw first.
  if (!(out.back().arrival < out.front().arrival)) return false;
  std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(wrap), out.end());
  return true;
}

}  // namespace

std::vector<TraceRequest> Generator::generate(std::uint64_t seed, double time_shift) const {
  AGORA_REQUIRE(std::isfinite(time_shift), "trace time shift must be finite");
  std::vector<TraceRequest> out;
  out.reserve(static_cast<std::size_t>(cfg_.peak_rate * profile_.mean_weight() *
                                       profile_.horizon() * 1.1) +
              16);
  {
    DayDraws draws(cfg_, profile_, seed, time_shift);
    if (order_slot_by_slot(draws, profile_.slots(), out)) return out;
  }
  // The slot order does not hold for this shift and profile: draw the day
  // again in generation order and sort it stably.
  out.clear();
  DayDraws draws(cfg_, profile_, seed, time_shift);
  for (std::size_t s = 0; s < profile_.slots(); ++s) {
    const std::uint64_t count = draws.begin_slot(s);
    for (std::uint64_t k = 0; k < count; ++k) out.push_back(draws.next().request);
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceRequest& a, const TraceRequest& b) {
    return a.arrival < b.arrival;
  });
  return out;
}

}  // namespace agora::trace
