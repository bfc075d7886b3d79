#include "economies.h"

namespace agora::perf {

agree::AgreementSystem island_economy() {
  const std::size_t n = kIslands * kPerIsland;
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 10.0 + static_cast<double>(i % kPerIsland);
  for (std::size_t g = 0; g < kIslands; ++g)
    for (std::size_t i = g * kPerIsland; i < (g + 1) * kPerIsland; ++i)
      for (std::size_t j = g * kPerIsland; j < (g + 1) * kPerIsland; ++j)
        if (i != j) sys.relative(i, j) = kIslandShare;
  return sys;
}

agree::AgreementSystem bridged_economy() {
  agree::AgreementSystem sys = island_economy();
  for (std::size_t g = 0; g < kIslands; ++g) {
    const std::size_t a = g * kPerIsland + (kPerIsland - 1);
    const std::size_t b = ((g + 1) % kIslands) * kPerIsland;
    sys.relative(a, b) = kBridgeShare;
    sys.relative(b, a) = kBridgeShare;
  }
  return sys;
}

namespace {

std::vector<trace::RequestShape> catalog(const Params& P, std::size_t participants,
                                         std::uint64_t salt) {
  trace::ZipfShapeGenerator::Config zc;
  zc.participants = participants;
  zc.shapes = P.count("shapes");
  zc.s = P.num("zipf_s");
  zc.amount_min = P.num("amount_min");
  zc.amount_step = P.num("amount_step");
  zc.amount_levels = P.count("amount_levels");
  zc.seed = P.count("catalog_seed") + salt;
  return trace::ZipfShapeGenerator(zc).catalog();
}

}  // namespace

ShapeStream::ShapeStream(const Params& params, std::size_t participants, std::uint64_t salt,
                         std::uint64_t sample_seed)
    : catalog_(catalog(params, participants, salt)),
      zipf_(catalog_.size(), params.num("zipf_s"), sample_seed) {}

}  // namespace agora::perf
