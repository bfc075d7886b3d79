// Ablation: currency valuation cost -- direct LU solve vs fix-point
// iteration -- as the economy grows.
#include <benchmark/benchmark.h>

#include "core/economy.h"
#include "core/valuation.h"
#include "util/rng.h"

namespace {

using namespace agora;
using namespace agora::core;

/// `prefix` followed by the decimal index, built by appending: GCC 12 at -O3
/// reports a false -Wrestrict overlap for `"p" + std::to_string(i)`.
std::string numbered(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

/// Economy with n principals, each funding its currency and issuing 3
/// relative agreements; one virtual currency per 4 principals.
Economy make_economy(std::size_t n) {
  Economy e;
  Pcg32 rng(n + 3);
  const ResourceTypeId cpu = e.add_resource_type("cpu");
  std::vector<PrincipalId> ps;
  for (std::size_t i = 0; i < n; ++i)
    ps.push_back(e.add_principal(numbered("p", i), 100.0));
  for (std::size_t i = 0; i < n; ++i)
    e.fund_with_resource(e.default_currency(ps[i]), cpu, rng.uniform(5.0, 50.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      const std::size_t j = rng.uniform_u32(static_cast<std::uint32_t>(n));
      if (j == i) continue;
      e.issue_relative(e.default_currency(ps[i]), e.default_currency(ps[j]),
                       rng.uniform(5.0, 25.0), cpu);
    }
  }
  for (std::size_t i = 0; i + 3 < n; i += 4) {
    const CurrencyId vc = e.create_virtual_currency(ps[i], numbered("v", i), 100.0);
    e.issue_relative(e.default_currency(ps[i]), vc, 10.0, cpu);
    e.issue_relative(vc, e.default_currency(ps[i + 1]), 50.0, cpu);
  }
  return e;
}

void BM_ValuationDirect(benchmark::State& state) {
  const Economy e = make_economy(static_cast<std::size_t>(state.range(0)));
  ValuationOptions opts;
  opts.method = ValuationMethod::Direct;
  for (auto _ : state) {
    const Valuation v = value_economy(e, opts);
    benchmark::DoNotOptimize(v.num_currencies());
  }
}
BENCHMARK(BM_ValuationDirect)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_ValuationFixPoint(benchmark::State& state) {
  const Economy e = make_economy(static_cast<std::size_t>(state.range(0)));
  ValuationOptions opts;
  opts.method = ValuationMethod::FixPoint;
  opts.tolerance = 1e-10;
  for (auto _ : state) {
    const Valuation v = value_economy(e, opts);
    benchmark::DoNotOptimize(v.num_currencies());
  }
}
BENCHMARK(BM_ValuationFixPoint)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
