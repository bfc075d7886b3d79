#include "alloc/ledger.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace agora::alloc {

void next_capacities(std::span<const double> current, const CapacityWrite& write,
                     std::vector<double>& next) {
  using Kind = CapacityWrite::Kind;
  const std::span<const double> x = write.amounts;
  const Kind kind = write.kind;
  AGORA_REQUIRE(x.size() == current.size(), "capacity write size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    AGORA_REQUIRE(std::isfinite(x[i]) && x[i] >= 0.0,
                  kind == Kind::Draw      ? "draws must be finite and >= 0"
                  : kind == Kind::Release ? "release must be finite and >= 0"
                                          : "capacities must be finite and >= 0");
    if (kind == Kind::Draw)
      AGORA_REQUIRE(x[i] <= current[i] + kOverdrawTol, "plan draws more than a principal owns");
    if (kind == Kind::Release)
      AGORA_REQUIRE(std::isfinite(current[i] + x[i]), "release overflows a capacity");
  }
  next.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    switch (kind) {
      case Kind::Draw: next[i] = std::max(0.0, current[i] - x[i]); break;
      case Kind::Release: next[i] = current[i] + x[i]; break;
      case Kind::Replace: next[i] = x[i]; break;
    }
  }
}

}  // namespace agora::alloc
