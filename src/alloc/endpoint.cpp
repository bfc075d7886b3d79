#include "alloc/endpoint.h"

#include <algorithm>
#include <cmath>

namespace agora::alloc {

AllocationPlan endpoint_allocate(const agree::AgreementSystem& sys, std::size_t a,
                                 double amount) {
  sys.validate(/*allow_overdraft=*/true);
  AGORA_REQUIRE(a < sys.size(), "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");
  const std::size_t n = sys.size();

  AllocationPlan plan;
  plan.draw.assign(n, 0.0);

  // What each neighbor k agreed to provide to a directly.
  std::vector<double> cap(n, 0.0);
  std::vector<double> weight(n, 0.0);
  double weight_total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k == a) continue;
    cap[k] = std::min(sys.capacity[k] * sys.relative(k, a) + sys.absolute(k, a),
                      sys.capacity[k]);
    weight[k] = sys.relative(k, a) + (sys.capacity[k] > 0.0
                                          ? sys.absolute(k, a) / sys.capacity[k]
                                          : 0.0);
    weight_total += weight[k];
  }

  // Local capacity first is NOT what the paper's baseline does -- it pushes
  // the queued overflow outward proportionally. We mirror that: split
  // `amount` across neighbors by weight, water-fill the caps, and keep the
  // remainder local.
  double remaining = amount;
  if (weight_total > 0.0) {
    std::vector<bool> open(n, false);
    double open_weight = weight_total;
    for (std::size_t k = 0; k < n; ++k) open[k] = k != a && weight[k] > 0.0;
    // Proportional refill: at most n rounds (each round closes >= 1 lane).
    for (std::size_t round = 0; round < n && remaining > 1e-12 && open_weight > 1e-15;
         ++round) {
      const double unit = remaining / open_weight;
      bool closed_any = false;
      double distributed = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (!open[k]) continue;
        const double want = unit * weight[k];
        const double room = cap[k] - plan.draw[k];
        const double take = std::min(want, room);
        plan.draw[k] += take;
        distributed += take;
        if (take >= room - 1e-15) {
          open[k] = false;
          open_weight -= weight[k];
          closed_any = true;
        }
      }
      remaining -= distributed;
      if (!closed_any) break;  // everything fit
    }
  }
  // Remainder is served from the local queue.
  plan.draw[a] += std::max(0.0, remaining);

  plan.status = PlanStatus::Satisfied;
  // Local view of perturbation, for reporting only: the largest draw.
  plan.theta = *std::max_element(plan.draw.begin(), plan.draw.end());
  return plan;
}

}  // namespace agora::alloc
