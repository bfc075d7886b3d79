// quickstart -- the paper's Example 1 (Figure 1), end to end:
//
//   1. express resources and sharing agreements with tickets & currencies,
//   2. price the economy (dynamic currency/ticket values),
//   3. lower to the enforcement layer's V/S/A matrices,
//   4. compute everyone's transitive availability, and
//   5. allocate a request with the min-perturbation LP.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "agora/agora.h"

using namespace agora;

int main() {
  // --- 1. Expression: four principals, two disks, three agreements. -------
  core::Economy economy;
  const auto disk = economy.add_resource_type("disk", "TB");
  const auto a = economy.add_principal("A", /*currency face value=*/1000.0);
  const auto b = economy.add_principal("B", 100.0);
  const auto c = economy.add_principal("C", 100.0);
  const auto d = economy.add_principal("D", 100.0);

  economy.fund_with_resource(economy.default_currency(a), disk, 10.0, "A-Ticket1");
  economy.fund_with_resource(economy.default_currency(b), disk, 15.0, "A-Ticket2");

  // A shares 3 TB with C (absolute) and 50% of itself with B (relative);
  // B shares 60% of itself with D. D thus benefits from A *transitively*.
  economy.issue_absolute(economy.default_currency(a), economy.default_currency(c), disk, 3.0,
                         core::SharingMode::Sharing, "R-Ticket3");
  economy.issue_relative(economy.default_currency(a), economy.default_currency(b), 500.0, disk,
                         core::SharingMode::Sharing, "R-Ticket4");
  economy.issue_relative(economy.default_currency(b), economy.default_currency(d), 60.0, disk,
                         core::SharingMode::Sharing, "R-Ticket5");

  // --- 2. Pricing. ----------------------------------------------------------
  const core::Valuation val = core::value_economy(economy);
  std::printf("currency values (TB of disk):\n");
  for (const char* name : {"A", "B", "C", "D"}) {
    const auto p = economy.find_principal(name);
    std::printf("  %s = %5.2f\n", name,
                val.currency_value(economy.default_currency(p), disk));
  }

  // --- 3 & 4. Enforcement view: matrices and transitive availability. ------
  const agree::AgreementSystem sys = agree::from_economy(economy, disk);
  const agree::CapacityReport rep = agree::compute_capacities(sys);
  std::printf("\ntransitive availability C_i:\n");
  for (std::size_t i = 0; i < sys.size(); ++i)
    std::printf("  %c: owns %5.2f TB, can reach %5.2f TB\n", static_cast<char>('A' + i),
                sys.capacity[i], rep.capacity[i]);

  // --- 5. Allocation: D requests 8 TB (it owns none!). ----------------------
  alloc::Allocator allocator(sys);
  const alloc::AllocationPlan plan = allocator.allocate(/*principal D=*/3, 8.0);
  if (!plan.satisfied()) {
    std::printf("\nallocation failed -- not enough capacity under agreements\n");
    return 1;
  }
  std::printf("\nD requests 8 TB; the LP draws (minimizing global perturbation theta=%.2f):\n",
              plan.theta);
  // A plan is a decision; committing it moves the availability the
  // allocator reports.
  const std::vector<double> before = allocator.capacities().capacity;
  allocator.apply(plan);
  const std::vector<double>& after = allocator.capacities().capacity;
  for (std::size_t i = 0; i < plan.draw.size(); ++i)
    if (plan.draw[i] > 1e-9)
      std::printf("  %5.2f TB from %c  (its availability: %5.2f -> %5.2f)\n", plan.draw[i],
                  static_cast<char>('A' + i), before[i], after[i]);
  return 0;
}
