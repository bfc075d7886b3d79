#include "lp/problem.h"

#include <atomic>
#include <cmath>

namespace agora::lp {

namespace {

/// `prefix` followed by the decimal index. Built by appending: GCC 12 at -O3
/// reports a false -Wrestrict overlap for `"x" + std::to_string(i)`.
std::string indexed_name(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

}  // namespace

std::uint64_t Problem::next_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Problem::add_variable(const std::string& name, double lo, double hi, double cost) {
  AGORA_REQUIRE(!(lo > hi), "variable bounds inverted: " + name);
  AGORA_REQUIRE(!std::isnan(lo) && !std::isnan(hi) && !std::isnan(cost),
                "NaN in variable definition: " + name);
  lo_.push_back(lo);
  hi_.push_back(hi);
  cost_.push_back(cost);
  var_names_.push_back(name);  // empty stays empty; variable_name() synthesizes
  // Pad existing constraints so their coefficient vectors stay dense.
  for (auto& c : constraints_) c.coeffs.resize(lo_.size(), 0.0);
  ++structural_rev_;
  return lo_.size() - 1;
}

std::size_t Problem::add_constraint(std::vector<double> coeffs, Relation rel, double rhs,
                                    const std::string& name) {
  AGORA_REQUIRE(coeffs.size() <= num_variables(), "constraint has more coefficients than variables");
  AGORA_REQUIRE(!std::isnan(rhs), "NaN rhs in constraint " + name);
  for (double c : coeffs) AGORA_REQUIRE(!std::isnan(c), "NaN coefficient in constraint " + name);
  coeffs.resize(num_variables(), 0.0);
  constraints_.push_back(Constraint{std::move(coeffs), rel, rhs,
                                    name.empty() ? indexed_name("c", constraints_.size()) : name});
  ++structural_rev_;
  return constraints_.size() - 1;
}

std::size_t Problem::add_constraint_sparse(
    const std::vector<std::pair<std::size_t, double>>& terms, Relation rel, double rhs,
    const std::string& name) {
  std::vector<double> coeffs(num_variables(), 0.0);
  for (const auto& [idx, v] : terms) {
    AGORA_REQUIRE(idx < num_variables(), "sparse term references unknown variable");
    coeffs[idx] += v;
  }
  return add_constraint(std::move(coeffs), rel, rhs, name);
}

void Problem::set_objective_coeff(std::size_t var, double cost) {
  AGORA_REQUIRE(var < num_variables(), "objective coefficient for unknown variable");
  cost_[var] = cost;
  ++structural_rev_;
}

double Problem::objective_coeff(std::size_t var) const {
  AGORA_REQUIRE(var < num_variables(), "objective coefficient for unknown variable");
  return cost_[var];
}

std::string Problem::variable_name(std::size_t j) const {
  const std::string& n = var_names_.at(j);
  return n.empty() ? indexed_name("x", j) : n;
}

void Problem::set_rhs(std::size_t i, double rhs) {
  AGORA_REQUIRE(i < constraints_.size(), "rhs for unknown constraint");
  AGORA_REQUIRE(!std::isnan(rhs), "NaN rhs in constraint " + constraints_[i].name);
  constraints_[i].rhs = rhs;
}

void Problem::set_bounds(std::size_t var, double lo, double hi) {
  AGORA_REQUIRE(var < num_variables(), "bounds for unknown variable");
  AGORA_REQUIRE(!(lo > hi), "variable bounds inverted");
  // A value-only move of a finite upper bound (lower bound untouched) only
  // changes the rhs of the variable's bound row in standard form, so it
  // does not invalidate cached structure (see repatch_standard_form_rhs).
  // Anything that can change the variable mapping -- a lower-bound move
  // (shift offsets feed A's transformed rhs and c0) or a bound changing
  // finiteness -- is a structural edit.
  const bool rhs_only =
      lo == lo_[var] && (hi == hi_[var] || (std::isfinite(lo) &&
                                            std::isfinite(hi) &&
                                            std::isfinite(hi_[var])));
  lo_[var] = lo;
  hi_[var] = hi;
  if (!rhs_only) ++structural_rev_;
}

double Problem::objective_value(const std::vector<double>& x) const {
  AGORA_REQUIRE(x.size() == num_variables(), "point has wrong dimension");
  double v = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) v += cost_[j] * x[j];
  return v;
}

double Problem::max_violation(const std::vector<double>& x) const {
  AGORA_REQUIRE(x.size() == num_variables(), "point has wrong dimension");
  double viol = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < lo_[j]) viol = std::max(viol, lo_[j] - x[j]);
    if (x[j] > hi_[j]) viol = std::max(viol, x[j] - hi_[j]);
  }
  for (const auto& c : constraints_) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) lhs += c.coeffs[j] * x[j];
    switch (c.rel) {
      case Relation::LessEqual: viol = std::max(viol, lhs - c.rhs); break;
      case Relation::GreaterEqual: viol = std::max(viol, c.rhs - lhs); break;
      case Relation::Equal: viol = std::max(viol, std::fabs(lhs - c.rhs)); break;
    }
  }
  return viol;
}

void Problem::validate() const {
  for (std::size_t j = 0; j < num_variables(); ++j) {
    AGORA_REQUIRE(!(lo_[j] > hi_[j]), "inverted bounds on " + variable_name(j));
    AGORA_REQUIRE(std::isfinite(cost_[j]),
                  "non-finite objective coefficient on " + variable_name(j));
  }
  for (const auto& c : constraints_) {
    AGORA_REQUIRE(std::isfinite(c.rhs), "non-finite rhs in " + c.name);
    AGORA_REQUIRE(c.coeffs.size() == num_variables(), "stale constraint width in " + c.name);
    for (double v : c.coeffs) AGORA_REQUIRE(std::isfinite(v), "non-finite coefficient in " + c.name);
  }
}

}  // namespace agora::lp
