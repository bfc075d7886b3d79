#include "alloc/allocator.h"

#include <algorithm>
#include <cmath>

#include "lp/model_builder.h"
#include "obs/timer.h"

namespace agora::alloc {

namespace {
constexpr double kFeasTol = 1e-9;

lp::PipelineOptions pipeline_options(const AllocatorOptions& opts) {
  lp::PipelineOptions po;
  po.tols = opts.solve.tols;
  po.sink = opts.sink;
  return po;
}
}  // namespace

Allocator::Allocator(agree::AgreementSystem sys, AllocatorOptions opts)
    : sys_(std::move(sys)), opts_(opts), pipeline_(pipeline_options(opts)) {
  sys_.validate(/*allow_overdraft=*/true);
  obs_plan_seconds_ = &opts_.sink.histogram("alloc.plan.seconds");
  obs_cache_hits_ = &opts_.sink.counter("alloc.model_cache.hits");
  obs_cache_misses_ = &opts_.sink.counter("alloc.model_cache.misses");
  obs_clamp_k_ = &opts_.sink.counter("alloc.clamp.overdraft_k");
  obs_clamp_u_ = &opts_.sink.counter("alloc.clamp.entitlement_u");
  obs_plans_satisfied_ = &opts_.sink.counter("alloc.plans.satisfied");
  obs_plans_insufficient_ = &opts_.sink.counter("alloc.plans.insufficient");
  obs_plans_denied_ = &opts_.sink.counter("alloc.plans.denied");
  obs_plans_failed_ = &opts_.sink.counter("alloc.plans.solver_failed");
  obs_closed_form_denials_ = &opts_.sink.counter("alloc.plans.closed_form_denials");
  // The expensive part (simple-path enumeration) depends only on S; do it
  // once and keep the K matrix cached across capacity updates.
  Matrix t = agree::transitive_shares(sys_.relative, opts_.transitive);
  if constexpr (obs::kEnabled) {
    std::uint64_t clamped = 0;
    for (double v : t.flat())
      if (v > 1.0) ++clamped;
    obs_clamp_k_->inc(clamped);
  }
  report_.shares = agree::overdraft_clamp(std::move(t));

  const std::size_t n = sys_.size();
  components_ = agree::connected_components(sys_);
  component_of_.resize(n);
  local_of_.resize(n);
  for (std::size_t c = 0; c < components_.size(); ++c)
    for (std::size_t l = 0; l < components_[c].size(); ++l) {
      component_of_[components_[c][l]] = c;
      local_of_[components_[c][l]] = l;
    }
  models_.resize(components_.size());
  verifiers_.assign(components_.size(), lp::Verifier(opts_.solve.tols));

  // U_ki across components is zero (no agreement path joins them) and stays
  // zero: refreshes touch only the blocks inside a component.
  report_.entitlement.assign(n, n);
  report_.capacity.assign(n, 0.0);
  std::uint64_t u_clamps = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) u_clamps += refresh_component(c);
  obs_clamp_u_->inc(u_clamps);
}

std::uint64_t Allocator::refresh_component(std::size_t c) {
  const std::vector<std::size_t>& members = components_[c];
  std::uint64_t u_clamps = 0;
  for (const std::size_t k : members) {
    const double vk = sys_.capacity[k];
    const double* share = report_.shares.row(k).data();
    const double* absolute = sys_.absolute.row(k).data();
    double* u = report_.entitlement.row(k).data();
    u[k] = sys_.retained[k] * vk;
    for (const std::size_t i : members) {
      if (i == k) continue;
      const double raw = vk * share[i] + absolute[i];
      if (raw > vk) ++u_clamps;
      u[i] = std::min(raw, vk);
    }
  }
  for (const std::size_t i : members) {
    double cap = report_.entitlement.at_unchecked(i, i);
    for (const std::size_t k : members)
      if (k != i) cap += report_.entitlement.at_unchecked(k, i);
    report_.capacity[i] = cap;
  }
  return u_clamps;
}

void Allocator::commit(const CapacityWrite& write) {
  next_capacities(sys_.capacity, write, next_capacity_);
  const std::vector<double>& next = next_capacity_;
  std::uint64_t u_clamps = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const std::vector<std::size_t>& members = components_[c];
    if (std::all_of(members.begin(), members.end(),
                    [&](std::size_t k) { return next[k] == sys_.capacity[k]; }))
      continue;
    for (const std::size_t k : members) sys_.capacity[k] = next[k];
    u_clamps += refresh_component(c);
  }
  obs_clamp_u_->inc(u_clamps);
}

lp::SolveResult Allocator::run_certified(const lp::Problem& p, lp::SolveWorkspace* ws,
                                         AllocationPlan& plan) const {
  lp::PipelineResult solved = pipeline_.solve(p, ws);
  plan.certified = solved.certified();
  plan.solver_fallbacks = solved.fallbacks;
  plan.lp_iterations = solved.result.iterations;
  // An answer the chain could not certify is denied, never granted. A
  // certified answer is never an iteration limit.
  if (!plan.certified) plan.status = PlanStatus::Denied;
  else if (solved.result.status == lp::Status::Optimal) plan.status = PlanStatus::Satisfied;
  else plan.status = PlanStatus::Insufficient;
  return std::move(solved.result);
}

AllocationPlan Allocator::allocate(std::size_t a, double amount) const {
  AGORA_REQUIRE(a < sys_.size(), "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");

  obs::ScopedTimer plan_timer(obs_plan_seconds_);
  const bool exact = opts_.equality == EqualityMode::Exact;
  AllocationPlan plan = opts_.formulation == Formulation::Compact
                            ? solve_compact(a, amount, exact)
                            : solve_full(a, amount, exact);
  if (exact && plan.status == PlanStatus::Insufficient &&
      report_.capacity[a] >= amount - kFeasTol) {
    // Constraint (3) made the paper-exact program infeasible even though
    // capacity suffices; fall back to the relaxed model (see DESIGN.md).
    plan = opts_.formulation == Formulation::Compact ? solve_compact(a, amount, false)
                                                     : solve_full(a, amount, false);
    plan.exact_mode_fell_back = true;
  }
  if constexpr (obs::kEnabled) {
    switch (plan.status) {
      case PlanStatus::Satisfied: obs_plans_satisfied_->inc(); break;
      case PlanStatus::Insufficient: obs_plans_insufficient_->inc(); break;
      case PlanStatus::Denied: obs_plans_denied_->inc(); break;
      case PlanStatus::SolverFailed: obs_plans_failed_->inc(); break;
    }
  }
  return plan;
}

AllocationModelCache& Allocator::component_model(std::size_t a, double amount) const {
  const std::size_t c = component_of_[a];
  AllocationModelCache& model = models_[c];
  if (!model.built()) {
    obs_cache_misses_->inc();
    model.build(sys_, report_, components_[c]);
  } else {
    obs_cache_hits_->inc();
  }
  model.patch(report_, a, amount);
  return model;
}

bool Allocator::try_closed_form_denial(std::size_t a, double amount,
                                       AllocationModelCache& model,
                                       AllocationPlan& plan) const {
  // C_a is the sum of the draw bounds U_ka over a's component (U_ka is zero
  // elsewhere), and theta has no upper bound, so the perturbation rows never
  // decide feasibility: the demand row alone does. Amounts within the band
  // above C_a go to the LP, which decides them at its own tolerances.
  const double cap = report_.capacity[a];
  const double tol = opts_.solve.tols.farkas;
  if (!(amount - cap > tol * (1.0 + std::max(amount, cap)))) return false;
  const lp::Certificate cert =
      verifiers_[component_of_[a]].certify_infeasible(model.problem(), model.demand_farkas());
  if (!cert.certified) return false;
  plan.status = PlanStatus::Insufficient;
  plan.certified = true;
  plan.lp_iterations = 0;
  obs_closed_form_denials_->inc();
  return true;
}

AllocationPlan Allocator::solve_compact(std::size_t a, double amount, bool exact) const {
  AllocationPlan plan;
  // One model structure per component, built once per Allocator; each
  // request only patches the draw bounds (U_kA) and the demand rhs of its
  // requester's component.
  AllocationModelCache& model = component_model(a, amount);
  const std::vector<std::size_t>& members = model.members();
  const std::size_t m = members.size();
  lp::SolveResult r;
  if (exact) {
    // Paper constraint (3) on a copy of the model, solved cold: the
    // requester's capacity drops by exactly the amount,
    // sum_k That_ka * d_k == amount.
    lp::Problem p = model.problem();
    std::vector<double> drop_a(m, 0.0);
    for (std::size_t l = 0; l < m; ++l)
      drop_a[l] = members[l] == a ? sys_.retained[a] : report_.shares(members[l], a);
    p.add_constraint(std::move(drop_a), lp::Relation::Equal, amount, "exact_drop_at_requester");
    r = run_certified(p, nullptr, plan);
  } else {
    if (try_closed_form_denial(a, amount, model, plan)) return plan;
    r = run_certified(model.problem(), opts_.reuse_context ? &model.workspace() : nullptr,
                      plan);
  }
  if (!plan.satisfied()) return plan;

  // Variables are the draws of `members`, in member order, then theta.
  plan.draw.assign(sys_.size(), 0.0);
  for (std::size_t l = 0; l < m; ++l) plan.draw[members[l]] = std::max(0.0, r.x[l]);
  plan.theta = r.x[m];
  return plan;
}

AllocationPlan Allocator::solve_full(std::size_t a, double amount, bool exact) const {
  const std::size_t n = sys_.size();
  AllocationPlan plan;

  // The paper's variable set: V'_i, C'_i, I'_ij (i != j), theta
  // -- n^2 + n + 1 variables total (C' counts into the paper's n^2 + n + 1
  // as the I' matrix has n(n-1) entries).
  lp::ModelBuilder mb(lp::Sense::Minimize);
  std::vector<lp::Var> vprime(n), cprime(n);
  Matrix that = report_.shares;  // K_ki with zero diagonal

  for (std::size_t i = 0; i < n; ++i) {
    // Constraint (4): 0 <= V_i - V'_i <= I_iA (own node: <= V_A).
    const double max_draw = i == a ? sys_.capacity[a] : report_.entitlement(i, a);
    vprime[i] = mb.add_var("V'[" + std::to_string(i) + "]",
                           std::max(0.0, sys_.capacity[i] - max_draw), sys_.capacity[i]);
  }
  for (std::size_t i = 0; i < n; ++i)
    cprime[i] = mb.add_var("C'[" + std::to_string(i) + "]", 0.0, lp::kInfinity);
  const lp::Var theta = mb.add_var("theta", 0.0);

  // I'_ij variables plus constraint (1): I'_ij = V'_i * T_ij.
  std::vector<std::vector<lp::Var>> iprime(n, std::vector<lp::Var>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      iprime[i][j] =
          mb.add_var("I'[" + std::to_string(i) + "][" + std::to_string(j) + "]", 0.0,
                     lp::kInfinity);
      mb.add(1.0 * iprime[i][j] - that(i, j) * vprime[i] == 0.0, "flow");
    }
  }

  // Constraint (2): C'_i = retained_i * V'_i + sum_{k != i} I'_ki.
  for (std::size_t i = 0; i < n; ++i) {
    lp::LinExpr rhs = sys_.retained[i] * vprime[i];
    for (std::size_t k = 0; k < n; ++k)
      if (k != i) rhs += lp::LinExpr(iprime[k][i]);
    mb.add(1.0 * cprime[i] - rhs == 0.0, "capacity");
  }

  // Constraint (3), exact mode only.
  if (exact) mb.add(1.0 * cprime[a] == report_.capacity[a] - amount, "exact");

  // Constraint (5): sum_i (V_i - V'_i) = x.
  lp::LinExpr drawn;
  for (std::size_t i = 0; i < n; ++i) drawn += -1.0 * vprime[i];
  mb.add(drawn == amount - sum(sys_.capacity), "demand");

  // Constraint (6): C_i - theta <= C'_i <= C_i.
  for (std::size_t i = 0; i < n; ++i) {
    mb.add(1.0 * cprime[i] + 1.0 * theta >= report_.capacity[i], "lower");
    mb.add(1.0 * cprime[i] <= report_.capacity[i], "upper");
  }

  mb.minimize(lp::LinExpr(theta));

  const lp::SolveResult r = run_certified(mb.problem(), nullptr, plan);
  if (!plan.satisfied()) return plan;

  plan.draw.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    plan.draw[i] = std::max(0.0, sys_.capacity[i] - r.x[vprime[i].index]);
  plan.theta = r.x[theta.index];
  return plan;
}

}  // namespace agora::alloc
