#include "lp/solve_pipeline.h"

#include <algorithm>
#include <utility>

#include <string>

#include "obs/timer.h"
#include "util/error.h"

namespace agora::lp {

namespace {

void accumulate(SolveStats& into, const SolveStats& s) {
  into.refactorizations += s.refactorizations;
  into.residual_refactorizations += s.residual_refactorizations;
  into.refinement_steps += s.refinement_steps;
  into.bland_pivots += s.bland_pivots;
  into.condition_estimate = std::max(into.condition_estimate, s.condition_estimate);
  into.max_xb_residual = std::max(into.max_xb_residual, s.max_xb_residual);
  // Snapshot-style gauges: keep the high-water mark, not a meaningless sum.
  into.basis_nnz = std::max(into.basis_nnz, s.basis_nnz);
  into.lu_nnz = std::max(into.lu_nnz, s.lu_nnz);
  into.max_eta_count = std::max(into.max_eta_count, s.max_eta_count);
}

}  // namespace

void accumulate(PipelineStats& into, const PipelineStats& from) {
  into.solves += from.solves;
  for (int s = 0; s < kPipelineStages; ++s) {
    into.attempts[s] += from.attempts[s];
    into.failures[s] += from.failures[s];
  }
  into.certified += from.certified;
  into.primal_only += from.primal_only;
  into.exhausted += from.exhausted;
  into.max_fallback_depth = std::max(into.max_fallback_depth, from.max_fallback_depth);
  accumulate(into.solver, from.solver);
}

SolvePipeline::SolvePipeline(PipelineOptions opts)
    : opts_(opts), verifier_(opts.solve.tols) {
  // Resolve all metric handles up front; solve() then only bumps atomics.
  for (int i = 0; i < kPipelineStages; ++i) {
    const std::string prefix =
        std::string("lp.pipeline.stage.") + to_string(static_cast<PipelineStage>(i));
    stage_obs_[i].attempts = obs::Tally(opts_.sink.counter(prefix + ".attempts"));
    stage_obs_[i].failures = obs::Tally(opts_.sink.counter(prefix + ".cert_failures"));
    stage_obs_[i].seconds = &opts_.sink.histogram(prefix + ".seconds");
  }
  solves_ = obs::Tally(opts_.sink.counter("lp.pipeline.solves"));
  certified_ = obs::Tally(opts_.sink.counter("lp.pipeline.certified"));
  exhausted_ = obs::Tally(opts_.sink.counter("lp.pipeline.exhausted"));
  obs_solve_seconds_ = &opts_.sink.histogram("lp.pipeline.solve.seconds");
  obs_iterations_ = &opts_.sink.histogram("lp.pipeline.iterations");
}

PipelineStats SolvePipeline::stats() const {
  PipelineStats s;
  s.solves = solves_.value();
  for (int i = 0; i < kPipelineStages; ++i) {
    s.attempts[i] = stage_obs_[i].attempts.value();
    s.failures[i] = stage_obs_[i].failures.value();
  }
  s.certified = certified_.value();
  s.primal_only = primal_only_;
  s.exhausted = exhausted_.value();
  s.max_fallback_depth = max_fallback_depth_;
  s.solver = solver_;
  return s;
}

PipelineResult SolvePipeline::solve(const Problem& p) { return attempt_chain(p, nullptr); }

PipelineResult SolvePipeline::solve(const Problem& p, SolveWorkspace* ws) {
  return attempt_chain(p, ws);
}

PipelineResult SolvePipeline::attempt_chain(const Problem& p, SolveWorkspace* ws) {
  solves_.inc();
  // Event time = solve ordinal: deterministic under identical inputs.
  const std::uint64_t solve_no = solves_.value();
  const double ordinal = static_cast<double>(solve_no);
  const auto actor = static_cast<std::uint32_t>(solve_no);
  opts_.sink.event(ordinal, obs::EventKind::LpSolveStarted, actor);
  obs::ScopedTimer solve_timer(obs_solve_seconds_);
  PipelineResult out;

  bool saw_unbounded_claim = false;
  std::uint64_t attempts_made = 0;

  // The warm stage runs only on a warm workspace.
  const PipelineStage first =
      ws && ws->warm ? PipelineStage::WarmRevised : PipelineStage::ColdRevised;
  for (int idx = static_cast<int>(first); idx < kPipelineStages; ++idx) {
    const auto stage = static_cast<PipelineStage>(idx);
    SolveResult r;
    const double stage_start = obs::kEnabled ? obs::now_seconds() : 0.0;
    SolveOptions stage_opts = opts_.solve;
    switch (stage) {
      case PipelineStage::WarmRevised:
      case PipelineStage::ColdRevised:
        // Both pass the workspace: scratch is reused and a certified
        // optimum re-establishes the warm state for the next solve. In the
        // cold stage the warm flag is guaranteed off (either never set, or
        // cleared below after a failed warm certification).
        stage_opts.backend = Backend::Revised;
        r = lp::solve(p, stage_opts, ws);
        break;
      case PipelineStage::BruteForce: {
        // Enumeration cannot recognize unboundedness: if any earlier stage
        // claimed it, a "best basic solution" would be a lie. Skip.
        if (saw_unbounded_claim) continue;
        stage_opts.backend = Backend::BruteForce;
        try {
          r = lp::solve(p, stage_opts, nullptr);
        } catch (const PreconditionError&) {
          continue;  // problem too large for the terminal stage
        }
        break;
      }
      case PipelineStage::Exhausted:
        continue;
    }

    stage_obs_[idx].attempts.inc();
    ++attempts_made;
    accumulate(solver_, r.stats);
    if constexpr (obs::kEnabled)
      stage_obs_[idx].seconds->observe(obs::now_seconds() - stage_start);
    if (r.status == Status::Unbounded) saw_unbounded_claim = true;

    Certificate cert = verifier_.certify(p, r);
    if (cert.certified) {
      max_fallback_depth_ = std::max(max_fallback_depth_, attempts_made - 1);
      certified_.inc();
      if (cert.primal_only) ++primal_only_;
      obs_iterations_->observe(static_cast<double>(r.iterations));
      opts_.sink.event(ordinal, obs::EventKind::LpSolveCertified, actor,
                       static_cast<std::uint32_t>(idx),
                       static_cast<double>(attempts_made - 1),
                       static_cast<double>(r.iterations));
      out.result = std::move(r);
      out.certificate = cert;
      out.stage = stage;
      out.fallbacks = attempts_made - 1;
      return out;
    }

    stage_obs_[idx].failures.inc();
    opts_.sink.event(ordinal, obs::EventKind::LpSolveFallback, actor,
                     static_cast<std::uint32_t>(idx));
    if ((stage == PipelineStage::WarmRevised || stage == PipelineStage::ColdRevised) && ws) {
      // The revised answer did not survive verification; do not let its
      // basis seed the next solve.
      ws->invalidate();
    }
    out.result = std::move(r);
    out.certificate = cert;
  }

  exhausted_.inc();
  opts_.sink.event(ordinal, obs::EventKind::LpSolveExhausted, actor, 0,
                   static_cast<double>(attempts_made));
  max_fallback_depth_ =
      std::max(max_fallback_depth_, attempts_made > 0 ? attempts_made - 1 : 0);
  out.stage = PipelineStage::Exhausted;
  out.fallbacks = attempts_made > 0 ? attempts_made - 1 : 0;
  return out;
}

}  // namespace agora::lp
