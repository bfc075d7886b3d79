// solve_pipeline.h -- staged, self-verifying LP solve chain.
//
// A simplex answering alone is a single point of failure: the warm-started
// revised solve is the fastest path but also the most exposed to
// accumulated drift, a cold revised solve starts from a fresh slack basis
// and factorization, and brute-force enumeration is exact on tiny problems.
// The pipeline escalates through them --
//
//     warm revised -> cold revised -> brute force
//
// (brute force only below kBruteForceMaxBases) -- and after EVERY attempt
// asks lp::Verifier to certify the answer against the original problem. The
// first certified answer wins; an uncertified answer is never returned as
// trustworthy. When the whole chain is exhausted the caller gets the last
// attempt plus its rejection reason, with certified() == false --
// enforcement layers map that to an explicit conservative denial.
//
// It is the only way an alloc::Allocator (and the fine level of an
// alloc::HierarchicalAllocator) solves an LP: one solve() call, warm when
// the caller passes a workspace that holds a basis, cold otherwise.
//
// Per-stage telemetry (attempts, certification failures, fallback depth,
// accumulated solver health counters) is kept in PipelineStats so operators
// can see degradation *before* it becomes wrong answers.
#pragma once

#include <cstdint>

#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/result.h"
#include "lp/solve.h"
#include "lp/workspace.h"
#include "obs/sink.h"

namespace agora::lp {

enum class PipelineStage : int {
  WarmRevised = 0,
  ColdRevised = 1,
  BruteForce = 2,
  Exhausted = 3,
};
inline constexpr int kPipelineStages = 3;

inline const char* to_string(PipelineStage s) {
  switch (s) {
    case PipelineStage::WarmRevised: return "warm-revised";
    case PipelineStage::ColdRevised: return "cold-revised";
    case PipelineStage::BruteForce: return "brute-force";
    case PipelineStage::Exhausted: return "exhausted";
  }
  return "unknown";
}

struct PipelineOptions {
  /// The tolerances shared by the stages and the Verifier. Each stage sets
  /// its own backend.
  Tolerances tols;
  /// Telemetry destination. Metric handles are resolved once at pipeline
  /// construction; the solve path itself never touches the registry map.
  /// Events carry the solve ordinal as their time (the pipeline has no
  /// clock), so identically seeded runs emit identical streams.
  obs::Sink sink = obs::Sink::global();
};

struct PipelineStats {
  std::uint64_t solves = 0;
  /// Per-stage attempt / certification-failure counters, indexed by
  /// PipelineStage (Exhausted excluded).
  std::uint64_t attempts[kPipelineStages] = {};
  std::uint64_t failures[kPipelineStages] = {};
  std::uint64_t certified = 0;     ///< solves that returned a certified answer
  std::uint64_t primal_only = 0;   ///< ... of which only primal-certified
  std::uint64_t exhausted = 0;     ///< solves where no stage certified
  std::uint64_t max_fallback_depth = 0;  ///< worst # of extra stages needed
  /// Solver health counters accumulated over every attempt.
  SolveStats solver;
};

/// Merge `from` into `into`: counters add, high-water marks take the max.
/// The aggregation every multi-pipeline owner needs (the engine's per-shard
/// allocators, a rebuilt allocator carrying its predecessor's telemetry).
void accumulate(PipelineStats& into, const PipelineStats& from);

struct PipelineResult {
  SolveResult result;
  Certificate certificate;
  /// Stage that produced `result` (Exhausted when nothing certified; the
  /// result is then the last attempt and certificate.reject says why it was
  /// rejected).
  PipelineStage stage = PipelineStage::Exhausted;
  /// Stages tried beyond the first (0 on the happy path).
  std::uint64_t fallbacks = 0;

  bool certified() const { return certificate.certified; }
};

class SolvePipeline {
 public:
  explicit SolvePipeline(PipelineOptions opts = {});

  /// Run the chain on `p`. Without a workspace (or with one that holds no
  /// warm basis) the warm stage is skipped and the solve is cold. `ws`
  /// follows the revised solver's workspace contract (lp/revised.h); when a
  /// warm answer fails certification the workspace is invalidated before
  /// the cold retry, so a poisoned basis cannot survive into later solves.
  PipelineResult solve(const Problem& p, SolveWorkspace* ws = nullptr);

  /// The telemetry so far. Each counted field reads the Tally that also
  /// feeds its lp.pipeline.* registry counter.
  PipelineStats stats() const;
  const PipelineOptions& options() const { return opts_; }

 private:
  /// Per-stage counts and timer, their registry handles resolved at
  /// construction so the solve path is allocation-free (see obs/metrics.h:
  /// references are stable for the registry's lifetime).
  struct StageObs {
    obs::Tally attempts;
    obs::Tally failures;
    obs::LogHistogram* seconds = nullptr;
  };

  PipelineOptions opts_;
  Verifier verifier_;
  StageObs stage_obs_[kPipelineStages];
  obs::Tally solves_;
  obs::Tally certified_;
  obs::Tally exhausted_;
  /// The PipelineStats fields no registry counter mirrors.
  std::uint64_t primal_only_ = 0;
  std::uint64_t max_fallback_depth_ = 0;
  SolveStats solver_;
  obs::LogHistogram* obs_solve_seconds_ = nullptr;
  obs::LogHistogram* obs_iterations_ = nullptr;
};

}  // namespace agora::lp
