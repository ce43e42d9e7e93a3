// Conference Reviewer Assignment — the general WGRAP (Definition 3, Sec. 4).
// Solvers mirror the paper's Sec. 5.2 line-up:
//
//   SolveCraGreedy         — Long et al.'s 1/3-approx greedy (Eq. 4) with a
//                            lazy heap (gains are submodular-monotone).
//   SolveCraBrgg           — Best Reviewer Group Greedy: per iteration, the
//                            best (group, paper) pair is committed whole.
//   SolveCraSdga           — Stage Deepening Greedy (Algorithm 2): δp
//                            linear-assignment stages, each solved by the
//                            capacity-aware Jonker–Volgenant (the paper's
//                            "Hungarian algorithm"); 1/2-approx (≥1-1/e
//                            when δp | δr).
//   RefineSra              — Stochastic Refinement (Algorithm 3) on top of
//                            any feasible assignment.
//   RefineLocalSearch      — plain hill-climbing refinement (Fig. 12's LS).
//   SolveCraStableMatching — Gale–Shapley college-admissions baseline (SM).
//   SolveCraIlpArap        — exact ARAP (per-pair objective) via one
//                            demand-δp Jonker–Volgenant solve; the paper's
//                            "ILP" baseline.
#ifndef WGRAP_CORE_CRA_H_
#define WGRAP_CORE_CRA_H_

#include <cstdint>
#include <functional>

#include "common/cancel.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"

namespace wgrap::core {

/// One frame of anytime-solver progress. Frames are deterministic for a
/// fixed (instance, seed, knobs): the emission sites are round/stage
/// boundaries, never wall-clock ticks, and `best_score` is monotone
/// non-decreasing within a solve — which is what lets the service retain
/// and replay them byte-identically (`watch <job>`).
struct ProgressFrame {
  /// Emitting phase: "sdga" (stage commits), "sra" (improving rounds),
  /// "ls" (improving batches), "ilp" (incumbents).
  const char* phase = "";
  /// 1-based round/stage index; 0 marks the initial score of a refiner.
  int64_t round = 0;
  /// Best objective value found so far.
  double best_score = 0.0;
};

/// Progress callback, invoked from the solver's driving thread at the
/// same coarse boundaries as the deadline/cancel polls. Must be cheap and
/// must not throw; null = no progress reporting.
using ProgressFn = std::function<void(const ProgressFrame&)>;

struct CraOptions {
  double time_limit_seconds = 0.0;  // 0 = unlimited
  /// Worker threads for the parallelized hot paths (SDGA stage scoring,
  /// SRA removal sampling + completion scoring, local-search neighbourhood
  /// evaluation, BRGG group construction). Values < 1 are clamped to 1.
  /// Output is bit-identical for any value — parallel work is keyed by
  /// item index, random draws come from per-item Rng streams, and
  /// reductions happen in index order. greedy/sm/ilp/rrap are sequential
  /// and ignore it.
  int num_threads = 1;
  /// Cooperative cancellation (common/cancel.h), polled at the same coarse
  /// boundaries as the time limit; solvers abort with kCancelled. Null =
  /// never cancelled.
  CancelToken cancel;
  /// Anytime progress frames (SDGA stages, SRA rounds, LS batches, ILP
  /// incumbents). Purely observational: emitting does not change a single
  /// bit of the returned assignment.
  ProgressFn progress;
};

/// Vestiges of the retired stage alternatives, kept only because the
/// benchmark harness (perfbench/) names every value; they go with the
/// auction (ROADMAP item 1). The stages run one pipeline: the GainCache's
/// row-maintained profits (core/gain_cache.h) solved by the capacity-aware
/// Jonker–Volgenant (la::SolveCapacitatedAssignment). RefineSra accepts
/// only kIncremental and kHungarian and rejects the rest with
/// kInvalidArgument. The per-pair rebuild (Assignment::MarginalGain) and
/// min-cost flow (la::SolveTransportation) live on as test oracles
/// (tests/gain_cache_test.cc).
enum class GainMode { kRebuild, kIncremental };
enum class LapBackend { kMinCostFlow, kHungarian, kAuction };

struct SdgaOptions : CraOptions {
  /// Per-stage reviewer cap ⌈δr/δp⌉ (Definition 9). Turning this off
  /// forfeits the approximation guarantee — ablation knob (DESIGN.md §5).
  bool confine_stage_workload = true;
};

/// Progress callback: (elapsed seconds, best objective so far). Used by the
/// refinement-over-time experiments (Fig. 12, Fig. 16).
using RefineTrace = std::function<void(double, double)>;

struct SraOptions : CraOptions {
  /// Vestiges (see LapBackend): the only accepted values. The completion
  /// step runs the SDGA stage pipeline, one GainCache across all rounds.
  LapBackend backend = LapBackend::kHungarian;
  GainMode gains = GainMode::kIncremental;
  /// ω — stop after this many rounds without improvement (Sec. 4.4; the
  /// paper's default is 10).
  int convergence_window = 10;
  /// λ — decay rate of the data-driven term in Eq. 10.
  double decay_lambda = 0.05;
  /// Hard cap on refinement rounds.
  int max_iterations = 10000;
  /// Ablation: replace Eq. 10 with the uniform model P(r|p) = 1/R.
  bool uniform_probability = false;
  uint64_t seed = 20150531;  // SIGMOD'15 opening day
  RefineTrace trace;
};

struct LocalSearchOptions : CraOptions {
  /// Stop after this many consecutive non-improving proposals.
  int max_stall_proposals = 20000;
  uint64_t seed = 20150531;
  RefineTrace trace;
};

/// Long et al.'s pair-at-a-time greedy (Eq. 4), 1/3-approximation.
/// Lazy-heap implementation: O(P·δp · log(P·R) · T) in practice.
/// Contract: returns a complete feasible assignment (ValidateComplete
/// passes) or a non-OK Status; never a partial assignment.
Result<Assignment> SolveCraGreedy(const Instance& instance,
                                  const CraOptions& options = {});

/// Best Reviewer Group Greedy: each round commits the best whole
/// (group, paper) pair, solving one JRA-style subproblem per paper per
/// round — much slower than SolveCraGreedy, kept as the Sec. 5.2 baseline.
/// Same feasibility contract as SolveCraGreedy.
Result<Assignment> SolveCraBrgg(const Instance& instance,
                                const CraOptions& options = {});

/// Stage Deepening Greedy (Algorithm 2, Sec. 4.2-4.3): δp stages, each a
/// linear assignment over the marginal gains, with the per-stage workload
/// cap ⌈δr/δp⌉ (Definition 9). Approximation ratio 1/2, rising to ≥ 1-1/e
/// when δp | δr (Theorems 1-2). Cost: δp JV solves — O(δp · LAP(P, R))
/// plus one gain-row pass per paper whose group moved. Same feasibility
/// contract as SolveCraGreedy.
Result<Assignment> SolveCraSdga(const Instance& instance,
                                const SdgaOptions& options = {});

/// Runs stochastic refinement (Algorithm 3, Sec. 4.4) on `initial`
/// (typically SDGA output) and returns the best assignment encountered.
/// Contract: `initial` must be complete and feasible on `instance`; the
/// result is never worse than `initial`. Anytime: stops on the ω-round
/// convergence window, max_iterations, or the time limit, whichever comes
/// first. Setup is one O(P·R) pass for the per-reviewer Eq. 9 totals; each
/// round then samples from P·δp pair utilities and runs one completion
/// stage. Deterministic given `seed`, at any num_threads.
/// kInvalidArgument, naming the knob, for any backend but kHungarian or
/// any gain mode but kIncremental.
Result<Assignment> RefineSra(const Instance& instance,
                             const Assignment& initial,
                             const SraOptions& options = {});

/// Hill-climbing swap/replace refinement; the comparison baseline of
/// Fig. 12 ("SDGA-LS"). Same contract as RefineSra (never worse than
/// `initial`, anytime, deterministic given `seed`).
Result<Assignment> RefineLocalSearch(const Instance& instance,
                                     const Assignment& initial,
                                     const LocalSearchOptions& options = {});

/// Gale-Shapley college admissions on pair utilities (the "SM" baseline of
/// Sec. 5.2): papers propose in rounds, reviewers hold their best δr
/// proposals. O(P·R·log R). Ignores group complementarity by design —
/// that gap is what Fig. 11 measures. Same feasibility contract as
/// SolveCraGreedy.
Result<Assignment> SolveCraStableMatching(const Instance& instance,
                                          const CraOptions& options = {});

/// Exact solver for ARAP, the *per-pair* objective Σ c(r→, p→) (the
/// paper's "ILP" baseline), via one transportation solve: the stage JV
/// with demand δp (la::SolveCapacitatedAssignment), polling the budget
/// and the cancel token per inserted reviewer slot. Sequential. Optimal
/// for ARAP but not for WGRAP — the group objective is what it
/// deliberately ignores. O(P·δp · R · (R + P)) worst case.
Result<Assignment> SolveCraIlpArap(const Instance& instance,
                                   const CraOptions& options = {});

/// Convenience: SDGA followed by SRA (the paper's SDGA-SRA method).
Result<Assignment> SolveCraSdgaSra(const Instance& instance,
                                   const SdgaOptions& sdga_options = {},
                                   const SraOptions& sra_options = {});

/// Output of the retrieval-based baseline (Definition 4): per-paper
/// reviewer lists (sizes unconstrained) plus imbalance diagnostics. Not an
/// Assignment because RRAP does not satisfy the group-size constraint.
struct RrapResult {
  std::vector<std::vector<int>> reviewers_of_paper;
  double pairwise_score = 0.0;
  int papers_without_reviewers = 0;
  int under_reviewed_papers = 0;  // fewer than δp reviewers
  int max_reviewers_per_paper = 0;
};

/// Retrieval-based RAP: each reviewer takes their top-δr papers
/// independently. The historical baseline whose imbalance (Fig. 1(a))
/// motivates the group-size constraint. Honors options.time_limit_seconds
/// (kResourceExhausted) and options.cancel (kCancelled); num_threads is
/// ignored (the scan is sequential).
Result<RrapResult> SolveCraRrap(const Instance& instance,
                                const CraOptions& options = {});

}  // namespace wgrap::core

#endif  // WGRAP_CORE_CRA_H_
