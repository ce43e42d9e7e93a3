// Stage Deepening Greedy Algorithm (SDGA) — Algorithm 2 / Definition 9.
//
// The assignment is built in δp stages. Each stage assigns exactly one
// reviewer to every paper by solving a linear assignment problem whose
// profits are the marginal gains w.r.t. the groups accumulated in earlier
// stages (Eq. 5); the per-stage reviewer cap ⌈δr/δp⌉ reserves workload for
// later stages, which is what the (1 - 1/e) / 1/2 approximation proof
// (Theorems 1 and 2) relies on. Conflicts of interest are forbidden edges
// and do not affect the guarantee (Sec. 4.3).
//
// Three interchangeable LAP backends solve the stage (all find the same
// optimum of the same scaled integer program):
//   kHungarian   — the default: capacity-aware Jonker–Volgenant shortest
//                  augmenting paths with one dual per reviewer
//                  (la::SolveCapacitatedAssignment), sequential.
//   kMinCostFlow — dense transportation network, sequential.
//   kAuction     — parallel ε-scaling auction on a CSR candidate set,
//                  optionally pruned to the top-K gains per paper. Pruning
//                  is guarded for exactness: if the auction's final duals
//                  cannot prove every pruned edge irrelevant (or the
//                  pruned graph is infeasible), K widens and the stage
//                  re-solves, so the returned stage assignment is the
//                  same optimum the dense backends find.
#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "la/auction.h"
#include "la/hungarian.h"
#include "la/transportation.h"

namespace wgrap::core {

namespace {

// Moves a dense engine's per-paper reviewer choice into `chosen_agent`.
Status TakeAgents(Result<la::TransportationResult> solved,
                  std::vector<int>* chosen_agent) {
  if (!solved.ok()) return solved.status();
  *chosen_agent = std::move(solved->task_to_agent);
  return Status::OK();
}

// Auction with top-K candidate pruning: la::SolveAuctionTopK widens K
// and re-solves until the final duals certify that no pruned edge could
// improve the optimum. kFailedPrecondition (instance outside the
// auction's integer price domain, or non-convergence) is not an error —
// the caller falls back to min-cost flow, keeping the optimum identical.
Status SolveStageAuction(const Matrix& stage_profit,
                         const std::vector<int>& capacity, int top_k,
                         double initial_epsilon, ThreadPool* pool,
                         std::vector<int>* chosen_agent) {
  la::AuctionOptions auction;
  auction.pool = pool;
  auction.initial_epsilon = initial_epsilon;
  auto solved =
      la::SolveAuctionTopK(stage_profit, capacity, top_k, auction);
  if (!solved.ok()) return solved.status();
  *chosen_agent = std::move(solved->task_to_agent);
  return Status::OK();
}

// One SDGA stage: assigns one reviewer to every paper, maximizing summed
// marginal gain, respecting per-stage capacities. Shared with the SRA
// completion step (cra_sra.cc) via SolveStageAssignment. With `cache`
// (gains=incremental) the profit matrix is delta-patched and assembled
// from the GainCache; without it (gains=rebuild) every row is rescored
// from scratch. Both paths run on `pool` (required; a 1-thread pool runs
// inline) and are deterministic because each row is an independent
// function of the frozen assignment — and they feed the LAP the same
// integer program, so the stage outcome is identical (gain_cache.h).
Status RunStage(const Instance& instance, const std::vector<int>& capacity,
                const SdgaOptions& options, ThreadPool* pool,
                GainCache* cache, Assignment* assignment) {
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();

  std::vector<int> papers_needing;  // papers still missing a reviewer
  for (int p = 0; p < P; ++p) {
    if (static_cast<int>(assignment->GroupFor(p).size()) >=
        instance.group_size()) {
      continue;
    }
    papers_needing.push_back(p);
  }
  if (papers_needing.empty()) return Status::OK();

  Matrix stage_profit(static_cast<int>(papers_needing.size()), R,
                      la::kTransportForbidden);
  if (cache != nullptr) {
    cache->Refresh(*assignment, pool);
    cache->AssembleStageProfit(papers_needing, capacity, *assignment, pool,
                               &stage_profit);
  } else {
    pool->ParallelFor(0, static_cast<int64_t>(papers_needing.size()),
                      /*grain=*/8, [&](int64_t i) {
                        const int p = papers_needing[i];
                        for (int r = 0; r < R; ++r) {
                          if (capacity[r] <= 0 ||
                              instance.IsConflict(r, p) ||
                              assignment->Contains(p, r)) {
                            continue;
                          }
                          stage_profit(static_cast<int>(i), r) =
                              assignment->MarginalGain(p, r);
                        }
                      });
    static obs::Counter* const rebuilt = obs::Registry::Global().GetCounter(
        "wgrap_gain_cache_rebuilt_cells_total");
    if (rebuilt) {
      rebuilt->Add(static_cast<int64_t>(papers_needing.size()) * R);
    }
  }

  std::vector<int> chosen_agent;
  Status solved = Status::OK();
  switch (options.backend) {
    case LapBackend::kMinCostFlow:
      solved = TakeAgents(la::SolveTransportation(stage_profit, capacity),
                          &chosen_agent);
      break;
    case LapBackend::kHungarian:
      solved = TakeAgents(
          la::SolveCapacitatedAssignment(stage_profit, capacity),
          &chosen_agent);
      break;
    case LapBackend::kAuction:
      solved = SolveStageAuction(stage_profit, capacity, options.lap_topk,
                                 options.lap_epsilon, pool, &chosen_agent);
      if (!solved.ok() &&
          solved.code() == StatusCode::kFailedPrecondition) {
        // Outside the auction's integer price domain — same optimum via
        // the flow backend. The fallback is counted: it used to be fully
        // silent, which hid auction-budget exhaustion from benchmarks
        // (`wgrap_cli solve --verbose` surfaces the count).
        static obs::Counter* const fallbacks =
            obs::Registry::Global().GetCounter(
                "wgrap_lap_auction_fallbacks_total");
        if (fallbacks) fallbacks->Add();
        solved = TakeAgents(la::SolveTransportation(stage_profit, capacity),
                            &chosen_agent);
      }
      break;
  }
  WGRAP_RETURN_IF_ERROR(solved);
  for (size_t i = 0; i < papers_needing.size(); ++i) {
    WGRAP_RETURN_IF_ERROR(
        assignment->Add(papers_needing[i], chosen_agent[i]));
    if (cache != nullptr) {
      cache->NoteAdd(papers_needing[i], chosen_agent[i]);
    }
  }
  return Status::OK();
}

}  // namespace

// Exposed for cra_sra.cc (declared there): completes an assignment where
// every paper is missing at most one reviewer. `lap` carries the backend
// plus the auction pruning/ε knobs; `cache` (may be null for
// gains=rebuild) persists the delta-maintained profits across calls.
Status SolveStageAssignment(const Instance& instance,
                            const std::vector<int>& capacity,
                            const SdgaOptions& lap, ThreadPool* pool,
                            GainCache* cache, Assignment* assignment) {
  return RunStage(instance, capacity, lap, pool, cache, assignment);
}

Result<Assignment> SolveCraSdga(const Instance& instance,
                                const SdgaOptions& options) {
  obs::ScopedSpan solve_span("sdga");
  Deadline deadline(options.time_limit_seconds);
  Assignment assignment(&instance);
  const int R = instance.num_reviewers();
  const int dp = instance.group_size();
  const int dr = instance.reviewer_workload();
  const int stage_cap = (dr + dp - 1) / dp;  // ⌈δr/δp⌉
  ThreadPool pool(options.num_threads);
  // gains=incremental: one cache lives across the δp stages — stage k
  // patches only the entries stage k-1's commits actually changed.
  std::unique_ptr<GainCache> cache;
  if (options.gains == GainMode::kIncremental) {
    cache = std::make_unique<GainCache>(&instance);
  }

  for (int stage = 0; stage < dp; ++stage) {
    if (deadline.Expired()) {
      return Status::ResourceExhausted("SDGA time limit");
    }
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "SDGA"));
    obs::ScopedSpan stage_span("sdga_stage");
    Stopwatch stage_watch;
    std::vector<int> capacity(R);
    for (int r = 0; r < R; ++r) {
      const int remaining_total = dr - assignment.LoadOf(r);
      capacity[r] = options.confine_stage_workload
                        ? std::min(stage_cap, remaining_total)
                        : remaining_total;
    }
    Status stage_status = RunStage(instance, capacity, options, &pool,
                                   cache.get(), &assignment);
    if (!stage_status.ok() &&
        stage_status.code() == StatusCode::kInfeasible &&
        options.confine_stage_workload) {
      // When δp ∤ δr, the ⌈δr/δp⌉ cap can strand capacity in tail stages
      // (Σ min(cap, δr - load) < P even though Σ (δr - load) >= P). The
      // general-case ratio proof (Theorem 2) already discards the last
      // stage's contribution, so relaxing the cap to the full remaining
      // workload keeps the 1/2 guarantee intact. (The infeasible attempt
      // committed nothing, so the gain cache needs no rollback.)
      for (int r = 0; r < R; ++r) capacity[r] = dr - assignment.LoadOf(r);
      stage_status = RunStage(instance, capacity, options, &pool,
                              cache.get(), &assignment);
    }
    WGRAP_RETURN_IF_ERROR(stage_status);
    static obs::Histogram* const stage_seconds =
        obs::Registry::Global().GetHistogram("wgrap_sdga_stage_seconds");
    if (stage_seconds) stage_seconds->Observe(stage_watch.ElapsedSeconds());
    // Stage commits only add pairs (marginal gains are >= 0 under the
    // monotone coverage objective), so the partial score is monotone.
    if (options.progress) {
      options.progress(ProgressFrame{"sdga", stage + 1,
                                     assignment.TotalScore()});
    }
  }
  if (cache != nullptr) {
    static obs::Counter* const patched = obs::Registry::Global().GetCounter(
        "wgrap_gain_cache_patched_cells_total");
    if (patched) patched->Add(cache->patched_entries());
    static obs::Counter* const builds = obs::Registry::Global().GetCounter(
        "wgrap_gain_cache_full_builds_total");
    if (builds) builds->Add(cache->full_builds());
  }
  WGRAP_RETURN_IF_ERROR(assignment.ValidateComplete());
  return assignment;
}

Result<Assignment> SolveCraSdgaSra(const Instance& instance,
                                   const SdgaOptions& sdga_options,
                                   const SraOptions& sra_options) {
  auto sdga = SolveCraSdga(instance, sdga_options);
  if (!sdga.ok()) return sdga.status();
  return RefineSra(instance, *sdga, sra_options);
}

}  // namespace wgrap::core
