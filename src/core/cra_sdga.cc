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
// Sec. 4.2 solves each stage with "the Hungarian algorithm or minimum-cost
// flow"; both find the same optimum of the same scaled integer program, so
// one engine is enough. Every stage (and every SRA completion) runs one
// pipeline: the capacity-aware Jonker–Volgenant with one dual per reviewer
// (la::SolveCapacitatedRows), reading the GainCache's row-maintained int64
// costs in place. The per-pair MarginalGain loop and
// min-cost flow are test oracles (tests/gain_cache_test.cc).
#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "la/hungarian.h"

namespace wgrap::core {

// One SDGA stage: assigns one reviewer to every paper, maximizing summed
// marginal gain, respecting per-stage capacities. The JV reads the
// GainCache's cost rows in place, refreshed for the papers whose group
// moved; each paper's current reviewers are its excluded agents. The
// refresh fans out over `pool` (a 1-thread pool runs inline) and is
// deterministic because each row is an independent function of the frozen
// assignment. Also the SRA completion step (declared in cra_sra.cc), where
// `cache` lives across the rounds.
Status SolveStageAssignment(const Instance& instance,
                            const std::vector<int>& capacity,
                            ThreadPool* pool, GainCache* cache,
                            Assignment* assignment) {
  std::vector<int> papers_needing;  // papers still missing a reviewer
  for (int p = 0; p < instance.num_papers(); ++p) {
    if (static_cast<int>(assignment->GroupFor(p).size()) <
        instance.group_size()) {
      papers_needing.push_back(p);
    }
  }
  if (papers_needing.empty()) return Status::OK();

  {
    obs::ScopedSpan refresh_span("profit_refresh");
    cache->Refresh(*assignment, pool);
  }
  Result<std::vector<int>> solved = Status::Internal("unsolved");
  {
    obs::ScopedSpan lap_span("lap_solve");
    la::JvCostRows rows;
    rows.agents = instance.num_reviewers();
    rows.cost.reserve(papers_needing.size());
    rows.excluded.reserve(papers_needing.size());
    for (int p : papers_needing) {
      rows.cost.push_back(cache->CostRow(p));
      rows.excluded.push_back(&assignment->GroupFor(p));
    }
    solved = la::SolveCapacitatedRows(rows, capacity, /*demand=*/1);
  }
  if (!solved.ok()) return solved.status();
  obs::ScopedSpan commit_span("commit");
  for (size_t i = 0; i < papers_needing.size(); ++i) {
    const int reviewer = (*solved)[i];
    WGRAP_RETURN_IF_ERROR(assignment->Add(papers_needing[i], reviewer));
    cache->Note(papers_needing[i]);
  }
  return Status::OK();
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
  // One cache lives across the δp stages: stage k re-scores only the rows
  // stage k-1's commits moved.
  GainCache cache(&instance);

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
    Status stage_status =
        SolveStageAssignment(instance, capacity, &pool, &cache, &assignment);
    if (!stage_status.ok() &&
        stage_status.code() == StatusCode::kInfeasible &&
        options.confine_stage_workload) {
      // When δp ∤ δr, the ⌈δr/δp⌉ cap can strand capacity in tail stages
      // (Σ min(cap, δr - load) < P even though Σ (δr - load) >= P). The
      // general-case ratio proof (Theorem 2) already discards the last
      // stage's contribution, so relaxing the cap to the full remaining
      // workload keeps the 1/2 guarantee intact. (The infeasible attempt
      // committed nothing, so the gain cache needs no rollback.)
      obs::ScopedSpan retry_span("cap_relax_retry");
      static obs::Counter* const retries = obs::Registry::Global().GetCounter(
          "wgrap_sdga_cap_relax_retries_total");
      if (retries) retries->Add();
      for (int r = 0; r < R; ++r) capacity[r] = dr - assignment.LoadOf(r);
      stage_status =
          SolveStageAssignment(instance, capacity, &pool, &cache, &assignment);
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
  cache.ReportCounters();
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
