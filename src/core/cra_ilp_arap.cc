// The "ILP" baseline of Sec. 5.2: ARAP (Definition 5), whose objective sums
// per-pair scores Σ_p Σ_{r∈A[p]} c(r→, p→) instead of the group coverage.
// Its constraint matrix is a transportation polytope (totally unimodular),
// so the integer optimum equals the LP optimum and one transportation
// solve finds it exactly — same optimum as lp_solve on the ILP, orders of
// magnitude faster. That solve is the stage engine's Jonker–Volgenant
// (la/hungarian.h) with demand δp per paper. Like SM, it ignores group
// diversity; an interdisciplinary paper can end up with δp copies of the
// same narrow expertise.
#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "core/cra.h"
#include "la/hungarian.h"
#include "obs/trace.h"

namespace wgrap::core {

Result<Assignment> SolveCraIlpArap(const Instance& instance,
                                   const CraOptions& options) {
  obs::ScopedSpan solve_span("ilp_arap");
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  const Deadline deadline(options.time_limit_seconds);

  // The JV's rows, written directly as costs: the pair utilities' program.
  std::vector<int64_t> cost(static_cast<size_t>(P) * R);
  la::JvCostRows rows;
  rows.agents = R;
  rows.cost.resize(P);
  for (int p = 0; p < P; ++p) {
    // Per-paper-row poll: the cost build is O(P·R) and can dominate on
    // wide instances, so the budget must cover it, not just the JV solve.
    if (deadline.Expired()) {
      return Status::ResourceExhausted("ILP-ARAP time limit exceeded");
    }
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "ILP-ARAP"));
    int64_t* row = &cost[static_cast<size_t>(p) * R];
    for (int r = 0; r < R; ++r) {
      row[r] = instance.IsConflict(r, p)
                   ? la::kJvNoEdge
                   : la::JvCost(instance.PairUtility(r, p));
    }
    rows.cost[p] = row;
  }
  std::vector<int> capacity(R, instance.reviewer_workload());
  const int dp = instance.group_size();

  auto solved = la::SolveCapacitatedRows(rows, capacity, dp, &deadline,
                                         options.cancel);
  if (!solved.ok()) return solved.status();

  Assignment assignment(&instance);
  for (int p = 0; p < P; ++p) {
    for (int k = 0; k < dp; ++k) {
      WGRAP_RETURN_IF_ERROR(
          assignment.Add(p, (*solved)[static_cast<size_t>(p) * dp + k]));
    }
  }
  WGRAP_RETURN_IF_ERROR(assignment.ValidateComplete());
  // One exact solve = one incumbent; emitted for watch-stream parity with
  // the anytime solvers.
  if (options.progress) {
    options.progress(ProgressFrame{"ilp", 1, assignment.TotalScore()});
  }
  return assignment;
}

}  // namespace wgrap::core
