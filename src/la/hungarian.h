// Hungarian algorithm (Kuhn–Munkres with Jonker–Volgenant style shortest
// augmenting paths and dual potentials). The paper's SDGA may use it or
// min-cost flow for every stage (Sec. 4.2 treats them as interchangeable):
//
//   SolveCapacitatedAssignment — the exact int64 JV over reviewer columns
//                                with slot capacities: the SDGA/SRA stage
//                                engine (demand 1) and ILP-ARAP's
//                                demand-δp transportation solve.
//   SolveMinCostAssignment /
//   SolveMaxProfitAssignment   — plain rectangular LAP in doubles, one row
//                                per column.
#ifndef WGRAP_LA_HUNGARIAN_H_
#define WGRAP_LA_HUNGARIAN_H_

#include <vector>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "la/transportation.h"

namespace wgrap::la {

/// Maximizes total profit assigning each of `profit.rows()` tasks exactly
/// `demand` distinct agents of `profit.cols()`, agent a used at most
/// capacity[a] times — the integer program SolveTransportationWithDemand
/// solves (profits scaled by ScaleTransportProfit, cells <=
/// kTransportForbidden / 2 are forbidden), so both return the same optimum
/// value. task_to_agents[t] is ascending.
///
/// Jonker–Volgenant with one dual per agent instead of one column per
/// capacity unit: units are inserted task by task in index order, each by
/// a Dijkstra over agents and tasks in exact int64 reduced costs. A full
/// agent is expanded through the tasks it already holds; the first
/// non-full agent settled ends the path, since non-full agents keep dual 0
/// and full ones a dual <= 0. O(units · R · (R + rows)) worst case, units =
/// rows · demand.
///
/// The tie rule: nodes settle in distance order, and at equal distance a
/// non-full agent goes first, then a waiting task, then a full agent, the
/// lowest index first within each class. A tied non-full agent thus ends
/// the path at once instead of a full agent re-routing its tasks, which on
/// sparse instances (most gains 0, most distances tied) saves nearly all
/// the work. An agent's predecessor task and a waiting task's predecessor
/// agent change only on a strict improvement; a settled full agent visits
/// its tasks in ascending index, scanning those on a tight edge at once.
/// At demand 1 every held edge is tight, so no task ever waits. The rule
/// picks which tied optimum is returned, never its value.
///
/// Cost model: O(R) per scanned task (the relax) and per settled agent (the
/// nearest-agent search), both vector kernels (simd::JvRelax and
/// simd::JvMinDist, scalar or AVX2, byte-identical), plus one O(rows · R)
/// cost build per call. A settled agent's distance moves to a side list and
/// its dist entry is parked at simd::kJvParked, as are the agents a task
/// holds while that task is scanned; the relax never lowers a parked entry
/// and the min skips it, so neither loop branches per agent. The min gives
/// the nearest distance only; a scalar pass over the agents at it applies
/// the tie rule.
///
/// Each call adds its work to the counters
/// wgrap_lap_jv_{agents_settled,full_agents_expanded,tasks_scanned}_total
/// and wgrap_lap_jv_path_agents_total (the agents re-seated along flipped
/// augmenting paths, at least one per unit).
///
/// Polls `deadline` (borrowed; may be null) and `cancel` once per unit
/// insertion: kResourceExhausted on expiry, kCancelled on cancellation.
/// Returns kInvalidArgument for a capacity vector of the wrong size, a
/// negative capacity or demand, a profit outside ValidateTransportProfit's
/// range, or a profit spread too wide for the int64 duals
/// ((3·units + 2)·Δ must fit); kInfeasible when some unit has no
/// augmenting path (total capacity below the unit count, or only
/// forbidden, held or exhausted agents left).
Result<MultiTransportationResult> SolveCapacitatedAssignment(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const Deadline* deadline = nullptr, const CancelToken& cancel = nullptr);

/// The demand-1 form the SDGA/SRA stages call: one agent per task, the
/// same solve and ties, no interrupt polls.
Result<TransportationResult> SolveCapacitatedAssignment(
    const Matrix& profit, const std::vector<int>& capacity);

/// Result of a rectangular assignment: row_to_col[r] is the column assigned
/// to row r (always valid when rows <= cols), and `objective` is the total
/// cost/profit of the selected cells.
struct AssignmentResult {
  std::vector<int> row_to_col;
  double objective = 0.0;
};

/// Solves min-cost assignment on a rows x cols matrix with rows <= cols.
/// Costs are doubles and every column takes at most one row.
/// Every row is assigned to a distinct column. O(rows^2 * cols).
///
/// Entries set to `kForbidden` (or anything >= kForbidden / 2) mark
/// infeasible pairs; returns Status::Infeasible if a row cannot avoid them.
Result<AssignmentResult> SolveMinCostAssignment(const Matrix& cost);

/// Solves max-profit assignment by negating the matrix. Forbidden pairs are
/// marked with `kForbiddenProfit` (very negative).
Result<AssignmentResult> SolveMaxProfitAssignment(const Matrix& profit);

/// Cost marking an infeasible pair for SolveMinCostAssignment.
inline constexpr double kForbidden = 1e15;
/// Profit marking an infeasible pair for SolveMaxProfitAssignment.
inline constexpr double kForbiddenProfit = -1e15;

}  // namespace wgrap::la

#endif  // WGRAP_LA_HUNGARIAN_H_
