// Hungarian algorithm (Kuhn–Munkres with Jonker–Volgenant style shortest
// augmenting paths and dual potentials). Sec. 4.2 treats it and min-cost
// flow as interchangeable stage engines; every SDGA stage and SRA
// completion runs it, and min-cost flow (transportation.h) is its oracle:
//
//   SolveCapacitatedRows       — the exact int64 JV over reviewer columns
//                                with slot capacities, reading cost rows
//                                in place: the SDGA/SRA stage engine
//                                (demand 1, on core::GainCache rows) and
//                                ILP-ARAP's demand-δp transportation solve.
//   SolveCapacitatedAssignment — its adapters for a profit Matrix.
//   SolveMinCostAssignment /
//   SolveMaxProfitAssignment   — plain rectangular LAP in doubles, one row
//                                per column.
#ifndef WGRAP_LA_HUNGARIAN_H_
#define WGRAP_LA_HUNGARIAN_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "la/transportation.h"

namespace wgrap::la {

/// The JV's cost of a profit cell, the form its rows are read in:
/// kJvNoEdge for a forbidden cell (<= kTransportForbidden / 2),
/// kJvBadProfit outside ValidateTransportProfit's range (NaN included),
/// and otherwise c' = kJvCostOrigin - ScaleTransportProfit(profit), in
/// [0, 2e15]. Lower is better; c' keeps the scaled integer program exactly
/// (c'_1 - c'_2 = s_2 - s_1), so every optimum, tie and work count is the
/// one the scaled profits give.
inline constexpr int64_t kJvNoEdge = -1;
inline constexpr int64_t kJvBadProfit = -2;
/// ScaleTransportProfit(kMaxTransportProfit): the largest scaled profit.
inline constexpr int64_t kJvCostOrigin = 1'000'000'000'000'000;
inline int64_t JvCost(double profit) {
  if (profit <= kTransportForbidden / 2) return kJvNoEdge;
  if (!TransportProfitInRange(profit)) return kJvBadProfit;
  return kJvCostOrigin - ScaleTransportProfit(profit);
}

/// The JV's input, read in place: per task a row of `agents` JvCost cells
/// and, unless `excluded` is empty, the agents the task may not take (any
/// order, duplicates allowed). Rows and lists are borrowed and must
/// outlive the solve. core::GainCache stores its cells in this form, so an SDGA stage
/// passes its rows and each paper's current reviewers.
struct JvCostRows {
  int agents = 0;
  std::vector<const int64_t*> cost;
  std::vector<const std::vector<int>*> excluded;  // empty or one per task
};

/// Maximizes total profit assigning each of `rows.cost.size()` tasks
/// exactly `demand` distinct agents, agent a used at most capacity[a]
/// times — the integer program SolveTransportationWithDemand solves
/// (profits scaled by ScaleTransportProfit, forbidden cells left out), so
/// both return the same optimum value. Returns the agents of task t at
/// [t·demand, (t+1)·demand), ascending.
///
/// A cell is usable iff it is not kJvNoEdge, its agent is not excluded for
/// the task, and the agent's capacity is > 0. Only usable cells are read
/// for the range check and the spread: a kJvBadProfit cell elsewhere
/// fails nothing, since no solve can use it.
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
/// simd::JvMinDist, scalar or AVX2, byte-identical), plus one read-only
/// O(rows · R) pass per call for the range check and c'_min / c'_max;
/// nothing is copied or scaled. A settled agent's distance moves to a
/// side list and its dist entry is parked at simd::kJvParked, as are the
/// zero-capacity agents for the whole search and, while a task is
/// scanned, the agents it holds and the agents it excludes; the relax
/// never lowers a parked entry and the min skips it, so neither loop
/// branches per agent. The min gives the nearest distance only; a scalar
/// pass over the agents at it applies the tie rule.
///
/// Each call adds its work to the counters
/// wgrap_lap_jv_{agents_settled,full_agents_expanded,tasks_scanned}_total
/// and wgrap_lap_jv_path_agents_total (the agents re-seated along flipped
/// augmenting paths, at least one per unit).
///
/// Polls `deadline` (borrowed; may be null) and `cancel` once per unit
/// insertion: kResourceExhausted on expiry, kCancelled on cancellation.
/// Returns kInvalidArgument for a capacity vector of the wrong size, a
/// negative capacity or demand, an excluded list per task of the wrong
/// count, a usable kJvBadProfit cell ("profit outside the scalable
/// range"), or a spread too wide for the int64 duals ((3·units + 2)·Δ
/// must fit, Δ = c'_max - c'_min over the usable cells); kInfeasible when
/// the total capacity is below the unit count (checked before any cell)
/// or some unit has no augmenting path (only forbidden, excluded, held or
/// exhausted agents left).
Result<std::vector<int>> SolveCapacitatedRows(
    const JvCostRows& rows, const std::vector<int>& capacity, int demand,
    const Deadline* deadline = nullptr, const CancelToken& cancel = nullptr);

/// The same solve on a profit matrix: a thin adapter that writes each
/// cell's JvCost into rows (no exclusions) and calls SolveCapacitatedRows,
/// so the verdicts, error texts, ties and work counts are that core's.
/// task_to_agents[t] is ascending and `profit` sums the chosen cells.
///
/// One boundary differs from a solve that scaled every cell: an
/// out-of-range profit in a zero-capacity column no longer fails, because
/// no solve can use that cell. A zero-capacity column that held the
/// largest (or smallest) scaled profit no longer widens the spread guard's
/// Δ either. That changes no answer. Dropping such a column lowers every
/// cost the solve reads by the same δ; each task's dual then ends δ lower
/// once it has been inserted, so every reduced cost is unchanged, and the
/// distances of one Dijkstra move together (by -δ on a task's first unit,
/// by 0 on its later ones). Every comparison, tie and count is the same.
Result<MultiTransportationResult> SolveCapacitatedAssignment(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const Deadline* deadline = nullptr, const CancelToken& cancel = nullptr);

/// The demand-1 form: one agent per task, the same solve and ties, no
/// interrupt polls.
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
