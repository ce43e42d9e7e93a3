// Hungarian algorithm (Kuhn–Munkres with Jonker–Volgenant style shortest
// augmenting paths and dual potentials). The paper's SDGA may use it or
// min-cost flow for every stage (Sec. 4.2 treats them as interchangeable):
//
//   SolveCapacitatedAssignment — the stage engine: exact int64 JV over
//                                reviewer columns with slot capacities.
//   SolveMinCostAssignment /
//   SolveMaxProfitAssignment   — plain rectangular LAP in doubles, one row
//                                per column.
#ifndef WGRAP_LA_HUNGARIAN_H_
#define WGRAP_LA_HUNGARIAN_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "la/transportation.h"

namespace wgrap::la {

/// Maximizes total profit assigning each of `profit.rows()` tasks exactly
/// one of `profit.cols()` agents, agent a used at most capacity[a] times —
/// the integer program SolveTransportation and the auction solve (profits
/// scaled by ScaleTransportProfit, cells <= kTransportForbidden / 2 are
/// forbidden), so all three return the same optimum value.
///
/// Jonker–Volgenant with one dual per agent instead of one column per
/// capacity unit: tasks are inserted in index order, each by a Dijkstra
/// over the agent columns in exact int64 reduced costs. A full agent is
/// expanded by scanning the tasks it already holds; the first non-full
/// agent settled ends the path, since non-full agents keep dual 0 and full
/// ones a dual <= 0. O(rows · R · (R + rows)) worst case.
///
/// Ties break to the lowest index: agents settle in (distance, index)
/// order, an agent's predecessor task changes only on a strict
/// improvement, and a full agent's tasks are scanned in ascending index.
///
/// Returns kInvalidArgument for a capacity vector of the wrong size, a
/// negative capacity, a profit outside ValidateTransportProfit's range, or
/// a profit spread too wide for the int64 duals ((3·rows + 2)·Δ must fit);
/// kInfeasible when some task has no augmenting path (total capacity below
/// the task count, or only forbidden or exhausted agents left).
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
