// Capacitated max-profit assignment ("transportation") on top of min-cost
// flow: every task (paper) receives exactly one agent (reviewer), each agent
// serves at most `capacity[a]` tasks, total profit maximized. This is the
// per-stage subproblem of SDGA (Definition 9, Stage-WGRAP); with demand δp
// it is ILP-ARAP, solved exactly because the constraint matrix is totally
// unimodular. The solvers run la::SolveCapacitatedAssignment (hungarian.h)
// on the same scaled program; the min-cost-flow forms here are its test
// oracle and a benchmark probe.
#ifndef WGRAP_LA_TRANSPORTATION_H_
#define WGRAP_LA_TRANSPORTATION_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace wgrap::la {

/// A task<->agent matching: task_to_agent[t] is the agent serving task t.
struct TransportationResult {
  std::vector<int> task_to_agent;
  double profit = 0.0;
};

/// Profit marking an infeasible (forbidden) pair, e.g. conflicts of interest.
inline constexpr double kTransportForbidden = -1e15;

/// Fixed-point scale shared by every integer LAP engine (Jonker–Volgenant,
/// min-cost flow and the auction). Profits are in [0, 1] per topic sums in
/// this codebase, so 1e9 keeps ~9 significant digits without overflow.
inline constexpr double kTransportProfitScale = 1e9;
/// Largest |profit| the int64 scaling supports; anything outside (other
/// than the forbidden marker) is rejected with kInvalidArgument.
inline constexpr double kMaxTransportProfit = 1e6;

/// llround(profit * kTransportProfitScale), computed inline and exactly:
/// truncate toward zero, then step one away from zero when the dropped
/// fraction is at least one half (llround's round-half-away rule). Inside
/// the validated range |x| <= 1e15 < 2^53, so x and its truncation are
/// both exact doubles and x - trunc(x) is the exact fraction. Callers
/// validate the range first; this is the single definition every integer
/// engine (and GainCache::ScaledGain) shares, so they all optimize
/// literally the same integer program.
inline int64_t ScaleTransportProfit(double profit) {
  const double x = profit * kTransportProfitScale;
  const int64_t whole = static_cast<int64_t>(x);
  const double frac = x - static_cast<double>(whole);
  return whole + (frac >= 0.5) - (frac <= -0.5);
}

/// True for finite profits in [-kMaxTransportProfit, kMaxTransportProfit];
/// false for NaN, whose comparisons are all false. Hot loops test this
/// inline and call ValidateTransportProfit only to build the error.
inline bool TransportProfitInRange(double profit) {
  return std::abs(profit) <= kMaxTransportProfit;
}

/// OK when TransportProfitInRange(profit); kInvalidArgument otherwise
/// (including NaN). The forbidden marker is not a valid input — callers
/// skip it before scaling.
Status ValidateTransportProfit(double profit);

/// Maximizes total profit assigning each of `profit.rows()` tasks exactly one
/// of `profit.cols()` agents, agent a used at most capacity[a] times.
///
/// Profits are scaled to int64 internally; inputs outside
/// [-kMaxTransportProfit, kMaxTransportProfit] (apart from the forbidden
/// marker) are rejected with kInvalidArgument. Returns Status::Infeasible
/// when capacities cannot cover all tasks or only forbidden pairs remain
/// for some task.
Result<TransportationResult> SolveTransportation(
    const Matrix& profit, const std::vector<int>& capacity);

/// Variant where every task needs `demand` agents (all distinct), the
/// ILP-ARAP program: paper p needs δp reviewers, reviewer r serves ≤ δr
/// papers. Returns one agent list per task, ascending. The oracle the JV's
/// demand form is tested against.
struct MultiTransportationResult {
  std::vector<std::vector<int>> task_to_agents;
  double profit = 0.0;
};

Result<MultiTransportationResult> SolveTransportationWithDemand(
    const Matrix& profit, const std::vector<int>& capacity, int demand);

}  // namespace wgrap::la

#endif  // WGRAP_LA_TRANSPORTATION_H_
