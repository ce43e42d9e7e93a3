#include "la/transportation.h"

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "la/min_cost_flow.h"

namespace wgrap::la {

int64_t ScaleTransportProfit(double profit) {
  return static_cast<int64_t>(std::llround(profit * kTransportProfitScale));
}

Status ValidateTransportProfit(double profit) {
  // Negated comparison so NaN (all comparisons false) is rejected too.
  if (!(std::abs(profit) <= kMaxTransportProfit)) {
    return Status::InvalidArgument(
        "profit outside the scalable range [-1e6, 1e6]");
  }
  return Status::OK();
}

Result<MultiTransportationResult> SolveTransportationWithDemand(
    const Matrix& profit, const std::vector<int>& capacity, int demand) {
  const int tasks = profit.rows();
  const int agents = profit.cols();
  if (static_cast<int>(capacity.size()) != agents) {
    return Status::InvalidArgument("capacity size != number of agents");
  }
  if (demand < 0) return Status::InvalidArgument("negative demand");

  int64_t total_capacity = 0;
  for (int c : capacity) {
    if (c < 0) return Status::InvalidArgument("negative capacity");
    total_capacity += c;
  }
  const int64_t total_demand = static_cast<int64_t>(tasks) * demand;
  if (total_capacity < total_demand) {
    return Status::Infeasible("agent capacity below total task demand");
  }

  // Nodes: 0 = source, 1..tasks = tasks, tasks+1..tasks+agents = agents,
  // last = sink.
  const int source = 0;
  const int sink = tasks + agents + 1;
  MinCostFlow flow(sink + 1);
  for (int t = 0; t < tasks; ++t) {
    flow.AddEdge(source, 1 + t, demand, 0);
  }
  // edge ids for (t, a) pairs, -1 when forbidden.
  std::vector<std::vector<int>> pair_edge(tasks, std::vector<int>(agents, -1));
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const double p = profit.At(t, a);
      if (p <= kTransportForbidden / 2) continue;
      WGRAP_RETURN_IF_ERROR(ValidateTransportProfit(p));
      pair_edge[t][a] =
          flow.AddEdge(1 + t, 1 + tasks + a, 1, -ScaleTransportProfit(p));
    }
  }
  for (int a = 0; a < agents; ++a) {
    flow.AddEdge(1 + tasks + a, sink, capacity[a], 0);
  }

  auto solved = flow.Solve(source, sink);
  if (!solved.ok()) return solved.status();
  if (solved->flow != total_demand) {
    return Status::Infeasible("not all tasks could be fully assigned");
  }

  MultiTransportationResult result;
  result.task_to_agents.resize(tasks);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const int e = pair_edge[t][a];
      if (e >= 0 && flow.FlowOnEdge(e) > 0) {
        result.task_to_agents[t].push_back(a);
        result.profit += profit.At(t, a);
      }
    }
    WGRAP_CHECK(static_cast<int>(result.task_to_agents[t].size()) == demand);
  }
  return result;
}

Result<TransportationResult> SolveTransportation(
    const Matrix& profit, const std::vector<int>& capacity) {
  auto multi = SolveTransportationWithDemand(profit, capacity, 1);
  if (!multi.ok()) return multi.status();
  TransportationResult result;
  result.profit = multi->profit;
  result.task_to_agent.resize(profit.rows());
  for (int t = 0; t < profit.rows(); ++t) {
    result.task_to_agent[t] = multi->task_to_agents[t][0];
  }
  return result;
}

}  // namespace wgrap::la
