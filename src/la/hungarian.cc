#include "la/hungarian.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"

namespace wgrap::la {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kNoEdge = -1;  // forbidden cell or zero-capacity agent
constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();
}  // namespace

// Costs are c = s_max - s >= 0 on the scaled profits s. Invariants between
// task insertions: reduced costs c - u[t] - v[a] >= 0 on every edge, tight
// on held pairs; v[a] <= 0, and v[a] < 0 only for a full agent. A new task
// starts at u = 0 (feasible as c >= 0 >= v). After its Dijkstra ends at
// distance d_end, every settled agent a moves by v[a] -= d_end - d[a] and
// every scanned task t by u[t] += d_end - d[t], which keeps the invariants
// and makes the path tight; it is then flipped. At the end every task is
// placed with dual feasibility and complementary slackness, so the
// assignment is optimal.
//
// Overflow: telescoping the tight backward edges, the path from the new
// task to a held task t has length L + u[t] and to a non-full agent
// (v = 0) length L, with L = Σ forward c − Σ backward c over at most rows
// edges each way. So d_end <= rows·Δ, and each scanned task leaves with
// u = d_end − L ∈ [0, 2·rows·Δ]. Then v >= −2·rows·Δ, and a tentative
// distance stays below (3·rows + 1)·Δ, which the entry check keeps inside
// int64.
Result<TransportationResult> SolveCapacitatedAssignment(
    const Matrix& profit, const std::vector<int>& capacity) {
  const int rows = profit.rows();
  const int cols = profit.cols();
  if (static_cast<int>(capacity.size()) != cols) {
    return Status::InvalidArgument("capacity size != number of agents");
  }
  int64_t total_capacity = 0;
  for (int c : capacity) {
    if (c < 0) return Status::InvalidArgument("negative capacity");
    total_capacity += c;
  }
  std::vector<int64_t> cost(static_cast<size_t>(rows) * cols, kNoEdge);
  int64_t s_min = std::numeric_limits<int64_t>::max();
  int64_t s_max = std::numeric_limits<int64_t>::min();
  for (int t = 0; t < rows; ++t) {
    for (int a = 0; a < cols; ++a) {
      const double p = profit(t, a);
      if (p <= kTransportForbidden / 2) continue;
      WGRAP_RETURN_IF_ERROR(ValidateTransportProfit(p));
      const int64_t s = ScaleTransportProfit(p);
      s_min = std::min(s_min, s);
      s_max = std::max(s_max, s);
      if (capacity[a] > 0) cost[static_cast<size_t>(t) * cols + a] = s;
    }
  }
  if (s_min <= s_max &&
      static_cast<__int128>(3 * static_cast<int64_t>(rows) + 2) *
              (s_max - s_min) >
          std::numeric_limits<int64_t>::max()) {
    return Status::InvalidArgument(
        "profit spread x task count exceeds the int64 dual domain");
  }
  if (total_capacity < rows) {
    return Status::Infeasible("agent capacity below total task demand");
  }
  for (int64_t& c : cost) {
    if (c != kNoEdge) c = s_max - c;
  }

  std::vector<int64_t> u(rows, 0), v(cols, 0);
  std::vector<int> agent_of(rows, -1);
  std::vector<std::vector<int>> held(cols);  // ascending task ids
  std::vector<int64_t> dist(cols);
  std::vector<int> pred(cols);  // task the agent's shortest path enters from
  std::vector<char> settled(cols, 0);
  std::vector<int> settled_agents;
  std::vector<std::pair<int, int64_t>> scanned;  // (task, distance)

  for (int t0 = 0; t0 < rows; ++t0) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    settled_agents.clear();
    scanned.clear();
    const auto scan = [&](int t, int64_t d) {
      scanned.emplace_back(t, d);
      const int64_t* row = &cost[static_cast<size_t>(t) * cols];
      const int64_t base = d - u[t];
      for (int a = 0; a < cols; ++a) {
        if (row[a] == kNoEdge || settled[a]) continue;
        const int64_t nd = base + row[a] - v[a];
        if (nd < dist[a]) {
          dist[a] = nd;
          pred[a] = t;
        }
      }
    };
    scan(t0, 0);
    int end = -1;
    while (end < 0) {
      int next = -1;
      for (int a = 0; a < cols; ++a) {
        if (!settled[a] && dist[a] != kUnreached &&
            (next < 0 || dist[a] < dist[next])) {
          next = a;
        }
      }
      if (next < 0) {
        return Status::Infeasible("no augmenting path for task " +
                                  std::to_string(t0));
      }
      settled[next] = 1;
      settled_agents.push_back(next);
      if (static_cast<int>(held[next].size()) < capacity[next]) {
        end = next;
      } else {
        for (int t : held[next]) scan(t, dist[next]);
      }
    }
    const int64_t d_end = dist[end];
    for (int a : settled_agents) {
      v[a] -= d_end - dist[a];
      settled[a] = 0;
    }
    for (const auto& [t, d] : scanned) u[t] += d_end - d;
    // Flip the path: each agent takes its predecessor task, which leaves
    // the agent it held (if any) to that agent's own predecessor.
    for (int a = end;;) {
      const int t = pred[a];
      const int previous = agent_of[t];
      agent_of[t] = a;
      held[a].insert(std::lower_bound(held[a].begin(), held[a].end(), t), t);
      if (previous < 0) break;
      held[previous].erase(
          std::find(held[previous].begin(), held[previous].end(), t));
      a = previous;
    }
  }

  TransportationResult result;
  result.task_to_agent = std::move(agent_of);
  for (int t = 0; t < rows; ++t) {
    result.profit += profit(t, result.task_to_agent[t]);
  }
  return result;
}

Result<AssignmentResult> SolveMinCostAssignment(const Matrix& cost) {
  const int n = cost.rows();
  const int m = cost.cols();
  if (n == 0) return AssignmentResult{};
  if (n > m) {
    return Status::InvalidArgument("Hungarian requires rows <= cols");
  }

  // 1-indexed JV implementation. p[j] = row matched to column j.
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0), way(m + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<char> used(m + 1, false);
    do {
      used[j0] = true;
      const int i0 = p[j0];
      double delta = kInf;
      int j1 = -1;
      const double* row = cost.Row(i0 - 1);
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = row[j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      if (j1 < 0 || delta == kInf) {
        return Status::Infeasible("no augmenting path in assignment");
      }
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(n, -1);
  for (int j = 1; j <= m; ++j) {
    if (p[j] > 0) result.row_to_col[p[j] - 1] = j - 1;
  }
  for (int i = 0; i < n; ++i) {
    const int j = result.row_to_col[i];
    WGRAP_CHECK(j >= 0);
    const double c = cost.At(i, j);
    if (c >= kForbidden / 2) {
      return Status::Infeasible("assignment uses a forbidden pair");
    }
    result.objective += c;
  }
  return result;
}

Result<AssignmentResult> SolveMaxProfitAssignment(const Matrix& profit) {
  Matrix cost(profit.rows(), profit.cols());
  for (int r = 0; r < profit.rows(); ++r) {
    for (int c = 0; c < profit.cols(); ++c) {
      const double p = profit.At(r, c);
      cost.At(r, c) = p <= kForbiddenProfit / 2 ? kForbidden : -p;
    }
  }
  auto solved = SolveMinCostAssignment(cost);
  if (!solved.ok()) return solved.status();
  AssignmentResult result = std::move(solved).value();
  result.objective = 0.0;
  for (int i = 0; i < profit.rows(); ++i) {
    result.objective += profit.At(i, result.row_to_col[i]);
  }
  return result;
}

}  // namespace wgrap::la
