#include "la/hungarian.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "simd/kernels.h"

namespace wgrap::la {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();

// JV work of one solve, counted in locals and added to the process
// counters once, on every return path.
struct JvWork {
  int64_t agents_settled = 0;
  int64_t full_agents_expanded = 0;
  int64_t tasks_scanned = 0;
  int64_t path_agents = 0;
  ~JvWork() {
    static obs::Counter* const settled = obs::Registry::Global().GetCounter(
        "wgrap_lap_jv_agents_settled_total");
    static obs::Counter* const expanded = obs::Registry::Global().GetCounter(
        "wgrap_lap_jv_full_agents_expanded_total");
    static obs::Counter* const scanned = obs::Registry::Global().GetCounter(
        "wgrap_lap_jv_tasks_scanned_total");
    static obs::Counter* const path = obs::Registry::Global().GetCounter(
        "wgrap_lap_jv_path_agents_total");
    if (settled) settled->Add(agents_settled);
    if (expanded) expanded->Add(full_agents_expanded);
    if (scanned) scanned->Add(tasks_scanned);
    if (path) path->Add(path_agents);
  }
};

}  // namespace

// Costs are c = c' - c'_min >= 0 on the usable cells, which equals
// s_max - s on the scaled profits s. Invariants between unit insertions:
// reduced costs rc = c - u[t] - v[a] are >= 0 on every edge a task does
// not hold and <= 0 on every held edge (a held edge is at its unit
// capacity, so its own bound dual absorbs the rest); v[a] <= 0, and
// v[a] < 0 only for a full agent. At demand 1 a task is reached only
// through its one agent, so held edges stay tight.
//
// A unit of task t0 is inserted by a Dijkstra over agents and tasks. A
// settled full agent a reaches each held task t over the backward edge of
// reduced cost -rc(t, a) >= 0: a tight task is scanned at once at a's
// distance, any other one waits with the tentative distance dist[a] -
// rc(t, a) until it is the minimum. The first non-full agent settled ends
// the path, since non-full agents keep dual 0 and full ones a dual <= 0;
// at equal distance a non-full agent settles before any other node, so a
// tie never expands a full agent that a free slot could have ended.
// With d_end its distance, every settled agent moves by v[a] -= d_end -
// d[a] and every scanned task by u[t] += d_end - d[t], which keeps the
// invariants and makes the path tight; it is then flipped. At the end
// every unit is placed with dual feasibility and complementary slackness,
// so the assignment is optimal.
//
// The two O(R) loops, the relax of a scanned task and the search for the
// nearest agent, are the whole cost at demand 1. They carry no per-agent
// branch: a settled agent's distance moves to `settled` and its dist
// entry is parked at simd::kJvParked, as are the zero-capacity agents and
// a scanning task's own and excluded agents, so simd::JvRelax needs only
// the edge test (c' >= 0) and simd::JvMinDist only the parked test. The
// relax reads the row as stored and folds c'_min into its base.
//
// Overflow: write D(x) for the true cost of x's tree path (forward edges
// +c, backward edges -c). A simple path has at most units edges each way,
// so |D| <= units·Δ. After an insertion a scanned task holds
// u[t] = D(end) - D(t) >= 0 and a settled agent v[a] = D(a) - D(end) >=
// -2·units·Δ, so a tentative distance D(t) - u[t0] + c - v[a] stays below
// (3·units + 1)·Δ, which the entry check keeps inside int64.
Result<std::vector<int>> SolveCapacitatedRows(const JvCostRows& rows_in,
                                              const std::vector<int>& capacity,
                                              int demand,
                                              const Deadline* deadline,
                                              const CancelToken& cancel) {
  const int rows = static_cast<int>(rows_in.cost.size());
  const int cols = rows_in.agents;
  if (static_cast<int>(capacity.size()) != cols) {
    return Status::InvalidArgument("capacity size != number of agents");
  }
  if (!rows_in.excluded.empty() &&
      static_cast<int>(rows_in.excluded.size()) != rows) {
    return Status::InvalidArgument("excluded lists != number of tasks");
  }
  if (demand < 0) return Status::InvalidArgument("negative demand");
  int64_t total_capacity = 0;
  for (int c : capacity) {
    if (c < 0) return Status::InvalidArgument("negative capacity");
    total_capacity += c;
  }
  const int64_t units = static_cast<int64_t>(rows) * demand;
  if (total_capacity < units) {
    return Status::Infeasible("agent capacity below total task demand");
  }
  static const std::vector<int> kNone;
  const auto excluded = [&](int t) -> const std::vector<int>& {
    return rows_in.excluded.empty() ? kNone : *rows_in.excluded[t];
  };
  // The one read of every cell: the range check and c'_min / c'_max over
  // the usable cells, with a task's excluded agents switched off in `live`
  // for its row only.
  std::vector<char> live(cols);
  std::vector<int> exhausted;  // zero-capacity agents, parked throughout
  for (int a = 0; a < cols; ++a) {
    live[a] = capacity[a] > 0;
    if (!live[a]) exhausted.push_back(a);
  }
  int64_t c_min = std::numeric_limits<int64_t>::max();
  int64_t c_max = std::numeric_limits<int64_t>::min();
  for (int t = 0; t < rows; ++t) {
    const int64_t* row = rows_in.cost[t];
    for (int a : excluded(t)) live[a] = 0;
    bool bad = false;
    for (int a = 0; a < cols; ++a) {
      const int64_t c = row[a];
      if (!live[a] || c == kJvNoEdge) continue;
      bad |= c < 0;
      c_min = std::min(c_min, c);
      c_max = std::max(c_max, c);
    }
    for (int a : excluded(t)) live[a] = capacity[a] > 0;
    // A usable kJvBadProfit cell: ValidateTransportProfit's range error.
    if (bad) return ValidateTransportProfit(2 * kMaxTransportProfit);
  }
  if (c_min <= c_max &&
      static_cast<__int128>(3 * units + 2) * (c_max - c_min) >
          std::numeric_limits<int64_t>::max()) {
    return Status::InvalidArgument(
        "profit spread x unit count exceeds the int64 dual domain");
  }

  std::vector<int64_t> u(rows, 0), v(cols, 0);
  std::vector<int> agents_of(units, -1);  // task t's at [t·demand, ...)
  std::vector<int> held_count(rows, 0);
  std::vector<std::vector<int>> held(cols);  // ascending task ids
  std::vector<int64_t> dist(cols);
  std::vector<int> pred(cols);  // task the agent's shortest path enters from
  std::vector<std::pair<int, int64_t>> settled;  // (agent, distance)
  std::vector<int64_t> unparked;  // a scanning task's parked agents' dist
  std::vector<int64_t> task_dist(rows, kUnreached);
  std::vector<int> via(rows);  // agent a task's path leaves; -1 at the root
  std::vector<char> task_scanned(rows, 0);
  std::vector<int> pending;  // tasks given a tentative distance
  std::vector<std::pair<int, int64_t>> scanned;  // (task, distance)
  JvWork work;
  const auto open = [&](int a) {
    return static_cast<int>(held[a].size()) < capacity[a];
  };

  const auto scan = [&](int t, int64_t d) {
    ++work.tasks_scanned;
    scanned.emplace_back(t, d);
    task_scanned[t] = 1;
    // Park the task's held agents, then its excluded ones; unpark in
    // reverse, so an agent parked twice gets its own distance back.
    const int* const own = agents_of.data() + static_cast<size_t>(t) * demand;
    const std::vector<int>& skip = excluded(t);
    unparked.clear();
    for (int k = 0; k < held_count[t]; ++k) {
      unparked.push_back(dist[own[k]]);
      dist[own[k]] = simd::kJvParked;
    }
    for (int a : skip) {
      unparked.push_back(dist[a]);
      dist[a] = simd::kJvParked;
    }
    simd::JvRelax(rows_in.cost[t], v.data(), dist.data(), pred.data(), cols,
                  d - u[t] - c_min, t);
    size_t k = unparked.size();
    for (size_t i = skip.size(); i-- > 0;) dist[skip[i]] = unparked[--k];
    for (int i = held_count[t]; i-- > 0;) dist[own[i]] = unparked[--k];
  };

  for (int t0 = 0; t0 < rows; ++t0) {
    for (int unit = 0; unit < demand; ++unit) {
      if (deadline != nullptr && deadline->Expired()) {
        return Status::ResourceExhausted(
            "capacitated assignment time limit exceeded");
      }
      if (cancel != nullptr) {
        WGRAP_RETURN_IF_ERROR(
            CheckNotCancelled(cancel, "capacitated assignment"));
      }
      std::fill(dist.begin(), dist.end(), kUnreached);
      for (int a : exhausted) dist[a] = simd::kJvParked;
      settled.clear();
      scanned.clear();
      via[t0] = -1;
      scan(t0, 0);
      int end = -1;
      int64_t d_end = 0;
      while (end < 0) {
        // The nearest agent: its distance from the vector min, then the
        // lowest-index non-full agent at it, else the lowest-index one.
        const int64_t d_next = simd::JvMinDist(dist.data(), cols);
        int next = -1;
        bool next_open = false;
        if (d_next != kUnreached) {
          for (int a = 0; a < cols; ++a) {
            if (dist[a] != d_next) continue;
            if (open(a)) {
              next = a;
              next_open = true;
              break;
            }
            if (next < 0) next = a;
          }
        }
        // The nearest waiting task, lowest index on ties, goes before a
        // full agent at equal distance.
        int wait = -1;
        for (int t : pending) {
          if (!task_scanned[t] &&
              (wait < 0 || task_dist[t] < task_dist[wait] ||
               (task_dist[t] == task_dist[wait] && t < wait))) {
            wait = t;
          }
        }
        if (wait >= 0 &&
            (next < 0 || task_dist[wait] < d_next ||
             (task_dist[wait] == d_next && !next_open))) {
          scan(wait, task_dist[wait]);
          continue;
        }
        if (next < 0) {
          return Status::Infeasible("no augmenting path for task " +
                                    std::to_string(t0));
        }
        settled.emplace_back(next, d_next);
        dist[next] = simd::kJvParked;
        ++work.agents_settled;
        if (next_open) {
          end = next;
          d_end = d_next;
          break;
        }
        ++work.full_agents_expanded;
        for (int t : held[next]) {
          if (task_scanned[t]) continue;
          const int64_t rc =
              rows_in.cost[t][next] - c_min - u[t] - v[next];
          const int64_t d = d_next - rc;
          if (rc == 0) {
            via[t] = next;
            scan(t, d);
          } else if (d < task_dist[t]) {
            if (task_dist[t] == kUnreached) pending.push_back(t);
            task_dist[t] = d;
            via[t] = next;
          }
        }
      }
      for (const auto& [a, d] : settled) v[a] -= d_end - d;
      for (const auto& [t, d] : scanned) {
        u[t] += d_end - d;
        task_scanned[t] = 0;
        task_dist[t] = kUnreached;
      }
      for (int t : pending) task_dist[t] = kUnreached;
      pending.clear();
      // Flip the path: each agent takes its predecessor task, which leaves
      // the agent it was reached through (if any) to that agent's own
      // predecessor.
      for (int a = end;;) {
        ++work.path_agents;
        const int t = pred[a];
        const int from = via[t];
        int* const own = agents_of.data() + static_cast<size_t>(t) * demand;
        if (from < 0) {
          own[held_count[t]++] = a;
        } else {
          *std::find(own, own + held_count[t], from) = a;
        }
        held[a].insert(std::lower_bound(held[a].begin(), held[a].end(), t),
                       t);
        if (from < 0) break;
        held[from].erase(std::find(held[from].begin(), held[from].end(), t));
        a = from;
      }
    }
  }
  for (int t = 0; t < rows; ++t) {
    std::sort(agents_of.begin() + static_cast<size_t>(t) * demand,
              agents_of.begin() + static_cast<size_t>(t + 1) * demand);
  }
  return agents_of;
}

namespace {

// The Matrix adapters' solve: each cell's JvCost in rows of one buffer.
Result<std::vector<int>> SolveProfitMatrix(const Matrix& profit,
                                           const std::vector<int>& capacity,
                                           int demand,
                                           const Deadline* deadline,
                                           const CancelToken& cancel) {
  const int rows = profit.rows();
  const int cols = profit.cols();
  std::vector<int64_t> cost(static_cast<size_t>(rows) * cols);
  JvCostRows source;
  source.agents = cols;
  source.cost.resize(rows);
  for (int t = 0; t < rows; ++t) {
    int64_t* row = &cost[static_cast<size_t>(t) * cols];
    const double* prow = profit.Row(t);
    for (int a = 0; a < cols; ++a) row[a] = JvCost(prow[a]);
    source.cost[t] = row;
  }
  return SolveCapacitatedRows(source, capacity, demand, deadline, cancel);
}

}  // namespace

Result<TransportationResult> SolveCapacitatedAssignment(
    const Matrix& profit, const std::vector<int>& capacity) {
  auto solved = SolveProfitMatrix(profit, capacity, 1, /*deadline=*/nullptr,
                                  /*cancel=*/nullptr);
  if (!solved.ok()) return solved.status();
  TransportationResult result;
  result.task_to_agent = std::move(solved).value();
  for (int t = 0; t < profit.rows(); ++t) {
    result.profit += profit(t, result.task_to_agent[t]);
  }
  return result;
}

Result<MultiTransportationResult> SolveCapacitatedAssignment(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const Deadline* deadline, const CancelToken& cancel) {
  auto solved = SolveProfitMatrix(profit, capacity, demand, deadline, cancel);
  if (!solved.ok()) return solved.status();
  MultiTransportationResult result;
  result.task_to_agents.resize(profit.rows());
  for (int t = 0; t < profit.rows(); ++t) {
    for (int k = 0; k < demand; ++k) {
      const int a = (*solved)[static_cast<size_t>(t) * demand + k];
      result.task_to_agents[t].push_back(a);
      result.profit += profit(t, a);
    }
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
