#include "la/min_cost_flow.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"

namespace wgrap::la {

namespace {
constexpr int64_t kInfCost = std::numeric_limits<int64_t>::max() / 4;
}  // namespace

MinCostFlow::MinCostFlow(int num_nodes) : graph_(num_nodes) {
  WGRAP_CHECK(num_nodes >= 0);
}

int MinCostFlow::AddEdge(int from, int to, int64_t capacity, int64_t cost) {
  WGRAP_CHECK(from >= 0 && from < num_nodes());
  WGRAP_CHECK(to >= 0 && to < num_nodes());
  WGRAP_CHECK(capacity >= 0);
  if (cost < 0) has_negative_costs_ = true;
  Edge forward{to, static_cast<int>(graph_[to].size()), capacity, cost};
  Edge backward{from, static_cast<int>(graph_[from].size()), 0, -cost};
  graph_[from].push_back(forward);
  graph_[to].push_back(backward);
  edge_refs_.push_back(
      {from, static_cast<int>(graph_[from].size()) - 1, capacity});
  return static_cast<int>(edge_refs_.size()) - 1;
}

Result<FlowResult> MinCostFlow::Solve(int source, int sink, int64_t max_flow) {
  WGRAP_CHECK(source >= 0 && source < num_nodes());
  WGRAP_CHECK(sink >= 0 && sink < num_nodes());
  if (source == sink) return Status::InvalidArgument("source == sink");

  const int n = num_nodes();
  std::vector<int64_t> potential(n, 0);

  if (has_negative_costs_) {
    // Bellman–Ford to prime potentials so Dijkstra sees reduced costs >= 0.
    std::vector<int64_t> dist(n, kInfCost);
    dist[source] = 0;
    for (int iter = 0; iter < n; ++iter) {
      bool changed = false;
      for (int u = 0; u < n; ++u) {
        if (dist[u] == kInfCost) continue;
        for (const Edge& e : graph_[u]) {
          if (e.capacity <= 0) continue;
          if (dist[u] + e.cost < dist[e.to]) {
            dist[e.to] = dist[u] + e.cost;
            changed = true;
            if (iter == n - 1) {
              return Status::InvalidArgument("negative cost cycle");
            }
          }
        }
      }
      if (!changed) break;
    }
    for (int u = 0; u < n; ++u) {
      potential[u] = dist[u] == kInfCost ? 0 : dist[u];
    }
  }

  FlowResult result;
  std::vector<int64_t> dist(n);
  std::vector<int> prev_node(n), prev_edge(n);

  while (result.flow < max_flow) {
    // Dijkstra on reduced costs.
    using QItem = std::pair<int64_t, int>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
    dist.assign(n, kInfCost);
    dist[source] = 0;
    queue.push({0, source});
    while (!queue.empty()) {
      auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      for (int i = 0; i < static_cast<int>(graph_[u].size()); ++i) {
        const Edge& e = graph_[u][i];
        if (e.capacity <= 0) continue;
        const int64_t nd = d + e.cost + potential[u] - potential[e.to];
        WGRAP_CHECK_MSG(e.cost + potential[u] - potential[e.to] >= 0,
                        "negative reduced cost");
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          prev_node[e.to] = u;
          prev_edge[e.to] = i;
          queue.push({nd, e.to});
        }
      }
    }
    if (dist[sink] == kInfCost) break;  // no more augmenting paths
    for (int u = 0; u < n; ++u) {
      if (dist[u] < kInfCost) potential[u] += dist[u];
    }
    // Bottleneck along the path.
    int64_t push = max_flow - result.flow;
    for (int u = sink; u != source; u = prev_node[u]) {
      push = std::min(push, graph_[prev_node[u]][prev_edge[u]].capacity);
    }
    for (int u = sink; u != source; u = prev_node[u]) {
      Edge& e = graph_[prev_node[u]][prev_edge[u]];
      e.capacity -= push;
      graph_[u][e.rev].capacity += push;
      result.cost += push * e.cost;
    }
    result.flow += push;
  }
  return result;
}

int64_t MinCostFlow::FlowOnEdge(int edge_id) const {
  WGRAP_CHECK(edge_id >= 0 && edge_id < static_cast<int>(edge_refs_.size()));
  const EdgeRef& ref = edge_refs_[edge_id];
  return ref.original_capacity - graph_[ref.node][ref.index].capacity;
}

}  // namespace wgrap::la
