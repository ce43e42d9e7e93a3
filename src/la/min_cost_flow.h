// Min-cost max-flow via successive shortest paths with Johnson potentials
// (Dijkstra on reduced costs). Integer capacities and costs; callers scale
// fractional gains to int64 before building the network (see
// transportation.h). This is the network-flow substrate referenced in
// Sec. 4.2 of the paper ("Minimum-cost flow assignment [3]").
#ifndef WGRAP_LA_MIN_COST_FLOW_H_
#define WGRAP_LA_MIN_COST_FLOW_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace wgrap::la {

/// Outcome of a min-cost max-flow computation.
struct FlowResult {
  int64_t flow = 0;
  int64_t cost = 0;
};

/// Directed graph with per-edge capacity and cost; supports residual queries
/// after solving.
class MinCostFlow {
 public:
  /// Creates a network with `num_nodes` nodes (ids 0..num_nodes-1).
  explicit MinCostFlow(int num_nodes);

  /// Adds an edge and returns its id (for FlowOnEdge). Cost may be negative
  /// only before the first Solve call (handled via Bellman–Ford priming).
  int AddEdge(int from, int to, int64_t capacity, int64_t cost);

  /// Sends up to `max_flow` units from source to sink (int64 max = send all).
  /// Returns the achieved flow and its total cost.
  Result<FlowResult> Solve(int source, int sink,
                           int64_t max_flow = INT64_MAX);

  /// Flow routed on edge `edge_id` after Solve.
  int64_t FlowOnEdge(int edge_id) const;

  int num_nodes() const { return static_cast<int>(graph_.size()); }

 private:
  struct Edge {
    int to;
    int rev;           // index of reverse edge in graph_[to]
    int64_t capacity;  // residual capacity
    int64_t cost;
  };

  // (node, index in adjacency list) locating each added forward edge.
  struct EdgeRef {
    int node;
    int index;
    int64_t original_capacity;
  };

  std::vector<std::vector<Edge>> graph_;
  std::vector<EdgeRef> edge_refs_;
  bool has_negative_costs_ = false;
};

}  // namespace wgrap::la

#endif  // WGRAP_LA_MIN_COST_FLOW_H_
