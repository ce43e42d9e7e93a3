// Bertsekas ε-scaling auction for the capacitated max-profit assignment
// ("transportation") problem at demand 1 — the Sec. 4.2 stage subproblem.
// No solver runs it: the stages use the Jonker–Volgenant of hungarian.h or
// min-cost flow. It stays as perfbench's third stage-engine probe and the
// subject of the SIMD top-two kernels. Reviewer r offers `capacity[r]`
// identical slots directly (Bertsekas–Castañón "similar objects"), so no
// column replication is ever materialized.
//
// The auction runs Jacobi-style bidding rounds: every unassigned task
// computes its bid against a snapshot of the slot prices (fanned out over
// wgrap::ThreadPool), then bids are resolved sequentially with
// deterministic lowest-index conflict resolution — output is bit-identical
// at any thread count, including none.
//
// Exactness. Profits are scaled to the same int64 fixed-point domain as
// the min-cost-flow backend (transportation.h, scale 1e9) and internally
// multiplied by M = num_slots + 1 so the final ε-scaling phase (ε = 1 in
// the M-domain, i.e. ε < 1/num_slots in scaled-profit units) yields an
// exact optimum of the identical integer program min-cost flow solves;
// spare capacity is balanced away with zero-value dummy bidders so the
// ε-scaling warm start stays sound on asymmetric instances.
// The final slot prices are ε-complementary-slackness duals; task_value /
// final_epsilon / value_unit export them so callers that pruned candidate
// edges (SolveAuctionTopK) can certify that no pruned edge could improve
// the optimum — see CertifiesPruning.
#ifndef WGRAP_LA_AUCTION_H_
#define WGRAP_LA_AUCTION_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "la/transportation.h"

namespace wgrap {
class ThreadPool;
}  // namespace wgrap

namespace wgrap::la {

/// Candidate edges of a LAP instance in CSR form (src/sparse/ conventions):
/// per task a sorted run of (agent id, profit) pairs. Absent edges are
/// forbidden; profits must lie in [-kMaxTransportProfit,
/// kMaxTransportProfit] (the forbidden marker is expressed by omission,
/// never stored).
struct SparseLapProblem {
  int num_tasks = 0;
  int num_agents = 0;
  std::vector<int64_t> row_offsets;  // size num_tasks + 1
  std::vector<int> agent_ids;       // ascending within each row, < num_agents
  std::vector<double> profits;      // parallel to agent_ids
};

struct AuctionOptions {
  /// Bidding-round fan-out. nullptr (or a 1-thread pool) runs inline; any
  /// pool produces bit-identical output.
  ThreadPool* pool = nullptr;
};

struct AuctionResult {
  /// Assigned agent per task.
  std::vector<int> task_to_agent;
  double profit = 0.0;

  /// Exactness-guard exports, all in the scaled integer M-domain
  /// (profit × kTransportProfitScale × value_unit): per task its profit
  /// minus its slot's price. A pruned edge
  /// would pay at least `min_slot_price` (the cheapest final slot price
  /// anywhere, ≥ 0), so it can only matter when
  /// ScaleTransportProfit(q) * value_unit − min_slot_price >
  /// task_value[t] + final_epsilon — see CertifiesPruning.
  std::vector<int64_t> task_value;
  int64_t final_epsilon = 1;
  int64_t value_unit = 1;  // M = total capacity slots + 1
  int64_t min_slot_price = 0;

  /// Solve statistics: bidding rounds and bids computed across all
  /// ε-scaling phases (diagnostics for benchmarks and budget tuning).
  int64_t rounds = 0;
  int64_t bids = 0;
};

/// Solves the CSR instance. kInfeasible when capacities cannot cover all
/// tasks, a task has no candidate edge, or the bidding price bound
/// (confirmed by an exact max-flow check) proves no feasible assignment
/// exists within the candidate set (the signal SolveAuctionTopK uses to
/// widen K). kInvalidArgument for malformed CSR or out-of-range profits.
/// kFailedPrecondition when the instance is outside the auction's reach —
/// profit range × size would overflow the int64 price domain, or the
/// bidding does not converge within its work budget — and the caller
/// should fall back to min-cost flow.
Result<AuctionResult> SolveAuctionSparse(const SparseLapProblem& problem,
                                         const std::vector<int>& capacity,
                                         const AuctionOptions& options = {});

/// Dense convenience wrapper: entries <= kTransportForbidden / 2 are
/// forbidden, everything else must be in range. Same contract as
/// SolveTransportation.
Result<TransportationResult> SolveAuctionTransportation(
    const Matrix& profit, const std::vector<int>& capacity,
    const AuctionOptions& options = {});

/// Per-task top-K candidate selection from a dense profit matrix — the
/// pruning half of SolveAuctionTopK. Keeps the K largest profits
/// per task (deterministic profit-desc / agent-asc order, forbidden
/// entries never kept) and records the best pruned-out profit per task so
/// CertifiesPruning can prove the pruned solve still found the full
/// optimum. top_k <= 0 keeps everything. Row selection fans out over
/// `pool` when provided (bit-identical either way).
struct PrunedCandidates {
  SparseLapProblem problem;
  /// Largest dropped profit per task; -infinity when nothing was dropped.
  std::vector<double> best_pruned;
  bool pruned_any = false;
};
PrunedCandidates BuildTopKCandidates(const Matrix& profit, int top_k,
                                     ThreadPool* pool = nullptr);

/// True when `result`'s duals prove no pruned-out edge could have improved
/// the objective: final prices are >= min_slot_price >= 0, so edge (t, q)
/// is dominated as soon as task t's assigned value is within
/// final_epsilon of q − min_slot_price. When this returns false the
/// caller must widen K and re-solve (the guard is conservative, never
/// unsound).
bool CertifiesPruning(const AuctionResult& result,
                      const std::vector<double>& best_pruned);

/// The widen-until-certified driver around BuildTopKCandidates +
/// SolveAuctionSparse: solves on the top-`top_k` candidate
/// edges per task and re-solves with doubled K whenever the pruned graph
/// is infeasible or the duals cannot certify the pruned optimum — so an
/// OK result is exactly the dense optimum. Terminal failures (true
/// infeasibility, invalid input, kFailedPrecondition asking for the
/// min-cost-flow fallback) return immediately; widening never loops past
/// the full candidate set. `widen_count` (optional) reports how many
/// times K grew. Shared by the benchmarks and the equivalence tests.
Result<AuctionResult> SolveAuctionTopK(const Matrix& profit,
                                       const std::vector<int>& capacity,
                                       int top_k,
                                       const AuctionOptions& options = {},
                                       int* widen_count = nullptr);

}  // namespace wgrap::la

#endif  // WGRAP_LA_AUCTION_H_
