// Capacity-aware Bertsekas ε-scaling auction (see auction.h for the
// contract). Implementation notes, in the order they matter for
// correctness:
//
// Integer domain. Double profits are scaled once with
// ScaleTransportProfit (the same fixed point min-cost flow uses), shifted
// so the smallest candidate profit is 0, and multiplied by
// M = total_slots + 1. All bidding arithmetic is int64 in this
// "M-domain": every assignment's total value is a multiple of M, so
// terminating the last scaling phase at ε = 1 (< M / total_slots) pins
// the exact optimum of the identical integer program the min-cost-flow
// backend solves.
//
// Slots and balancing. Agent a owns min(capacity[a], num_tasks) identical
// slots (a task never sends two units to one agent, so higher capacity is
// unusable). Each slot carries a price and the unit holding it; an
// agent's slots are kept sorted by (price, unit), so the cheapest and
// second-cheapest slot — the only prices bidding needs — are slots[0] and
// slots[1]. Excess slots are filled by zero-value dummy units, making the
// problem symmetric (units == slots). This is load-bearing, not cosmetic:
// ε-scaling carries slot prices across phases, and with spare capacity a
// slot priced in an early phase could sit free at the end, breaking the
// duality bound that makes ε-CS imply optimality (the classic asymmetric-
// auction pitfall). With dummies every slot is always held, the symmetric
// theorem applies, and the dummies' constant value cancels from every
// feasible assignment.
//
// Rounds. Every unassigned unit computes its bid against an immutable
// snapshot of the slot prices (fanned out over the ThreadPool, writing
// only its own bid cell), then bids are resolved sequentially: each agent
// sorts its incoming bids (descending, ties to the lowest unit index) and
// accepts its j-th highest bid at its j-th cheapest slot for as long as
// the bid strictly exceeds that slot's snapshot price. This multi-accept
// preserves ε-complementary slackness per slot: the j-th winner's
// post-assignment value is w2 - ε, where w2 already counted the agent's
// second-cheapest snapshot slot — every cheaper slot just went to an even
// higher bid (value below w2 - ε), and every pricier slot kept a price ≥
// the snapshot second-cheapest. Output is bit-identical at any thread
// count, including none. The top-two scans inside bidding are the
// simd/kernels.h selection kernels (AVX2 when dispatched, same result
// bit for bit).
//
// Infeasibility. If the instance is feasible, no slot price can climb
// more than (units + 1)·(Δ + ε) above its value at the start of a phase
// (Bertsekas' price bound), so a bid exceeding the accumulated ceiling
// proves the candidate graph cannot cover all units — except that the
// bound is theory, so before declaring infeasibility we confirm with an
// exact zero-cost max-flow on the candidate graph (cheap, and only on
// this rare path). SolveAuctionTopK treats kInfeasible as "widen K".
#include "la/auction.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "la/min_cost_flow.h"
#include "obs/metrics.h"
#include "simd/kernels.h"

namespace wgrap::la {

namespace {

constexpr int64_t kNoValue = std::numeric_limits<int64_t>::min();
constexpr int64_t kNoPrice = std::numeric_limits<int64_t>::max();
// The top-two kernels reuse the auction's own sentinels, so their results
// drop straight into the bid arithmetic.
static_assert(simd::kTopTwoNoValue == kNoValue,
              "top-two sentinel must match the auction's kNoValue");
// ε divisor between scaling phases (Bertsekas recommends 4–10).
constexpr int64_t kEpsilonDivisor = 8;

// One slot of an agent: its price and the unit holding it (-1 = free,
// only transiently within a phase).
struct Slot {
  int64_t price = 0;
  int unit = -1;
};

bool SlotLess(const Slot& a, const Slot& b) {
  if (a.price != b.price) return a.price < b.price;
  return a.unit < b.unit;
}

Status ValidateProblem(const SparseLapProblem& problem,
                       const std::vector<int>& capacity) {
  const int tasks = problem.num_tasks;
  const int agents = problem.num_agents;
  if (tasks < 0 || agents < 0) {
    return Status::InvalidArgument("negative task/agent count");
  }
  if (static_cast<int>(capacity.size()) != agents) {
    return Status::InvalidArgument("capacity size != number of agents");
  }
  for (int c : capacity) {
    if (c < 0) return Status::InvalidArgument("negative capacity");
  }
  if (problem.row_offsets.size() != static_cast<size_t>(tasks) + 1 ||
      (!problem.row_offsets.empty() && problem.row_offsets.front() != 0) ||
      problem.row_offsets.back() !=
          static_cast<int64_t>(problem.agent_ids.size()) ||
      problem.agent_ids.size() != problem.profits.size()) {
    return Status::InvalidArgument("malformed CSR row structure");
  }
  for (int t = 0; t < tasks; ++t) {
    const int64_t begin = problem.row_offsets[t];
    const int64_t end = problem.row_offsets[t + 1];
    if (begin > end) return Status::InvalidArgument("decreasing row offsets");
    for (int64_t e = begin; e < end; ++e) {
      const int a = problem.agent_ids[e];
      if (a < 0 || a >= agents) {
        return Status::InvalidArgument("agent id out of range");
      }
      if (e > begin && problem.agent_ids[e - 1] >= a) {
        return Status::InvalidArgument("agent ids not ascending within row");
      }
      WGRAP_RETURN_IF_ERROR(ValidateTransportProfit(problem.profits[e]));
    }
  }
  return Status::OK();
}

// Exact feasibility of the candidate graph via zero-cost max flow: can
// every task get a slot of its own? Only run on the rare ceiling-hit path,
// so the cost does not sit on the solve path.
bool ExactlyFeasible(const SparseLapProblem& problem,
                     const std::vector<int>& slots_per_agent) {
  const int tasks = problem.num_tasks;
  const int agents = problem.num_agents;
  const int source = 0;
  const int sink = tasks + agents + 1;
  MinCostFlow flow(sink + 1);
  for (int t = 0; t < tasks; ++t) flow.AddEdge(source, 1 + t, 1, 0);
  for (int t = 0; t < tasks; ++t) {
    for (int64_t e = problem.row_offsets[t]; e < problem.row_offsets[t + 1];
         ++e) {
      const int a = problem.agent_ids[e];
      if (slots_per_agent[a] > 0) flow.AddEdge(1 + t, 1 + tasks + a, 1, 0);
    }
  }
  for (int a = 0; a < agents; ++a) {
    if (slots_per_agent[a] > 0) {
      flow.AddEdge(1 + tasks + a, sink, slots_per_agent[a], 0);
    }
  }
  auto solved = flow.Solve(source, sink);
  return solved.ok() && solved->flow == tasks;
}

}  // namespace

Result<AuctionResult> SolveAuctionSparse(const SparseLapProblem& problem,
                                         const std::vector<int>& capacity,
                                         const AuctionOptions& options) {
  WGRAP_RETURN_IF_ERROR(ValidateProblem(problem, capacity));
  const int tasks = problem.num_tasks;
  const int agents = problem.num_agents;

  AuctionResult result;
  result.task_value.assign(tasks, 0);
  if (tasks == 0) return result;

  // A task sends at most one unit to any agent, so capacity beyond
  // num_tasks is unusable — clamp so slot storage stays O(agents·tasks).
  std::vector<int> slots_per_agent(agents);
  int64_t total_slots64 = 0;
  for (int a = 0; a < agents; ++a) {
    slots_per_agent[a] = std::min(capacity[a], tasks);
    total_slots64 += slots_per_agent[a];
  }
  if (total_slots64 < tasks) {
    return Status::Infeasible("agent capacity below total task demand");
  }
  if (total_slots64 > std::numeric_limits<int>::max() / 2) {
    return Status::FailedPrecondition("instance too large for the auction");
  }
  // Balance the problem: zero-value dummy units fill the spare slots
  // (see the header comment — required for ε-scaling price carryover to
  // stay exact). Unit u < tasks is task u; the rest are dummies.
  const int num_units = static_cast<int>(total_slots64);

  // Scale profits once; track the range over usable edges (edges to
  // zero-capacity agents can never be assigned and are ignored entirely).
  const int64_t num_edges = problem.row_offsets.back();
  std::vector<int64_t> scaled(num_edges);
  int64_t s_min = std::numeric_limits<int64_t>::max();
  int64_t s_max = std::numeric_limits<int64_t>::min();
  for (int t = 0; t < tasks; ++t) {
    int usable = 0;
    for (int64_t e = problem.row_offsets[t]; e < problem.row_offsets[t + 1];
         ++e) {
      if (slots_per_agent[problem.agent_ids[e]] == 0) continue;
      scaled[e] = ScaleTransportProfit(problem.profits[e]);
      s_min = std::min(s_min, scaled[e]);
      s_max = std::max(s_max, scaled[e]);
      ++usable;
    }
    if (usable == 0) {
      return Status::Infeasible("task has no candidate agent");
    }
  }

  // M-domain setup + overflow guards (all intermediate math in __int128).
  const int64_t unit_value = total_slots64 + 1;  // M
  const int64_t kLimit = std::numeric_limits<int64_t>::max() / 8;
  const __int128 range128 =
      (static_cast<__int128>(s_max) - s_min) * unit_value;
  const __int128 abs_max128 =
      static_cast<__int128>(std::max(std::abs(s_min), std::abs(s_max))) *
      unit_value;
  if (range128 > kLimit || abs_max128 > kLimit) {
    return Status::FailedPrecondition(
        "profit range x instance size exceeds the int64 price domain; use "
        "the min-cost-flow backend");
  }
  const int64_t value_range = static_cast<int64_t>(range128);  // Δ

  const int64_t epsilon0 =
      std::max<int64_t>(1, value_range / kEpsilonDivisor);
  int num_phases = 1;
  for (int64_t e = epsilon0; e > 1; e /= kEpsilonDivisor) ++num_phases;
  // Accumulated Bertsekas price bound over every phase; exceeding it is
  // the (flow-confirmed) infeasibility signal.
  const __int128 ceiling128 =
      static_cast<__int128>(num_units + 2) *
          (static_cast<__int128>(value_range) * (num_phases + 2) +
           2 * static_cast<__int128>(epsilon0)) +
      1;
  if (ceiling128 > std::numeric_limits<int64_t>::max() / 4) {
    return Status::FailedPrecondition(
        "auction price ceiling exceeds the int64 price domain; use the "
        "min-cost-flow backend");
  }
  const int64_t price_ceiling = static_cast<int64_t>(ceiling128);

  // Shifted M-domain edge values: V = (s - s_min) * M ∈ [0, Δ]. Dummy
  // units value every agent at exactly 0 — any constant works, since a
  // balanced assignment places every dummy exactly once.
  std::vector<int64_t> value(num_edges, 0);
  for (int t = 0; t < tasks; ++t) {
    for (int64_t e = problem.row_offsets[t]; e < problem.row_offsets[t + 1];
         ++e) {
      if (slots_per_agent[problem.agent_ids[e]] == 0) continue;
      value[e] = (scaled[e] - s_min) * unit_value;
    }
  }

  std::vector<std::vector<Slot>> slots(agents);
  for (int a = 0; a < agents; ++a) slots[a].resize(slots_per_agent[a]);

  std::vector<int> assigned_agent(num_units, -1);
  std::vector<int64_t> assigned_edge(num_units, -1);  // CSR edge (real only)
  std::vector<int64_t> price1(agents, kNoPrice);  // cheapest slot snapshot
  std::vector<int64_t> price2(agents, kNoPrice);  // second-cheapest snapshot
  std::vector<int64_t> bid_amount(num_units, kNoValue);
  std::vector<int64_t> bid_edge(num_units, -1);
  std::vector<int> bid_agent(num_units, -1);
  // Per-agent incoming bids this round, as (amount, unit); only entries
  // for `touched` agents are live, and they are cleared after resolution.
  std::vector<std::vector<std::pair<int64_t, int>>> agent_bids(agents);
  std::vector<std::pair<int64_t, int>> accepted;  // per-agent scratch
  std::vector<int> touched;
  touched.reserve(agents);
  std::vector<int> unassigned;
  unassigned.reserve(num_units);
  int64_t work = 0;  // bids + per-round bookkeeping, the actual cost unit
  int64_t rounds = 0;
  int64_t bids = 0;
  // Defensive budget on auction work across all phases; exhausting it
  // degrades to the min-cost-flow fallback (kFailedPrecondition), never
  // to a wrong answer. Work counts bids plus the per-round O(agents +
  // units) bookkeeping, so drawn-out tail wars (one unassigned unit
  // re-bidding for thousands of rounds) are charged honestly. The
  // ε-scaled schedule needs a handful of bids per unit in practice, so
  // the budget is far above normal convergence.
  const int64_t round_overhead = agents + num_units / 8 + 8;
  const int64_t work_cap =
      std::max<int64_t>(20'000'000, 5'000 * int64_t{num_units});

  // Bid for one unit. Reads only the immutable snapshot and writes only
  // its own bid cells — deterministic at any thread count. The scans are
  // the dispatched top-two kernels; price1[a] == kNoPrice exactly when agent
  // a has no slots, so the reduced scan needs no separate empty mask.
  const auto bid_for_unit = [&](int u, int64_t epsilon) {
    int64_t best_v = 0;  // M-domain value of the chosen agent's edge
    int64_t best_e = -1;
    int chosen = -1;
    simd::TopTwo top;
    if (u < tasks) {
      const int64_t begin = problem.row_offsets[u];
      const int count = static_cast<int>(problem.row_offsets[u + 1] - begin);
      top = simd::TopTwoReduced(value.data() + begin,
                                problem.agent_ids.data() + begin, count,
                                price1.data(), kNoPrice);
      if (top.index >= 0) {
        best_e = begin + top.index;
        best_v = value[best_e];
        chosen = problem.agent_ids[best_e];
      }
    } else {
      // Dummy unit: value 0 for every agent, i.e. it hunts the cheapest
      // slot overall (lowest agent index on ties).
      top = simd::TopTwoNegPrice(price1.data(), agents, kNoPrice);
      chosen = top.index;
    }
    if (chosen < 0) {
      bid_agent[u] = -1;
      return;
    }
    int64_t second_value = top.second;  // kTopTwoNoValue == kNoValue
    // The agent's own second-cheapest slot also competes for w2.
    if (price2[chosen] != kNoPrice) {
      second_value = std::max(second_value, best_v - price2[chosen]);
    }
    if (second_value == kNoValue) {
      // Single candidate slot: bid high enough to always win it.
      second_value = top.best - (value_range + epsilon);
    }
    bid_agent[u] = chosen;
    bid_edge[u] = best_e;
    bid_amount[u] = best_v - second_value + epsilon;
  };

  enum class Rounds { kAssigned, kDiverged, kCeilingHit };
  // One forward bidding phase at a fixed ε: Jacobi bidding + sequential
  // resolution until every unit holds a slot, the work budget trips, or a
  // bid crosses the price ceiling.
  const auto run_rounds = [&](int64_t epsilon) -> Rounds {
    for (;;) {
      unassigned.clear();
      for (int u = 0; u < num_units; ++u) {
        if (assigned_agent[u] < 0) unassigned.push_back(u);
      }
      if (unassigned.empty()) return Rounds::kAssigned;
      ++rounds;
      bids += static_cast<int64_t>(unassigned.size());
      work += static_cast<int64_t>(unassigned.size()) + round_overhead;
      if (work > work_cap) return Rounds::kDiverged;

      // Immutable price snapshot for this round.
      for (int a = 0; a < agents; ++a) {
        if (slots[a].empty()) continue;
        price1[a] = slots[a][0].price;
        price2[a] = slots[a].size() > 1 ? slots[a][1].price : kNoPrice;
      }

      const auto bid_one = [&](int64_t i) {
        bid_for_unit(unassigned[i], epsilon);
      };
      if (options.pool != nullptr) {
        options.pool->ParallelFor(0, static_cast<int64_t>(unassigned.size()),
                                  /*grain=*/16, bid_one);
      } else {
        for (size_t i = 0; i < unassigned.size(); ++i) {
          bid_one(static_cast<int64_t>(i));
        }
      }

      // Sequential resolution: per agent, accept the j-th highest bid at
      // the j-th cheapest slot while it strictly beats that slot's
      // snapshot price (see the header comment for why this keeps ε-CS
      // exact per slot). Grouping walks units in ascending order and
      // agents independently, so the outcome is scheduling-free.
      bool any_bid = false;
      bool ceiling_hit = false;
      for (const int u : unassigned) {
        const int a = bid_agent[u];
        if (a < 0) continue;
        any_bid = true;
        if (agent_bids[a].empty()) touched.push_back(a);
        agent_bids[a].emplace_back(bid_amount[u], u);
      }
      if (!any_bid) return Rounds::kDiverged;  // defensive; cannot recur
      for (const int a : touched) {
        std::vector<std::pair<int64_t, int>>& incoming_bids = agent_bids[a];
        std::sort(incoming_bids.begin(), incoming_bids.end(),
                  [](const std::pair<int64_t, int>& x,
                     const std::pair<int64_t, int>& y) {
                    if (x.first != y.first) return x.first > y.first;
                    return x.second < y.second;
                  });
        accepted.clear();
        for (const auto& bid : incoming_bids) {
          const int j = static_cast<int>(accepted.size());
          if (j >= static_cast<int>(slots[a].size()) ||
              bid.first <= slots[a][j].price) {
            break;
          }
          accepted.push_back(bid);
        }
        for (size_t j = 0; j < accepted.size(); ++j) {
          const int evicted = slots[a][0].unit;
          if (evicted >= 0) {
            assigned_agent[evicted] = -1;
            assigned_edge[evicted] = -1;
          }
          slots[a].erase(slots[a].begin());
        }
        for (const auto& [amount, u] : accepted) {
          if (amount > price_ceiling) {
            ceiling_hit = true;
            continue;
          }
          const Slot incoming{amount, u};
          slots[a].insert(std::upper_bound(slots[a].begin(), slots[a].end(),
                                           incoming, SlotLess),
                          incoming);
          assigned_agent[u] = a;
          assigned_edge[u] = bid_edge[u];
        }
        incoming_bids.clear();
      }
      touched.clear();
      if (ceiling_hit) return Rounds::kCeilingHit;
    }
  };

  // Shared failure handling for a phase that did not fully assign.
  const auto phase_failure = [&](Rounds outcome) -> Status {
    if (outcome == Rounds::kCeilingHit) {
      // Feasible instances provably stay below the ceiling; confirm with
      // an exact flow before reporting infeasibility.
      if (ExactlyFeasible(problem, slots_per_agent)) {
        return Status::FailedPrecondition(
            "auction exceeded its price bound on a feasible instance");
      }
      return Status::Infeasible(
          "candidate edges cannot cover all tasks (auction price bound)");
    }
    if (!ExactlyFeasible(problem, slots_per_agent)) {
      return Status::Infeasible(
          "candidate edges cannot cover all tasks (auction stall)");
    }
    return Status::FailedPrecondition(
        "auction did not converge; use the min-cost-flow backend");
  };

  for (int64_t epsilon = epsilon0;; epsilon /= kEpsilonDivisor) {
    epsilon = std::max<int64_t>(1, epsilon);
    // New phase: keep every slot price (the warm start ε-scaling relies
    // on) but clear all assignments; the phase re-runs at the tighter ε.
    for (int a = 0; a < agents; ++a) {
      for (Slot& s : slots[a]) s.unit = -1;
      std::sort(slots[a].begin(), slots[a].end(), SlotLess);
    }
    std::fill(assigned_agent.begin(), assigned_agent.end(), -1);
    std::fill(assigned_edge.begin(), assigned_edge.end(), -1);
    const Rounds outcome = run_rounds(epsilon);
    if (outcome != Rounds::kAssigned) return phase_failure(outcome);
    if (epsilon == 1) break;
  }

  // Recover the assignment and the duals the pruning guard needs.
  result.final_epsilon = 1;
  result.value_unit = unit_value;
  result.rounds = rounds;
  result.bids = bids;
  {
    static obs::Counter* const phase_count = obs::Registry::Global().GetCounter(
        "wgrap_lap_auction_phases_total");
    static obs::Counter* const round_count = obs::Registry::Global().GetCounter(
        "wgrap_lap_auction_rounds_total");
    static obs::Counter* const bid_count = obs::Registry::Global().GetCounter(
        "wgrap_lap_auction_bids_total");
    if (phase_count) phase_count->Add(num_phases);
    if (round_count) round_count->Add(rounds);
    if (bid_count) bid_count->Add(bids);
  }
  // Every agent's cheapest slot price lower-bounds what a pruned edge
  // would have to pay — on tight instances where every agent got bid up,
  // this is what lets CertifiesPruning accept small K.
  result.min_slot_price = std::numeric_limits<int64_t>::max();
  for (int a = 0; a < agents; ++a) {
    if (slots[a].empty()) continue;
    result.min_slot_price = std::min(result.min_slot_price,
                                     slots[a][0].price);
  }
  if (result.min_slot_price == std::numeric_limits<int64_t>::max()) {
    result.min_slot_price = 0;
  }
  std::vector<int64_t> paid(num_units, 0);
  for (int a = 0; a < agents; ++a) {
    for (const Slot& s : slots[a]) {
      if (s.unit >= 0) paid[s.unit] = s.price;
    }
  }
  result.task_to_agent.resize(tasks);
  for (int t = 0; t < tasks; ++t) {
    const int64_t e = assigned_edge[t];
    WGRAP_CHECK(assigned_agent[t] >= 0 && e >= 0);
    result.task_to_agent[t] = assigned_agent[t];
    result.profit += problem.profits[e];
    // Exported in the unshifted M-domain: s·M − price, so CertifiesPruning
    // can compare pruned profits without knowing the internal shift.
    result.task_value[t] = value[e] - paid[t] + s_min * unit_value;
  }
  return result;
}

namespace {

// Dense matrix -> CSR candidate set (forbidden entries omitted). Range
// errors surface later in SolveAuctionSparse's validation.
SparseLapProblem CsrFromDense(const Matrix& profit) {
  SparseLapProblem problem;
  problem.num_tasks = profit.rows();
  problem.num_agents = profit.cols();
  problem.row_offsets.assign(1, 0);
  std::vector<int> kept(profit.cols());
  for (int t = 0; t < profit.rows(); ++t) {
    const double* row = profit.Row(t);
    const int count = simd::FilterGreaterThan(
        row, profit.cols(), kTransportForbidden / 2, kept.data());
    for (int i = 0; i < count; ++i) {
      problem.agent_ids.push_back(kept[i]);
      problem.profits.push_back(row[kept[i]]);
    }
    problem.row_offsets.push_back(
        static_cast<int64_t>(problem.agent_ids.size()));
  }
  return problem;
}

}  // namespace

Result<TransportationResult> SolveAuctionTransportation(
    const Matrix& profit, const std::vector<int>& capacity,
    const AuctionOptions& options) {
  auto solved = SolveAuctionSparse(CsrFromDense(profit), capacity, options);
  if (!solved.ok()) return solved.status();
  TransportationResult result;
  result.task_to_agent = std::move(solved->task_to_agent);
  result.profit = solved->profit;
  return result;
}

PrunedCandidates BuildTopKCandidates(const Matrix& profit, int top_k,
                                     ThreadPool* pool) {
  const int tasks = profit.rows();
  const int agents = profit.cols();
  PrunedCandidates out;
  out.problem.num_tasks = tasks;
  out.problem.num_agents = agents;
  out.best_pruned.assign(tasks,
                         -std::numeric_limits<double>::infinity());
  const int keep = top_k <= 0 ? agents : std::min(top_k, agents);

  // Per-row selection is independent — fan out, then stitch the CSR rows
  // together sequentially (deterministic either way).
  std::vector<std::vector<std::pair<int, double>>> rows(tasks);
  const auto select_row = [&](int64_t t64) {
    const int t = static_cast<int>(t64);
    static thread_local std::vector<int> kept;
    kept.resize(agents);
    const double* row = profit.Row(t);
    const int count = simd::FilterGreaterThan(
        row, agents, kTransportForbidden / 2, kept.data());
    std::vector<std::pair<double, int>> candidates;  // (profit, agent)
    candidates.reserve(count);
    for (int i = 0; i < count; ++i) {
      candidates.emplace_back(row[kept[i]], kept[i]);
    }
    // Rank in the 1e9-scaled integer domain the auction itself optimizes:
    // profits that differ only below the quantum (e.g. the raw doubles of
    // a rebuild vs. the round-tripped ints of core/gain_cache.h) must
    // select the same top-K set, or the pruned stage graphs — and with
    // them the tie resolution — could diverge between gain modes. Within
    // a quantum the agent index breaks the tie, keeping the order total.
    // The clamp keeps llround defined for out-of-range profits, which the
    // solve itself rejects downstream; ranking them at the extremes first
    // is fine.
    const auto scaled_rank = [](double p) {
      return ScaleTransportProfit(
          std::clamp(p, -kMaxTransportProfit, kMaxTransportProfit));
    };
    const auto better = [&scaled_rank](const std::pair<double, int>& x,
                                       const std::pair<double, int>& y) {
      const int64_t sx = scaled_rank(x.first);
      const int64_t sy = scaled_rank(y.first);
      if (sx != sy) return sx > sy;
      return x.second < y.second;
    };
    if (static_cast<int>(candidates.size()) > keep) {
      std::nth_element(candidates.begin(), candidates.begin() + keep,
                       candidates.end(), better);
      for (size_t i = keep; i < candidates.size(); ++i) {
        out.best_pruned[t] = std::max(out.best_pruned[t],
                                      candidates[i].first);
      }
      candidates.resize(keep);
    }
    rows[t].reserve(candidates.size());
    for (const auto& [p, a] : candidates) rows[t].emplace_back(a, p);
    std::sort(rows[t].begin(), rows[t].end());
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, tasks, /*grain=*/8, select_row);
  } else {
    for (int t = 0; t < tasks; ++t) select_row(t);
  }

  out.problem.row_offsets.assign(1, 0);
  for (int t = 0; t < tasks; ++t) {
    for (const auto& [a, p] : rows[t]) {
      out.problem.agent_ids.push_back(a);
      out.problem.profits.push_back(p);
    }
    out.problem.row_offsets.push_back(
        static_cast<int64_t>(out.problem.agent_ids.size()));
    out.pruned_any =
        out.pruned_any ||
        out.best_pruned[t] > -std::numeric_limits<double>::infinity();
  }
  return out;
}

bool CertifiesPruning(const AuctionResult& result,
                      const std::vector<double>& best_pruned) {
  WGRAP_CHECK(best_pruned.size() == result.task_value.size());
  for (size_t t = 0; t < best_pruned.size(); ++t) {
    if (best_pruned[t] == -std::numeric_limits<double>::infinity()) continue;
    // A pruned profit below the scalable range would overflow llround;
    // skipping it is sound because the dense program it would have to
    // beat rejects such inputs outright (SolveTransportation returns
    // kInvalidArgument), so "same optimum as the dense backends" is only
    // ever asserted over in-range profits.
    if (best_pruned[t] < -kMaxTransportProfit) continue;
    // __int128: an in-range pruned profit (|s| up to 1e15) times a large
    // value_unit overflows int64.
    const __int128 pruned_value =
        static_cast<__int128>(ScaleTransportProfit(best_pruned[t])) *
        result.value_unit;
    if (pruned_value - result.min_slot_price >
        static_cast<__int128>(result.task_value[t]) +
            result.final_epsilon) {
      return false;
    }
  }
  return true;
}

Result<AuctionResult> SolveAuctionTopK(const Matrix& profit,
                                       const std::vector<int>& capacity,
                                       int top_k,
                                       const AuctionOptions& options,
                                       int* widen_count) {
  const int agents = profit.cols();
  if (widen_count != nullptr) *widen_count = 0;
  int k = top_k <= 0 ? agents : std::min(top_k, agents);
  for (;;) {
    PrunedCandidates candidates =
        BuildTopKCandidates(profit, k >= agents ? 0 : k, options.pool);
    auto solved = SolveAuctionSparse(candidates.problem, capacity, options);
    if (solved.ok() &&
        (!candidates.pruned_any ||
         CertifiesPruning(*solved, candidates.best_pruned))) {
      return solved;
    }
    const bool pruned_infeasible =
        !solved.ok() &&
        solved.status().code() == StatusCode::kInfeasible &&
        candidates.pruned_any;
    const bool uncertified = solved.ok();  // certificate failed above
    if (!pruned_infeasible && !uncertified) {
      // Terminal: genuinely infeasible, invalid input, or the auction
      // asked for the min-cost-flow fallback — widening cannot help.
      return solved.status();
    }
    k = std::min(agents, k * 2);
    if (widen_count != nullptr) ++*widen_count;
    static obs::Counter* const widen_events = obs::Registry::Global().GetCounter(
        "wgrap_lap_auction_widen_total");
    if (widen_events) widen_events->Add();
  }
}

}  // namespace wgrap::la
