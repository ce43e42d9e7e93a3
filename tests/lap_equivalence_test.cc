// Cross-backend LAP equivalence suite: the ε-scaling auction and the
// capacity-aware Jonker–Volgenant engine must find exactly the optimum
// min-cost flow (and, at unit capacities, the double-domain Hungarian
// algorithm) finds — same scaled-integer objective on every
// instance, and the identical assignment on instances whose optimum is
// unique (continuous random profits; the paper's instances are of this
// kind). Sweeps cover P/R shapes, capacity styles, forbidden-pair
// densities, top-K pruning with the exactness guard, the JV at demand
// 1–4, and 1- vs 8-thread bidding (bit-identical output is the
// determinism contract). At the solver level, ILP-ARAP's JV is checked
// against the flow oracle; the SDGA stages' flow oracle lives in
// tests/gain_cache_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "fuzz_util.h"
#include "la/auction.h"
#include "la/hungarian.h"
#include "la/transportation.h"
#include "obs/metrics.h"

namespace wgrap::la {
namespace {

// Continuous profits in (-1, 1) so the scaled optimum is unique with
// probability ~1; `forbidden_fraction` knocks out candidate edges.
Matrix RandomProfit(int tasks, int agents, double forbidden_fraction,
                    Rng* rng) {
  Matrix profit(tasks, agents, kTransportForbidden);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      if (rng->NextDouble() < forbidden_fraction) continue;
      profit.At(t, a) = 2.0 * rng->NextDouble() - 1.0;
    }
  }
  return profit;
}

// Both integer backends optimize Σ ScaleTransportProfit(p) — compare
// objectives exactly in that domain (double sums differ by fp order).
int64_t ScaledObjective(const Matrix& profit,
                        const std::vector<int>& task_to_agent) {
  int64_t total = 0;
  for (int t = 0; t < profit.rows(); ++t) {
    total += ScaleTransportProfit(profit.At(t, task_to_agent[t]));
  }
  return total;
}

int64_t ScaledObjective(const Matrix& profit,
                        const std::vector<std::vector<int>>& task_to_agents) {
  int64_t total = 0;
  for (int t = 0; t < profit.rows(); ++t) {
    for (int a : task_to_agents[t]) {
      total += ScaleTransportProfit(profit.At(t, a));
    }
  }
  return total;
}

TEST(LapEquivalenceTest, AuctionMatchesMinCostFlowAcrossSweeps) {
  ThreadPool pool(8);
  Rng rng(20150531);
  const struct {
    int tasks;
    int agents;
  } shapes[] = {{5, 8}, {12, 7}, {20, 25}, {33, 14}};
  int feasible_count = 0;
  for (const auto& shape : shapes) {
    for (const double forbidden : {0.0, 0.35, 0.7}) {
      for (const int capacity_style : {0, 1, 2}) {
        Matrix profit =
            RandomProfit(shape.tasks, shape.agents, forbidden, &rng);
        std::vector<int> capacity(shape.agents);
        for (int a = 0; a < shape.agents; ++a) {
          capacity[a] = capacity_style == 0   ? 1
                        : capacity_style == 1 ? 3
                                              : rng.NextInt(0, 4);
        }
        auto flow = SolveTransportation(profit, capacity);
        auto auction_inline = SolveAuctionTransportation(profit, capacity);
        AuctionOptions threaded;
        threaded.pool = &pool;
        auto auction_threaded =
            SolveAuctionTransportation(profit, capacity, threaded);
        if (!flow.ok()) {
          EXPECT_EQ(flow.status().code(), StatusCode::kInfeasible);
          ASSERT_FALSE(auction_inline.ok());
          EXPECT_EQ(auction_inline.status().code(), StatusCode::kInfeasible);
          continue;
        }
        ++feasible_count;
        ASSERT_TRUE(auction_inline.ok())
            << auction_inline.status().ToString();
        ASSERT_TRUE(auction_threaded.ok());
        EXPECT_EQ(ScaledObjective(profit, flow->task_to_agent),
                  ScaledObjective(profit, auction_inline->task_to_agent));
        // Unique optimum (continuous profits) → identical assignment.
        EXPECT_EQ(flow->task_to_agent, auction_inline->task_to_agent);
        // Bit-identical at any thread count, including none.
        EXPECT_EQ(auction_inline->task_to_agent,
                  auction_threaded->task_to_agent);
      }
    }
  }
  EXPECT_GT(feasible_count, 10);  // the sweep must actually exercise solves
}

TEST(LapEquivalenceTest, AuctionMatchesHungarianAtUnitCapacity) {
  Rng rng(7);
  for (const int tasks : {6, 15}) {
    const int agents = tasks + 5;
    Matrix profit = RandomProfit(tasks, agents, 0.2, &rng);
    // Hungarian uses its own forbidden marker; same cells, same value.
    auto hungarian = SolveMaxProfitAssignment(profit);
    auto auction = SolveAuctionTransportation(
        profit, std::vector<int>(agents, 1));
    ASSERT_TRUE(hungarian.ok() && auction.ok());
    EXPECT_EQ(ScaledObjective(profit, hungarian->row_to_col),
              ScaledObjective(profit, auction->task_to_agent));
    EXPECT_EQ(hungarian->row_to_col, auction->task_to_agent);
  }
}

TEST(LapEquivalenceTest, TopKPruningGuardNeverReturnsSubOptimal) {
  ThreadPool pool(8);
  Rng rng(99);
  AuctionOptions options;
  options.pool = &pool;
  for (const int tasks : {10, 24}) {
    const int agents = 18;
    for (const double forbidden : {0.0, 0.4}) {
      Matrix profit = RandomProfit(tasks, agents, forbidden, &rng);
      std::vector<int> capacity(agents, 2);
      auto flow = SolveTransportation(profit, capacity);
      if (!flow.ok()) continue;
      const int64_t dense_optimum =
          ScaledObjective(profit, flow->task_to_agent);
      for (const int k : {1, 2, 4, 8}) {
        int widenings = 0;
        auto pruned =
            SolveAuctionTopK(profit, capacity, k, options, &widenings);
        ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
        EXPECT_EQ(dense_optimum,
                  ScaledObjective(profit, pruned->task_to_agent))
            << "tasks=" << tasks << " k=" << k;
        // K=1 cannot cover capacity conflicts — the guard must widen, not
        // return a feasible-but-worse assignment.
        if (k == 1 && tasks > agents) {
          EXPECT_GT(widenings, 0);
        }
      }
    }
  }
}

// A solution is valid when every task has `demand` distinct agents, no
// agent exceeds its capacity and no forbidden pair is used.
void ExpectValidAssignment(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const std::vector<std::vector<int>>& task_to_agents) {
  ASSERT_EQ(task_to_agents.size(), static_cast<size_t>(profit.rows()));
  std::vector<int> load(capacity.size(), 0);
  for (int t = 0; t < profit.rows(); ++t) {
    ASSERT_EQ(task_to_agents[t].size(), static_cast<size_t>(demand))
        << "task " << t;
    for (size_t i = 0; i < task_to_agents[t].size(); ++i) {
      const int a = task_to_agents[t][i];
      ASSERT_GE(a, 0);
      ASSERT_LT(a, profit.cols());
      EXPECT_GT(profit.At(t, a), kTransportForbidden / 2) << "task " << t;
      if (i > 0) {
        EXPECT_LT(task_to_agents[t][i - 1], a) << "task " << t;
      }
      ++load[a];
    }
  }
  for (size_t a = 0; a < capacity.size(); ++a) {
    EXPECT_LE(load[a], capacity[a]) << "agent " << a;
  }
}

// Near-saturated and tie-heavy demand > 1 instances: with total capacity
// exactly equal to total demand every agent must saturate, and quantized
// profits make massive ties. The JV must reach the flow optimum on every
// one.
TEST(LapEquivalenceTest, AdversarialDemandInstancesMatchFlow) {
  int solves = 0;
  for (const bool tie_heavy : {false, true}) {
    for (const int demand : {2, 3}) {
      for (const int tasks : {8, 13}) {
        for (const int spare : {0, 1}) {
          Rng rng(31000 + 2 * tasks + 100 * demand + spare +
                  (tie_heavy ? 7777 : 0));
          const int agents = 6;
          Matrix profit(tasks, agents, kTransportForbidden);
          for (int t = 0; t < tasks; ++t) {
            for (int a = 0; a < agents; ++a) {
              profit.At(t, a) = tie_heavy ? 0.25 * rng.NextInt(0, 3)
                                          : 2.0 * rng.NextDouble() - 1.0;
            }
          }
          // spare == 0 is exact saturation: total slots == total demand.
          const int total = tasks * demand + spare;
          std::vector<int> capacity(agents, total / agents);
          for (int a = 0; a < total % agents; ++a) ++capacity[a];
          auto flow = SolveTransportationWithDemand(profit, capacity, demand);
          ASSERT_TRUE(flow.ok()) << flow.status().ToString();
          auto jv = SolveCapacitatedAssignment(profit, capacity, demand);
          ASSERT_TRUE(jv.ok())
              << "demand=" << demand << " tasks=" << tasks << " spare="
              << spare << " tie_heavy=" << tie_heavy << ": "
              << jv.status().ToString();
          ExpectValidAssignment(profit, capacity, demand, jv->task_to_agents);
          EXPECT_EQ(ScaledObjective(profit, flow->task_to_agents),
                    ScaledObjective(profit, jv->task_to_agents));
          ++solves;
        }
      }
    }
  }
  EXPECT_GT(solves, 10);
}

TEST(LapEquivalenceTest, RejectsMalformedInput) {
  // CSR with non-ascending agent ids.
  SparseLapProblem bad;
  bad.num_tasks = 1;
  bad.num_agents = 3;
  bad.row_offsets = {0, 2};
  bad.agent_ids = {2, 1};
  bad.profits = {0.5, 0.25};
  auto solved = SolveAuctionSparse(bad, {1, 1, 1});
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);

  // Out-of-range profit (not the forbidden marker).
  Matrix profit(1, 2, 0.5);
  profit.At(0, 0) = 2e6;
  auto out_of_range = SolveAuctionTransportation(profit, {1, 1});
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  // Capacity cannot cover the tasks.
  Matrix wide(3, 2, 0.5);
  auto infeasible = SolveAuctionTransportation(wide, {1, 1});
  EXPECT_EQ(infeasible.status().code(), StatusCode::kInfeasible);

  // Empty instance is trivially solved.
  auto empty = SolveAuctionTransportation(Matrix(0, 2), {1, 1});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->task_to_agent.empty());
}

// One seeded fuzz instance: tie-heavy (1–4 profit levels) or continuous
// profits, a 1/7 forbidden share, and three capacity styles — random in
// [0, 4] (zero capacities included), all above the task count, and a
// tight Σcap = tasks · demand (the SRA completion shape at demand 1).
struct FuzzInstance {
  Matrix profit;
  std::vector<int> capacity;
};

FuzzInstance DrawFuzzInstance(uint64_t seed, Rng* rng, int max_tasks,
                              int max_agents, int demand) {
  const int tasks = rng->NextInt(1, max_tasks);
  const int agents = rng->NextInt(1, max_agents);
  const int levels = static_cast<int>(seed % 5);  // 0 = continuous
  FuzzInstance instance{Matrix(tasks, agents, kTransportForbidden),
                        std::vector<int>(agents, 0)};
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      if (rng->NextInt(0, 6) == 0) continue;
      instance.profit.At(t, a) = levels == 0
                                     ? rng->NextDouble()
                                     : 0.25 * rng->NextInt(0, levels - 1);
    }
  }
  std::vector<int>& capacity = instance.capacity;
  switch (seed / 5 % 3) {
    case 0:
      for (int& c : capacity) c = rng->NextInt(0, 4);
      break;
    case 1:
      for (int& c : capacity) c = tasks + rng->NextInt(1, 3);
      break;
    case 2:
      for (int u = 0; u < tasks * demand; ++u) {
        ++capacity[rng->NextInt(0, agents - 1)];
      }
      break;
  }
  return instance;
}

// Seeded fuzz of the capacity-aware Jonker–Volgenant stage engine (demand
// 1) against min-cost flow. Optima are tied on most instances, so the
// scaled objective is compared, not the assignment. The demand overload
// at demand 1 must return exactly the stage overload's assignment.
TEST(LapEquivalenceTest, CapacitatedAssignmentMatchesFlowFuzz) {
  int feasible = 0;
  int infeasible = 0;
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    Rng rng(70000 + seed);
    const FuzzInstance instance = DrawFuzzInstance(seed, &rng, 14, 9, 1);
    const Matrix& profit = instance.profit;
    const std::vector<int>& capacity = instance.capacity;
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto flow = SolveTransportation(profit, capacity);
    auto jv = SolveCapacitatedAssignment(profit, capacity);
    auto unit = SolveCapacitatedAssignment(profit, capacity, 1);
    if (!flow.ok()) {
      ASSERT_EQ(flow.status().code(), StatusCode::kInfeasible);
      ASSERT_FALSE(jv.ok());
      EXPECT_EQ(jv.status().code(), StatusCode::kInfeasible);
      ASSERT_FALSE(unit.ok());
      EXPECT_EQ(unit.status().code(), StatusCode::kInfeasible);
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(jv.ok()) << jv.status().ToString();
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    ExpectValidAssignment(profit, capacity, 1, unit->task_to_agents);
    for (int t = 0; t < profit.rows(); ++t) {
      EXPECT_EQ(jv->task_to_agent[t], unit->task_to_agents[t][0]);
    }
    EXPECT_EQ(ScaledObjective(profit, flow->task_to_agent),
              ScaledObjective(profit, jv->task_to_agent));
    ++feasible;
  }
  // Both verdicts must actually be exercised.
  EXPECT_GT(feasible, 300);
  EXPECT_GT(infeasible, 100);
}

// The same fuzz at demand 2–4, the ILP-ARAP solve, against
// SolveTransportationWithDemand: identical verdicts, equal scaled
// objectives, and δp distinct agents per task within capacity.
TEST(LapEquivalenceTest, CapacitatedDemandMatchesFlowFuzz) {
  int feasible[5] = {0, 0, 0, 0, 0};
  int infeasible[5] = {0, 0, 0, 0, 0};
  for (uint64_t seed = 0; seed < 2250; ++seed) {
    Rng rng(90000 + seed);
    const int demand = 2 + static_cast<int>(seed / 15 % 3);
    const FuzzInstance instance = DrawFuzzInstance(seed, &rng, 12, 10, demand);
    const Matrix& profit = instance.profit;
    const std::vector<int>& capacity = instance.capacity;
    SCOPED_TRACE("seed " + std::to_string(seed) + " demand " +
                 std::to_string(demand));
    auto flow = SolveTransportationWithDemand(profit, capacity, demand);
    auto jv = SolveCapacitatedAssignment(profit, capacity, demand);
    if (!flow.ok()) {
      ASSERT_EQ(flow.status().code(), StatusCode::kInfeasible);
      ASSERT_FALSE(jv.ok());
      EXPECT_EQ(jv.status().code(), StatusCode::kInfeasible);
      ++infeasible[demand];
      continue;
    }
    ASSERT_TRUE(jv.ok()) << jv.status().ToString();
    ExpectValidAssignment(profit, capacity, demand, jv->task_to_agents);
    EXPECT_EQ(ScaledObjective(profit, flow->task_to_agents),
              ScaledObjective(profit, jv->task_to_agents));
    ++feasible[demand];
  }
  // Both verdicts must actually be exercised at every demand.
  for (int demand = 2; demand <= 4; ++demand) {
    EXPECT_GT(feasible[demand], 150) << "demand " << demand;
    EXPECT_GT(infeasible[demand], 100) << "demand " << demand;
  }
}

TEST(LapEquivalenceTest, CapacitatedAssignmentVerdicts) {
  // An all-forbidden row has no augmenting path despite ample capacity.
  Matrix blocked(3, 3, 0.5);
  for (int a = 0; a < 3; ++a) blocked.At(1, a) = kTransportForbidden;
  EXPECT_EQ(SolveCapacitatedAssignment(blocked, {3, 3, 3}).status().code(),
            StatusCode::kInfeasible);
  // Σcap < tasks.
  EXPECT_EQ(SolveCapacitatedAssignment(Matrix(5, 2, 0.5), {2, 2})
                .status()
                .code(),
            StatusCode::kInfeasible);
  // Σcap < tasks is checked before any profit, as min-cost flow does, so a
  // NaN profit does not change the verdict of either engine.
  {
    Matrix profit(3, 2, 0.5);
    profit.At(1, 0) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(SolveCapacitatedAssignment(profit, {1, 1}).status().code(),
              StatusCode::kInfeasible);
    EXPECT_EQ(SolveTransportation(profit, {1, 1}).status().code(),
              StatusCode::kInfeasible);
    EXPECT_EQ(SolveCapacitatedAssignment(profit, {2, 2}, 2).status().code(),
              StatusCode::kInfeasible);
    EXPECT_EQ(
        SolveTransportationWithDemand(profit, {2, 2}, 2).status().code(),
        StatusCode::kInfeasible);
  }
  // NaN and out-of-range profits on an otherwise feasible instance.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 2e6,
                           -2e6}) {
    Matrix profit(2, 2, 0.5);
    profit.At(1, 0) = bad;
    EXPECT_EQ(SolveCapacitatedAssignment(profit, {1, 1}).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // Malformed capacity vectors.
  EXPECT_EQ(SolveCapacitatedAssignment(Matrix(1, 2, 0.5), {1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SolveCapacitatedAssignment(Matrix(1, 2, 0.5), {1, -1}).status().code(),
      StatusCode::kInvalidArgument);
  // Empty instance is trivially solved.
  auto empty = SolveCapacitatedAssignment(Matrix(0, 2), {1, 1});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->task_to_agent.empty());
  // Ties go to the lowest-index non-full agent: three identical agents,
  // one slot each on the first two.
  auto tied = SolveCapacitatedAssignment(Matrix(2, 3, 0.5), {1, 1, 1});
  ASSERT_TRUE(tied.ok());
  EXPECT_EQ(tied->task_to_agent, (std::vector<int>{0, 1}));
  // Non-full first (hungarian.h): task 1 reaches the full agent 0 and the
  // free agent 2 at the same distance, and agent 2 ends the path. Settling
  // agent 0 first would move task 0 to agent 1 and return {1, 0}, the
  // same profit 1.0.
  Matrix free_slot(2, 3, 0.5);
  free_slot.At(1, 1) = 0.25;
  auto non_full = SolveCapacitatedAssignment(free_slot, {1, 1, 1});
  ASSERT_TRUE(non_full.ok());
  EXPECT_EQ(non_full->task_to_agent, (std::vector<int>{0, 2}));
  EXPECT_EQ(non_full->profit, 1.0);
  // Unique optimum: continuous profits give the same assignment as flow.
  Rng rng(3);
  Matrix profit = RandomProfit(12, 5, 0.2, &rng);
  const std::vector<int> capacity = {3, 2, 4, 1, 3};
  auto flow = SolveTransportation(profit, capacity);
  auto jv = SolveCapacitatedAssignment(profit, capacity);
  ASSERT_TRUE(flow.ok() && jv.ok());
  EXPECT_EQ(flow->task_to_agent, jv->task_to_agent);
  EXPECT_EQ(flow->profit, jv->profit);
}

TEST(LapEquivalenceTest, CapacitatedAssignmentDemandVerdictsAndTies) {
  // A task with fewer usable agents than its demand has no path for its
  // last unit, whatever the capacity.
  Matrix narrow(2, 3, 0.5);
  narrow.At(1, 0) = kTransportForbidden;
  narrow.At(1, 1) = kTransportForbidden;
  EXPECT_EQ(SolveCapacitatedAssignment(narrow, {2, 2, 2}, 2).status().code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(
      SolveCapacitatedAssignment(Matrix(2, 3, 0.5), {1, 1, 1}, -1)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  auto none = SolveCapacitatedAssignment(Matrix(2, 3, 0.5), {0, 0, 0}, 0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->task_to_agents, (std::vector<std::vector<int>>{{}, {}}));
  // Ties go to the lowest index (hungarian.h): with four identical
  // one-slot agents, task 0 takes the first two and task 1 the rest.
  auto spread = SolveCapacitatedAssignment(Matrix(2, 4, 0.5), {1, 1, 1, 1}, 2);
  ASSERT_TRUE(spread.ok());
  EXPECT_EQ(spread->task_to_agents,
            (std::vector<std::vector<int>>{{0, 1}, {2, 3}}));
  // Only agent 2 has two slots, so both tasks must share it. Task 0 first
  // takes {0, 1}; task 1 then takes 2, and its second unit goes to agent
  // 0, the lowest index settled, whose task 0 moves on to agent 2.
  auto shared = SolveCapacitatedAssignment(Matrix(2, 3, 0.5), {1, 1, 2}, 2);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->task_to_agents,
            (std::vector<std::vector<int>>{{1, 2}, {0, 2}}));
  // A tied case where a task waits: after its second unit, task 0's held
  // edge to agent 0 is slack, so task 1 reaches task 0 only at a tentative
  // distance. Min-cost flow returns a different optimum of the same value.
  Matrix slack(3, 4);
  const double rows[3][4] = {
      {0.5, 0.25, 0.25, 0.25}, {0.25, 0.0, 0.5, 0.0}, {0.25, 0.25, 0.25, 0.5}};
  for (int t = 0; t < 3; ++t) {
    for (int a = 0; a < 4; ++a) slack.At(t, a) = rows[t][a];
  }
  auto waited = SolveCapacitatedAssignment(slack, {1, 2, 1, 2}, 2);
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(waited->task_to_agents,
            (std::vector<std::vector<int>>{{0, 3}, {1, 2}, {1, 3}}));
  auto flow = SolveTransportationWithDemand(slack, {1, 2, 1, 2}, 2);
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(ScaledObjective(slack, flow->task_to_agents),
            ScaledObjective(slack, waited->task_to_agents));
  // A non-full agent goes before a waiting task at equal distance. Task 0
  // holds the full agents 0 and 1, its edge to agent 1 slack by 0.25. Task
  // 1's second unit settles agent 1, so task 0 waits at 0.25, tied with
  // the free agent 3, which ends the path. Scanning task 0 first would
  // move it to agent 2 and return {{0, 2}, {1, 2}}, the same profit 1.0.
  Matrix tie(2, 4, 0.0);
  tie.At(0, 1) = 0.25;
  tie.At(1, 1) = 0.5;
  tie.At(1, 2) = 0.5;
  tie.At(1, 3) = 0.25;
  auto ended = SolveCapacitatedAssignment(tie, {1, 1, 2, 1}, 2);
  ASSERT_TRUE(ended.ok());
  EXPECT_EQ(ended->task_to_agents,
            (std::vector<std::vector<int>>{{0, 1}, {2, 3}}));
  EXPECT_EQ(ended->profit, 1.0);
}

int64_t JvCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

// On an all-tied instance every unit insertion settles one free agent and
// ends there: no full agent is expanded and only the inserting task is
// scanned. Settling the lowest index first would expand the full agents.
TEST(LapEquivalenceTest, JvWorkCountersOnAllTiedInstance) {
  if (!obs::Enabled()) GTEST_SKIP() << "telemetry disabled";
  const int64_t settled = JvCounter("wgrap_lap_jv_agents_settled_total");
  const int64_t expanded = JvCounter("wgrap_lap_jv_full_agents_expanded_total");
  const int64_t scanned = JvCounter("wgrap_lap_jv_tasks_scanned_total");
  const int64_t path = JvCounter("wgrap_lap_jv_path_agents_total");
  auto solved = SolveCapacitatedAssignment(Matrix(40, 10, 0.5),
                                           std::vector<int>(10, 4));
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(JvCounter("wgrap_lap_jv_agents_settled_total") - settled, 40);
  EXPECT_EQ(JvCounter("wgrap_lap_jv_full_agents_expanded_total") - expanded,
            0);
  EXPECT_EQ(JvCounter("wgrap_lap_jv_tasks_scanned_total") - scanned, 40);
  EXPECT_EQ(JvCounter("wgrap_lap_jv_path_agents_total") - path, 40);
}

// A flip re-seats every agent on the path. Task 0 takes agent 0 (a
// one-agent path); task 1 wants agent 0 too, so agent 0 is expanded, task
// 0 moves on to agent 1 and task 1 takes agent 0 (a two-agent path).
TEST(LapEquivalenceTest, JvPathAgentsCountFlippedPaths) {
  if (!obs::Enabled()) GTEST_SKIP() << "telemetry disabled";
  const int64_t settled = JvCounter("wgrap_lap_jv_agents_settled_total");
  const int64_t expanded = JvCounter("wgrap_lap_jv_full_agents_expanded_total");
  const int64_t scanned = JvCounter("wgrap_lap_jv_tasks_scanned_total");
  const int64_t path = JvCounter("wgrap_lap_jv_path_agents_total");
  Matrix profit(2, 2);
  profit.At(0, 0) = 1.0;
  profit.At(0, 1) = 0.9;
  profit.At(1, 0) = 1.0;
  profit.At(1, 1) = 0.0;
  auto solved = SolveCapacitatedAssignment(profit, {1, 1});
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved->task_to_agent, (std::vector<int>{1, 0}));
  EXPECT_EQ(JvCounter("wgrap_lap_jv_path_agents_total") - path, 3);
  EXPECT_EQ(JvCounter("wgrap_lap_jv_agents_settled_total") - settled, 3);
  EXPECT_EQ(JvCounter("wgrap_lap_jv_full_agents_expanded_total") - expanded,
            1);
  EXPECT_EQ(JvCounter("wgrap_lap_jv_tasks_scanned_total") - scanned, 3);
}

struct JvCounts {
  int64_t settled, expanded, scanned, path;
  bool operator==(const JvCounts&) const = default;
};

JvCounts ReadJvCounts() {
  if (!obs::Enabled()) return {0, 0, 0, 0};
  return {JvCounter("wgrap_lap_jv_agents_settled_total"),
          JvCounter("wgrap_lap_jv_full_agents_expanded_total"),
          JvCounter("wgrap_lap_jv_tasks_scanned_total"),
          JvCounter("wgrap_lap_jv_path_agents_total")};
}

JvCounts Delta(const JvCounts& after, const JvCounts& before) {
  return {after.settled - before.settled, after.expanded - before.expanded,
          after.scanned - before.scanned, after.path - before.path};
}

// The row-source JV (SolveCapacitatedRows, what the SDGA stages and
// ILP-ARAP call) against the Matrix adapter on the same program written
// out as masked profits. The rows carry every cell; each task excludes a
// random list of agents (duplicates included) instead of forbidding them,
// and the zero-capacity columns hold out-of-range profits that no solve
// can use. Tie-heavy and continuous profits, forbidden cells (the COIs),
// demand 1 and 2–3. Same agents, same Status (code and text) and the same
// wgrap_lap_jv_* deltas.
TEST(LapEquivalenceTest, RowSourceMatchesMatrixFuzz) {
  int solved = 0;
  int infeasible = 0;
  int excluded_cells = 0;
  for (uint64_t seed = 0; seed < 1200; ++seed) {
    Rng rng(150000 + seed);
    const int demand = seed % 3 == 0 ? 1 + static_cast<int>(seed / 3 % 3) : 1;
    const FuzzInstance instance = DrawFuzzInstance(seed, &rng, 12, 9, demand);
    const int tasks = instance.profit.rows();
    const int agents = instance.profit.cols();
    SCOPED_TRACE("seed " + std::to_string(seed) + " demand " +
                 std::to_string(demand));
    std::vector<std::vector<int>> excluded(tasks);
    std::vector<int64_t> cost(static_cast<size_t>(tasks) * agents);
    Matrix masked = instance.profit;
    JvCostRows rows;
    rows.agents = agents;
    for (int t = 0; t < tasks; ++t) {
      const int count = rng.NextInt(0, 2);
      for (int k = 0; k < count; ++k) {
        excluded[t].push_back(rng.NextInt(0, agents - 1));
      }
      int64_t* row = &cost[static_cast<size_t>(t) * agents];
      for (int a = 0; a < agents; ++a) {
        row[a] = JvCost(instance.profit.At(t, a));
        if (instance.capacity[a] == 0) {
          row[a] = JvCost(rng.NextInt(0, 1) == 0 ? 2e6 : -1e6);
          masked.At(t, a) = kTransportForbidden;
        }
      }
      for (int a : excluded[t]) {
        masked.At(t, a) = kTransportForbidden;
        if (rng.NextInt(0, 1) == 0) row[a] = kJvBadProfit;
        ++excluded_cells;
      }
      rows.cost.push_back(row);
      rows.excluded.push_back(&excluded[t]);
    }
    const JvCounts before_rows = ReadJvCounts();
    auto in_place = SolveCapacitatedRows(rows, instance.capacity, demand);
    const JvCounts rows_work = Delta(ReadJvCounts(), before_rows);
    const JvCounts before_matrix = ReadJvCounts();
    auto matrix = SolveCapacitatedAssignment(masked, instance.capacity, demand);
    const JvCounts matrix_work = Delta(ReadJvCounts(), before_matrix);
    EXPECT_TRUE(rows_work == matrix_work);
    ASSERT_EQ(in_place.ok(), matrix.ok());
    if (!matrix.ok()) {
      EXPECT_EQ(in_place.status().ToString(), matrix.status().ToString());
      ++infeasible;
      continue;
    }
    std::vector<int> flat;
    for (const std::vector<int>& agents_of : matrix->task_to_agents) {
      flat.insert(flat.end(), agents_of.begin(), agents_of.end());
    }
    EXPECT_EQ(*in_place, flat);
    ++solved;
  }
  EXPECT_GT(solved, 300);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(excluded_cells, 1000);
}

// The one boundary the row source moved (hungarian.h): a zero-capacity
// column is not read, so an out-of-range profit there no longer fails the
// Matrix adapter, and a column that widens the spread changes nothing.
// Both answers, and the work, equal those with the column forbidden.
TEST(LapEquivalenceTest, ZeroCapacityColumnIsNeverRead) {
  Matrix profit(4, 3, 0.5);
  profit.At(1, 0) = 0.25;
  profit.At(2, 2) = 0.75;
  Matrix forbidden = profit;
  for (int t = 0; t < 4; ++t) forbidden.At(t, 1) = kTransportForbidden;
  const std::vector<int> capacity = {2, 0, 2};
  const JvCounts before = ReadJvCounts();
  auto reference = SolveCapacitatedAssignment(forbidden, capacity);
  const JvCounts reference_work = Delta(ReadJvCounts(), before);
  ASSERT_TRUE(reference.ok());
  for (const double column : {2e6, std::numeric_limits<double>::quiet_NaN(),
                              -1e6, 1e6}) {
    SCOPED_TRACE(column);
    Matrix wide = profit;
    for (int t = 0; t < 4; ++t) wide.At(t, 1) = column;
    const JvCounts start = ReadJvCounts();
    auto solved = SolveCapacitatedAssignment(wide, capacity);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(solved->task_to_agent, reference->task_to_agent);
    EXPECT_TRUE(Delta(ReadJvCounts(), start) == reference_work);
  }
  // With capacity the same cell is read, and fails.
  Matrix bad = profit;
  bad.At(3, 1) = 2e6;
  auto failed = SolveCapacitatedAssignment(bad, {2, 1, 2});
  EXPECT_EQ(failed.status().ToString(),
            ValidateTransportProfit(2e6).ToString());
}

// The cost form keeps the scaled program: JvCost is kJvCostOrigin minus
// the scaled profit, kJvCostOrigin is the largest scaled profit, and the
// markers cover the forbidden and out-of-range cells.
TEST(LapEquivalenceTest, JvCostIsTheScaledProgram) {
  EXPECT_EQ(kJvCostOrigin, ScaleTransportProfit(kMaxTransportProfit));
  EXPECT_EQ(JvCost(kMaxTransportProfit), 0);
  EXPECT_EQ(JvCost(-kMaxTransportProfit), 2 * kJvCostOrigin);
  EXPECT_EQ(JvCost(kTransportForbidden), kJvNoEdge);
  EXPECT_EQ(JvCost(kTransportForbidden / 2), kJvNoEdge);
  EXPECT_EQ(JvCost(2e6), kJvBadProfit);
  EXPECT_EQ(JvCost(std::numeric_limits<double>::quiet_NaN()), kJvBadProfit);
  EXPECT_EQ(JvCost(std::numeric_limits<double>::infinity()), kJvBadProfit);
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double p = (2.0 * rng.NextDouble() - 1.0) * 3.0;
    EXPECT_EQ(kJvCostOrigin - JvCost(p), ScaleTransportProfit(p)) << p;
  }
}

// The demand form polls its deadline and cancel token before every unit
// insertion. Both instances are feasible, so only the poll can fail them.
TEST(LapEquivalenceTest, CapacitatedAssignmentHonorsDeadlineAndCancel) {
  const Matrix profit(4, 3, 0.5);
  const std::vector<int> capacity = {3, 3, 3};
  ASSERT_TRUE(SolveCapacitatedAssignment(profit, capacity, 2).ok());
  const Deadline expired(1e-9);
  while (!expired.Expired()) {
  }
  EXPECT_EQ(SolveCapacitatedAssignment(profit, capacity, 2, &expired)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  auto source = MakeCancelSource();
  source->store(true);
  EXPECT_EQ(SolveCapacitatedAssignment(profit, capacity, 2, nullptr, source)
                .status()
                .code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace wgrap::la

namespace wgrap::core {
namespace {

// ILP-ARAP runs the JV with demand δp; the min-cost-flow oracle on the
// same profits must reach the same scaled optimum. This pool contains an
// exact score tie (reviewers 1 and 2 score paper 1 identically), so the
// groups themselves may differ.
TEST(LapEquivalenceTest, IlpArapMatchesFlowOracle) {
  Instance instance = SeededPool(12, 9, 3, 41, /*num_topics=*/12);
  auto ilp = SolveCraIlpArap(instance);
  ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
  EXPECT_TRUE(ilp->ValidateComplete().ok());
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  Matrix profit(P, R);
  for (int p = 0; p < P; ++p) {
    for (int r = 0; r < R; ++r) {
      profit(p, r) = instance.IsConflict(r, p) ? la::kTransportForbidden
                                               : instance.PairUtility(r, p);
    }
  }
  auto flow = la::SolveTransportationWithDemand(
      profit, std::vector<int>(R, instance.reviewer_workload()),
      instance.group_size());
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();
  int64_t flow_objective = 0;
  int64_t ilp_objective = 0;
  for (int p = 0; p < P; ++p) {
    for (int r : flow->task_to_agents[p]) {
      flow_objective += la::ScaleTransportProfit(profit(p, r));
    }
    for (int r : ilp->GroupFor(p)) {
      ilp_objective += la::ScaleTransportProfit(profit(p, r));
    }
  }
  EXPECT_EQ(flow_objective, ilp_objective);
}

}  // namespace
}  // namespace wgrap::core
