// Cross-backend LAP equivalence suite: the ε-scaling auction and the
// capacity-aware Jonker–Volgenant engine must find exactly the optimum
// min-cost flow (and, at unit capacities, the double-domain Hungarian
// algorithm) finds — same scaled-integer objective on every
// instance, and the identical assignment on instances whose optimum is
// unique (continuous random profits; the paper's instances are of this
// kind). Sweeps cover P/R shapes, capacity styles, forbidden-pair
// densities, top-K pruning with the exactness guard, demand > 1, and 1-
// vs 8-thread bidding (bit-identical output is the determinism contract).
// At the solver level, the SDGA/SRA stages compare their two engines
// (Hungarian vs min-cost flow) and ILP-ARAP its auction against flow.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "data/synthetic_dblp.h"
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

TEST(LapEquivalenceTest, DemandAuctionMatchesFlowOrFallsBack) {
  ThreadPool pool(8);
  Rng rng(1234);
  for (const int demand : {2, 3}) {
    for (const int tasks : {6, 14}) {
      const int agents = 10;
      Matrix profit = RandomProfit(tasks, agents, 0.15, &rng);
      std::vector<int> capacity(agents, (tasks * demand) / agents + 2);
      auto flow = SolveTransportationWithDemand(profit, capacity, demand);
      TransportationOptions options;
      options.backend = TransportationBackend::kAuction;
      options.pool = &pool;
      auto auction =
          SolveTransportationWithDemand(profit, capacity, demand, options);
      ASSERT_EQ(flow.ok(), auction.ok());
      if (!flow.ok()) continue;
      EXPECT_EQ(ScaledObjective(profit, flow->task_to_agents),
                ScaledObjective(profit, auction->task_to_agents));
      EXPECT_EQ(flow->task_to_agents, auction->task_to_agents);
    }
  }
}

// The forward-reverse auction must solve near-saturated and tie-heavy
// demand > 1 instances outright — no min-cost-flow fallback. Both
// families were the old certify-or-fallback auction's failure modes:
// with total capacity exactly equal to total demand every agent must
// saturate and the old sibling-exclusion rule livelocked siblings
// chasing the last open agent, while quantized profits (massive ties)
// stressed the exact dual certificate. Convergence is asserted two ways:
// the raw auction solve must succeed (kFailedPrecondition is the
// fallback trigger), and the public backend's fallback counter must not
// move across the whole sweep.
TEST(LapEquivalenceTest, AdversarialDemandInstancesNeedNoFallback) {
  obs::Counter* const fallbacks = obs::Registry::Global().GetCounter(
      "wgrap_lap_auction_fallbacks_total");
  const int64_t fallbacks_before = fallbacks ? fallbacks->Value() : 0;
  ThreadPool pool(8);
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
          const int64_t optimum = ScaledObjective(profit, flow->task_to_agents);

          AuctionOptions options;
          options.demand = demand;
          options.pool = &pool;
          auto direct = SolveAuctionSparse(
              BuildTopKCandidates(profit, 0, nullptr).problem, capacity,
              options);
          ASSERT_TRUE(direct.ok())
              << "demand=" << demand << " tasks=" << tasks << " spare="
              << spare << " tie_heavy=" << tie_heavy << ": "
              << direct.status().ToString();
          EXPECT_EQ(optimum, ScaledObjective(profit, direct->task_to_agents));
          for (int t = 0; t < tasks; ++t) {
            ASSERT_EQ(direct->task_to_agents[t].size(),
                      static_cast<size_t>(demand));
            for (size_t i = 1; i < direct->task_to_agents[t].size(); ++i) {
              EXPECT_NE(direct->task_to_agents[t][i],
                        direct->task_to_agents[t][i - 1]);
            }
          }

          TransportationOptions backend;
          backend.backend = TransportationBackend::kAuction;
          backend.pool = &pool;
          auto via_backend =
              SolveTransportationWithDemand(profit, capacity, demand, backend);
          ASSERT_TRUE(via_backend.ok());
          EXPECT_EQ(optimum,
                    ScaledObjective(profit, via_backend->task_to_agents));
          ++solves;
        }
      }
    }
  }
  EXPECT_GT(solves, 10);
  if (fallbacks) {
    EXPECT_EQ(fallbacks->Value(), fallbacks_before)
        << "the forward-reverse auction fell back to min-cost flow";
  }
}

// Regression: two unassigned units of one task can submit identical bids
// to the same agent in one round; with the task-atomic multi-bid the
// targets are distinct by construction, and the result-assembly guard is
// the last line of defense. Before the original fix this produced
// task_to_agents[t] = [a, a] on ~1 in 9 of these seeds.
TEST(LapEquivalenceTest, DemandUnitsNeverShareAnAgent) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(9000 + seed);
    Matrix profit = RandomProfit(6, 10, 0.0, &rng);
    std::vector<int> capacity(10, 3);
    AuctionOptions options;
    options.demand = 2;
    auto solved = SolveAuctionSparse(
        BuildTopKCandidates(profit, 0, nullptr).problem, capacity, options);
    if (!solved.ok()) {
      // Certification failure is allowed (callers fall back) — silently
      // returning a duplicate pair is not.
      EXPECT_EQ(solved.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    auto flow = SolveTransportationWithDemand(profit, capacity, 2);
    ASSERT_TRUE(flow.ok());
    for (int t = 0; t < 6; ++t) {
      ASSERT_EQ(solved->task_to_agents[t].size(), 2u) << "seed " << seed;
      EXPECT_NE(solved->task_to_agents[t][0], solved->task_to_agents[t][1])
          << "seed " << seed << " task " << t;
    }
    // A certified demand-2 solve is exact — same objective as the flow.
    EXPECT_EQ(ScaledObjective(profit, flow->task_to_agents),
              ScaledObjective(profit, solved->task_to_agents))
        << "seed " << seed;
  }
}

TEST(LapEquivalenceTest, InitialEpsilonKnobKeepsTheOptimum) {
  Rng rng(5);
  Matrix profit = RandomProfit(12, 9, 0.1, &rng);
  std::vector<int> capacity(9, 2);
  auto reference = SolveAuctionTransportation(profit, capacity);
  ASSERT_TRUE(reference.ok());
  for (const double epsilon : {1e-3, 0.25, 50.0}) {
    AuctionOptions options;
    options.initial_epsilon = epsilon;
    auto tuned = SolveAuctionTransportation(profit, capacity, options);
    ASSERT_TRUE(tuned.ok()) << "epsilon " << epsilon;
    EXPECT_EQ(ScaledObjective(profit, reference->task_to_agent),
              ScaledObjective(profit, tuned->task_to_agent));
  }
  // A near-zero ε disables the scaling schedule entirely; the auction may
  // then hit its round cap and ask for the mcf fallback — that is the
  // documented contract (never a wrong answer, never a hang).
  AuctionOptions degenerate;
  degenerate.initial_epsilon = 1e-9;
  auto tiny = SolveAuctionTransportation(profit, capacity, degenerate);
  if (tiny.ok()) {
    EXPECT_EQ(ScaledObjective(profit, reference->task_to_agent),
              ScaledObjective(profit, tiny->task_to_agent));
  } else {
    EXPECT_EQ(tiny.status().code(), StatusCode::kFailedPrecondition);
  }
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

// A solution is valid when every task has an agent, no agent exceeds its
// capacity and no forbidden pair is used.
void ExpectValidAssignment(const Matrix& profit,
                           const std::vector<int>& capacity,
                           const std::vector<int>& task_to_agent) {
  ASSERT_EQ(task_to_agent.size(), static_cast<size_t>(profit.rows()));
  std::vector<int> load(capacity.size(), 0);
  for (int t = 0; t < profit.rows(); ++t) {
    const int a = task_to_agent[t];
    ASSERT_GE(a, 0);
    ASSERT_LT(a, profit.cols());
    EXPECT_GT(profit.At(t, a), kTransportForbidden / 2) << "task " << t;
    ++load[a];
  }
  for (size_t a = 0; a < capacity.size(); ++a) {
    EXPECT_LE(load[a], capacity[a]) << "agent " << a;
  }
}

// Seeded fuzz of the capacity-aware Jonker–Volgenant stage engine against
// min-cost flow: tie-heavy (1–4 profit levels) and continuous profits, a
// 1/7 forbidden share, and three capacity styles — random in [0, 4] (zero
// capacities included), all above the task count, and a tight Σcap =
// tasks (the SRA completion shape). Optima are tied on most instances, so
// the scaled objective is compared, not the assignment.
TEST(LapEquivalenceTest, CapacitatedAssignmentMatchesFlowFuzz) {
  int feasible = 0;
  int infeasible = 0;
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    Rng rng(70000 + seed);
    const int tasks = rng.NextInt(1, 14);
    const int agents = rng.NextInt(1, 9);
    const int levels = static_cast<int>(seed % 5);  // 0 = continuous
    Matrix profit(tasks, agents, kTransportForbidden);
    for (int t = 0; t < tasks; ++t) {
      for (int a = 0; a < agents; ++a) {
        if (rng.NextInt(0, 6) == 0) continue;
        profit.At(t, a) = levels == 0
                              ? rng.NextDouble()
                              : 0.25 * rng.NextInt(0, levels - 1);
      }
    }
    std::vector<int> capacity(agents, 0);
    switch (seed / 5 % 3) {
      case 0:
        for (int& c : capacity) c = rng.NextInt(0, 4);
        break;
      case 1:
        for (int& c : capacity) c = tasks + rng.NextInt(1, 3);
        break;
      case 2:
        for (int t = 0; t < tasks; ++t) ++capacity[rng.NextInt(0, agents - 1)];
        break;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto flow = SolveTransportation(profit, capacity);
    auto jv = SolveCapacitatedAssignment(profit, capacity);
    if (!flow.ok()) {
      ASSERT_EQ(flow.status().code(), StatusCode::kInfeasible);
      ASSERT_FALSE(jv.ok());
      EXPECT_EQ(jv.status().code(), StatusCode::kInfeasible);
      ++infeasible;
      continue;
    }
    ASSERT_TRUE(jv.ok()) << jv.status().ToString();
    ExpectValidAssignment(profit, capacity, jv->task_to_agent);
    EXPECT_EQ(ScaledObjective(profit, flow->task_to_agent),
              ScaledObjective(profit, jv->task_to_agent));
    ++feasible;
  }
  // Both verdicts must actually be exercised.
  EXPECT_GT(feasible, 300);
  EXPECT_GT(infeasible, 100);
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
  // Ties go to the lowest agent index: three identical agents, one slot
  // each on the first two.
  auto tied = SolveCapacitatedAssignment(Matrix(2, 3, 0.5), {1, 1, 1});
  ASSERT_TRUE(tied.ok());
  EXPECT_EQ(tied->task_to_agent, (std::vector<int>{0, 1}));
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

}  // namespace
}  // namespace wgrap::la

namespace wgrap::core {
namespace {

Instance PoolInstance(int reviewers, int papers, int group_size,
                      uint64_t seed, int topics = 12) {
  data::SyntheticDblpConfig config;
  config.num_topics = topics;
  config.seed = seed;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  EXPECT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  auto instance = Instance::FromDataset(*dataset, params);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

std::vector<std::vector<int>> Groups(const Assignment& assignment,
                                     const Instance& instance) {
  std::vector<std::vector<int>> groups(instance.num_papers());
  for (int p = 0; p < instance.num_papers(); ++p) {
    groups[p] = assignment.GroupFor(p);
  }
  return groups;
}

TEST(LapEquivalenceTest, SdgaStagesAreBackendAndThreadInvariant) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Instance instance = PoolInstance(18, 14, 3, seed);
    SdgaOptions flow_options;
    flow_options.backend = LapBackend::kMinCostFlow;
    auto flow = SolveCraSdga(instance, flow_options);
    ASSERT_TRUE(flow.ok()) << flow.status().ToString();
    SdgaOptions hungarian_options;
    hungarian_options.num_threads = 1;
    auto hungarian1 = SolveCraSdga(instance, hungarian_options);
    ASSERT_TRUE(hungarian1.ok())
        << "seed " << seed << ": " << hungarian1.status().ToString();
    hungarian_options.num_threads = 8;
    auto hungarian8 = SolveCraSdga(instance, hungarian_options);
    ASSERT_TRUE(hungarian8.ok());
    // Hard determinism contract: bit-identical at any thread count.
    EXPECT_EQ(Groups(*hungarian1, instance), Groups(*hungarian8, instance))
        << "seed " << seed;
    EXPECT_EQ(hungarian1->TotalScore(), hungarian8->TotalScore());
    // Both engines solve every stage to the same optimum; late stages can
    // have tied optima (many zero marginal gains), where the chosen argmax
    // may legitimately differ — compare stage-wise totals, same caveat as
    // CraSdgaTest.BackendsAgreeOnObjective.
    EXPECT_NEAR(flow->TotalScore(), hungarian1->TotalScore(), 1e-6)
        << "seed " << seed;
    EXPECT_TRUE(hungarian1->ValidateComplete().ok());
  }
}

// Late SDGA/SRA stages routinely contain tied stage optima (saturated
// groups leave many reviewers at identical marginal gain), and a tie
// resolved differently sends the two refinement trajectories apart — so
// full-pipeline group equality only holds on tie-free instances. This
// seed is verified tie-free; the LAP-level tests above carry the exact
// cross-backend guarantee in general.
TEST(LapEquivalenceTest, SdgaSraPipelineIsBackendInvariant) {
  Instance instance = PoolInstance(15, 12, 3, 77, /*topics=*/30);
  SraOptions sra;
  sra.max_iterations = 25;
  SdgaOptions sdga_flow;
  sdga_flow.backend = LapBackend::kMinCostFlow;
  SraOptions sra_flow = sra;
  sra_flow.backend = LapBackend::kMinCostFlow;
  auto flow = SolveCraSdgaSra(instance, sdga_flow, sra_flow);
  ASSERT_TRUE(flow.ok());
  // The default engine (capacity-aware Hungarian) lands on the same
  // groups as well.
  auto hungarian = SolveCraSdgaSra(instance, {}, sra);
  ASSERT_TRUE(hungarian.ok()) << hungarian.status().ToString();
  EXPECT_EQ(Groups(*flow, instance), Groups(*hungarian, instance));
  // Identical groups, but each pipeline accumulated its running score
  // through its own Add/Remove history — equal within fp noise only.
  EXPECT_NEAR(flow->TotalScore(), hungarian->TotalScore(), 1e-9);
}

TEST(LapEquivalenceTest, IlpArapAuctionBackendMatchesFlow) {
  Instance instance = PoolInstance(12, 9, 3, 41);
  auto flow = SolveCraIlpArap(instance);
  ASSERT_TRUE(flow.ok());
  IlpArapOptions auction_options;
  auction_options.backend = LapBackend::kAuction;
  auction_options.num_threads = 1;
  auto auction = SolveCraIlpArap(instance, auction_options);
  ASSERT_TRUE(auction.ok()) << auction.status().ToString();
  // The auction's bidding fans out over the pool; its groups are
  // bit-identical at any thread count.
  auction_options.num_threads = 8;
  auto auction8 = SolveCraIlpArap(instance, auction_options);
  ASSERT_TRUE(auction8.ok()) << auction8.status().ToString();
  EXPECT_EQ(Groups(*auction, instance), Groups(*auction8, instance));
  // This pool contains an exact score tie (reviewers 1 and 2 score paper
  // 1 identically), and the forward-reverse auction and the flow backend
  // legitimately pick different members of the tied optimum — the seed-era
  // version of this test only saw identical groups because demand > 1
  // auctions always fell back to the flow solver. Compare objectives and
  // completeness instead; AdversarialDemandInstancesNeedNoFallback pins
  // the scaled objective exactly across a whole sweep.
  EXPECT_NEAR(flow->TotalScore(), auction->TotalScore(), 1e-9);
  EXPECT_TRUE(auction->ValidateComplete().ok());
}

}  // namespace
}  // namespace wgrap::core
