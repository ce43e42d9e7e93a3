// Transportation wrapper tests: equivalence with Hungarian when all
// capacities are 1, capacity handling, demand > 1, forbidden pairs and
// infeasibility detection.
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "la/hungarian.h"
#include "la/transportation.h"

namespace wgrap::la {
namespace {

TEST(TransportationTest, SimpleTwoByTwo) {
  Matrix profit(2, 2);
  profit.At(0, 0) = 0.9;
  profit.At(0, 1) = 0.1;
  profit.At(1, 0) = 0.8;
  profit.At(1, 1) = 0.7;
  auto result = SolveTransportation(profit, {1, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 0);
  EXPECT_EQ(result->task_to_agent[1], 1);
  EXPECT_NEAR(result->profit, 1.6, 1e-9);
}

TEST(TransportationTest, CapacityAllowsReuse) {
  // One strong agent with capacity 2 should take both tasks.
  Matrix profit(2, 2);
  profit.At(0, 0) = 1.0;
  profit.At(0, 1) = 0.1;
  profit.At(1, 0) = 1.0;
  profit.At(1, 1) = 0.1;
  auto result = SolveTransportation(profit, {2, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 0);
  EXPECT_EQ(result->task_to_agent[1], 0);
}

TEST(TransportationTest, CapacityForcesSpread) {
  Matrix profit(2, 2);
  profit.At(0, 0) = 1.0;
  profit.At(0, 1) = 0.9;
  profit.At(1, 0) = 1.0;
  profit.At(1, 1) = 0.1;
  // Agent 0 can take only one; the optimal split gives task 0 to agent 1.
  auto result = SolveTransportation(profit, {1, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 1);
  EXPECT_EQ(result->task_to_agent[1], 0);
  EXPECT_NEAR(result->profit, 1.9, 1e-9);
}

TEST(TransportationTest, InsufficientCapacityInfeasible) {
  Matrix profit(3, 2, 1.0);
  auto result = SolveTransportation(profit, {1, 1});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(TransportationTest, ForbiddenPairAvoided) {
  Matrix profit(2, 2, 0.5);
  profit.At(0, 0) = kTransportForbidden;
  auto result = SolveTransportation(profit, {1, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 1);
}

TEST(TransportationTest, AllForbiddenForTaskInfeasible) {
  Matrix profit(1, 2, kTransportForbidden);
  auto result = SolveTransportation(profit, {1, 1});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(TransportationTest, DemandAssignsDistinctAgents) {
  Matrix profit(1, 4);
  for (int a = 0; a < 4; ++a) profit.At(0, a) = 0.1 * (a + 1);
  auto result = SolveTransportationWithDemand(profit, {1, 1, 1, 1}, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->task_to_agents[0].size(), 3u);
  // Best three agents: 1, 2, 3.
  EXPECT_NEAR(result->profit, 0.2 + 0.3 + 0.4, 1e-9);
}

TEST(TransportationTest, ZeroDemandIsEmpty) {
  Matrix profit(2, 2, 1.0);
  auto result = SolveTransportationWithDemand(profit, {1, 1}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->task_to_agents[0].empty());
  EXPECT_DOUBLE_EQ(result->profit, 0.0);
}

// Regression for the int64 profit-scaling hardening: profits at the
// documented boundary still solve, anything beyond it (other than the
// forbidden marker, which is skipped before scaling) is rejected with
// kInvalidArgument instead of silently scaling into garbage.
TEST(TransportationTest, RejectsProfitsOutsideScalableRange) {
  Matrix at_boundary(1, 2, 0.5);
  at_boundary.At(0, 0) = kMaxTransportProfit;
  at_boundary.At(0, 1) = -kMaxTransportProfit;
  auto ok = SolveTransportation(at_boundary, {1, 1});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->task_to_agent[0], 0);

  for (const double bad :
       {kMaxTransportProfit * (1.0 + 1e-6), -2e6,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    Matrix profit(1, 2, 0.5);
    profit.At(0, 0) = bad;
    auto rejected = SolveTransportation(profit, {1, 1});
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
  }

  // The forbidden marker is not a profit — still accepted (skipped).
  Matrix with_forbidden(1, 2, 0.5);
  with_forbidden.At(0, 0) = kTransportForbidden;
  auto skipped = SolveTransportation(with_forbidden, {1, 1});
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped->task_to_agent[0], 1);
}

// ScaleTransportProfit is an inline truncate-and-correct formula; it must
// equal llround(p · 1e9) on the whole validated range, including the exact
// halves of the scaled value (where the rounding direction matters) and
// their nextafter neighbours.
TEST(TransportationTest, ScaleTransportProfitMatchesLlround) {
  const auto expect_llround = [](double p) {
    ASSERT_EQ(ScaleTransportProfit(p),
              std::llround(p * kTransportProfitScale))
        << std::setprecision(17) << p;
  };
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    expect_llround((2.0 * rng.NextDouble() - 1.0) * kMaxTransportProfit);
  }
  const double inf = std::numeric_limits<double>::infinity();
  int exact_halves = 0;
  for (int i = 0; i < 20000; ++i) {
    // Scaled values k + 1/2 at every magnitude up to 1e15, both signs.
    const double k = std::floor(std::pow(10.0, 15.0 * rng.NextDouble()));
    for (const double sign : {1.0, -1.0}) {
      double p = sign * (k + 0.5) / kTransportProfitScale;
      p = std::nextafter(std::nextafter(p, -inf), -inf);
      for (int step = 0; step < 5; ++step, p = std::nextafter(p, inf)) {
        const double x = std::abs(p * kTransportProfitScale);
        if (x - std::floor(x) == 0.5) ++exact_halves;
        expect_llround(p);
      }
    }
  }
  EXPECT_GT(exact_halves, 10000);
  for (const double p :
       {0.0, -0.0, 5e-10, -5e-10, 1.5e-9, -1.5e-9, 2.5e-9, -2.5e-9,
        kMaxTransportProfit, -kMaxTransportProfit,
        std::nextafter(kMaxTransportProfit, 0.0),
        std::nextafter(-kMaxTransportProfit, 0.0)}) {
    expect_llround(p);
  }
}

class TransportationVsHungarianTest : public ::testing::TestWithParam<int> {};

TEST_P(TransportationVsHungarianTest, UnitCapacitiesMatchHungarian) {
  Rng rng(3000 + GetParam());
  const int tasks = 2 + GetParam() % 4;
  const int agents = tasks + GetParam() % 3;
  Matrix profit(tasks, agents);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) profit.At(t, a) = rng.NextDouble();
  }
  auto transport = SolveTransportation(profit, std::vector<int>(agents, 1));
  auto hungarian = SolveMaxProfitAssignment(profit);
  ASSERT_TRUE(transport.ok());
  ASSERT_TRUE(hungarian.ok());
  EXPECT_NEAR(transport->profit, hungarian->objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, TransportationVsHungarianTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace wgrap::la
