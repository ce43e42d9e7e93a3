// Bid-extension tests (Sec. 6 future work): validation, zero-weight
// equivalence, bid-driven tie-breaking, guarantee preservation (the bid
// term is modular), and solver feasibility with bids installed.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cra.h"
#include "core/metrics.h"
#include "fuzz_util.h"

namespace wgrap::core {
namespace {

Matrix RandomBids(int papers, int reviewers, uint64_t seed) {
  Rng rng(seed);
  Matrix bids(papers, reviewers);
  for (int p = 0; p < papers; ++p) {
    for (int r = 0; r < reviewers; ++r) bids(p, r) = rng.NextDouble();
  }
  return bids;
}

TEST(BidsTest, ValidationRejectsBadInput) {
  Instance instance = SeededPool(6, 4, 2, 1);
  EXPECT_FALSE(instance.SetBids(Matrix(3, 6), 0.5).ok());   // wrong shape
  EXPECT_FALSE(instance.SetBids(Matrix(4, 6), -0.1).ok());  // negative w
  Matrix bad(4, 6, 1.5);                                    // out of [0,1]
  EXPECT_FALSE(instance.SetBids(std::move(bad), 0.5).ok());
  EXPECT_TRUE(instance.SetBids(Matrix(4, 6, 0.5), 0.5).ok());
  EXPECT_TRUE(instance.has_bids());
}

TEST(BidsTest, ZeroWeightBehavesAsNoBids) {
  Instance instance = SeededPool(8, 6, 2, 2);
  auto baseline = SolveCraSdga(instance);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(instance.SetBids(RandomBids(6, 8, 3), 0.0).ok());
  EXPECT_FALSE(instance.has_bids());
  auto with_zero = SolveCraSdga(instance);
  ASSERT_TRUE(with_zero.ok());
  EXPECT_DOUBLE_EQ(baseline->TotalScore(), with_zero->TotalScore());
}

TEST(BidsTest, BidBonusShapesPairUtility) {
  Instance instance = SeededPool(5, 3, 2, 4);
  Matrix bids(3, 5, 0.0);
  bids(0, 2) = 1.0;
  ASSERT_TRUE(instance.SetBids(std::move(bids), 0.4).ok());
  EXPECT_NEAR(instance.BidBonus(2, 0), 0.4 * 1.0 / 2, 1e-12);
  EXPECT_NEAR(instance.BidBonus(2, 1), 0.0, 1e-12);
  EXPECT_NEAR(instance.PairUtility(2, 0),
              instance.PairScore(2, 0) + 0.2, 1e-12);
}

TEST(BidsTest, MarginalGainIncludesBonus) {
  Instance instance = SeededPool(5, 3, 2, 5);
  Matrix bids(3, 5, 0.0);
  bids(1, 0) = 1.0;
  ASSERT_TRUE(instance.SetBids(std::move(bids), 1.0).ok());
  Assignment assignment(&instance);
  const double gain = assignment.MarginalGain(1, 0);
  EXPECT_NEAR(gain, instance.PairScore(0, 1) + 0.5, 1e-12);
  // Score bookkeeping stays consistent through add/remove.
  ASSERT_TRUE(assignment.Add(1, 0).ok());
  EXPECT_NEAR(assignment.PaperScore(1), gain, 1e-12);
  ASSERT_TRUE(assignment.Remove(1, 0).ok());
  EXPECT_NEAR(assignment.PaperScore(1), 0.0, 1e-12);
}

TEST(BidsTest, TieBrokenTowardsBidder) {
  // Two identical reviewers; only one bids. Every δp=1 assignment should
  // use the bidder for the paper with the bid.
  data::RapDataset dataset;
  dataset.num_topics = 2;
  dataset.reviewers.push_back({"no-bid", {0.5, 0.5}, 1});
  dataset.reviewers.push_back({"bidder", {0.5, 0.5}, 1});
  dataset.papers.push_back({"p", {0.5, 0.5}, "V"});
  InstanceParams params;
  params.group_size = 1;
  params.reviewer_workload = 1;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  Matrix bids(1, 2, 0.0);
  bids(0, 1) = 1.0;
  ASSERT_TRUE(instance->SetBids(std::move(bids), 0.3).ok());
  auto greedy = SolveCraGreedy(*instance);
  auto sdga = SolveCraSdga(*instance);
  ASSERT_TRUE(greedy.ok() && sdga.ok());
  EXPECT_EQ(greedy->GroupFor(0)[0], 1);
  EXPECT_EQ(sdga->GroupFor(0)[0], 1);
}

TEST(BidsTest, ObjectiveStaysSubmodularUnderBids) {
  // Diminishing returns must survive the modular bid term.
  Instance instance = SeededPool(8, 5, 3, 6);
  ASSERT_TRUE(instance.SetBids(RandomBids(5, 8, 7), 0.5).ok());
  Assignment small(&instance);
  Assignment large(&instance);
  ASSERT_TRUE(large.Add(0, 1).ok());
  for (int r : {2, 3, 4, 5}) {
    const double gain_small = small.MarginalGain(0, r);
    const double gain_large = large.MarginalGain(0, r);
    EXPECT_GE(gain_small, gain_large - 1e-12) << "reviewer " << r;
  }
}

TEST(BidsTest, AllSolversFeasibleWithBids) {
  Instance instance = SeededPool(10, 8, 3, 8);
  ASSERT_TRUE(instance.SetBids(RandomBids(8, 10, 9), 0.5).ok());
  auto sm = SolveCraStableMatching(instance);
  auto ilp = SolveCraIlpArap(instance);
  auto brgg = SolveCraBrgg(instance);
  auto greedy = SolveCraGreedy(instance);
  SraOptions sra;
  sra.max_iterations = 20;
  auto sdga_sra = SolveCraSdgaSra(instance, {}, sra);
  for (const auto* result : {&sm, &ilp, &brgg, &greedy, &sdga_sra}) {
    ASSERT_TRUE(result->ok()) << result->status().ToString();
    EXPECT_TRUE((*result)->ValidateComplete().ok());
  }
}

TEST(BidsTest, HigherWeightShiftsAssignmentTowardsBids) {
  Instance instance = SeededPool(10, 8, 2, 10);
  const Matrix bids = RandomBids(8, 10, 11);
  auto bid_mass = [&](const Assignment& assignment) {
    double total = 0.0;
    for (int p = 0; p < 8; ++p) {
      for (int r : assignment.GroupFor(p)) total += bids(p, r);
    }
    return total;
  };
  Matrix copy1 = bids, copy2 = bids;
  ASSERT_TRUE(instance.SetBids(std::move(copy1), 0.01).ok());
  auto low = SolveCraGreedy(instance);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(instance.SetBids(std::move(copy2), 5.0).ok());
  auto high = SolveCraGreedy(instance);
  ASSERT_TRUE(high.ok());
  EXPECT_GE(bid_mass(*high), bid_mass(*low) - 1e-9);
}

}  // namespace
}  // namespace wgrap::core
