// Dataset generator tests: Table 3 fidelity, vector validity, determinism,
// interdisciplinary structure, h-index scaling (Eq. 15), and the
// corpus->ATM->EM pipeline path.
#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.h"
#include "data/synthetic_dblp.h"

namespace wgrap::data {
namespace {

TEST(Table3Test, MatchesPaperCounts) {
  struct Row {
    Area area;
    int year, papers, reviewers;
  };
  const Row rows[] = {
      {Area::kDataMining, 2008, 545, 203}, {Area::kDataMining, 2009, 648, 145},
      {Area::kDatabases, 2008, 617, 105},  {Area::kDatabases, 2009, 513, 90},
      {Area::kTheory, 2008, 281, 228},     {Area::kTheory, 2009, 226, 222},
  };
  for (const Row& row : rows) {
    auto stats = GetTable3Stats(row.area, row.year);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->num_papers, row.papers)
        << AreaCode(row.area) << row.year;
    EXPECT_EQ(stats->num_reviewers, row.reviewers)
        << AreaCode(row.area) << row.year;
  }
}

TEST(Table3Test, RejectsUnknownYear) {
  EXPECT_FALSE(GetTable3Stats(Area::kDatabases, 2010).ok());
}

TEST(AreaCodeTest, PaperShorthand) {
  EXPECT_EQ(AreaCode(Area::kDataMining), "DM");
  EXPECT_EQ(AreaCode(Area::kDatabases), "DB");
  EXPECT_EQ(AreaCode(Area::kTheory), "T");
}

TEST(SyntheticDblpTest, DatasetMatchesTable3Scale) {
  SyntheticDblpConfig config;
  auto dataset = GenerateConferenceDataset(Area::kDatabases, 2008, config);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->num_papers(), 617);
  EXPECT_EQ(dataset->num_reviewers(), 105);
  EXPECT_EQ(dataset->num_topics, 30);
  EXPECT_TRUE(dataset->Validate().ok());
}

TEST(SyntheticDblpTest, VectorsAreNormalized) {
  SyntheticDblpConfig config;
  auto dataset = GenerateConferenceDataset(Area::kTheory, 2009, config);
  ASSERT_TRUE(dataset.ok());
  for (const auto& r : dataset->reviewers) {
    double total = 0.0;
    for (double w : r.topics) total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (const auto& p : dataset->papers) {
    double total = 0.0;
    for (double w : p.topics) total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(SyntheticDblpTest, DeterministicForSeed) {
  SyntheticDblpConfig config;
  config.seed = 99;
  auto a = GenerateConferenceDataset(Area::kDataMining, 2008, config);
  auto b = GenerateConferenceDataset(Area::kDataMining, 2008, config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < a->num_reviewers(); ++i) {
    for (int t = 0; t < a->num_topics; ++t) {
      ASSERT_DOUBLE_EQ(a->reviewers[i].topics[t], b->reviewers[i].topics[t]);
    }
  }
}

TEST(SyntheticDblpTest, DifferentSeedsDiffer) {
  SyntheticDblpConfig a_config, b_config;
  b_config.seed = a_config.seed + 1;
  auto a = GenerateConferenceDataset(Area::kDatabases, 2008, a_config);
  auto b = GenerateConferenceDataset(Area::kDatabases, 2008, b_config);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (int t = 0; t < a->num_topics && !any_diff; ++t) {
    any_diff = a->reviewers[0].topics[t] != b->reviewers[0].topics[t];
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticDblpTest, AreasConcentrateOnDifferentTopics) {
  SyntheticDblpConfig config;
  auto dm = GenerateConferenceDataset(Area::kDataMining, 2008, config);
  auto th = GenerateConferenceDataset(Area::kTheory, 2008, config);
  ASSERT_TRUE(dm.ok() && th.ok());
  const int T = dm->num_topics;
  std::vector<double> dm_mean(T, 0.0), th_mean(T, 0.0);
  for (const auto& r : dm->reviewers) {
    for (int t = 0; t < T; ++t) dm_mean[t] += r.topics[t];
  }
  for (const auto& r : th->reviewers) {
    for (int t = 0; t < T; ++t) th_mean[t] += r.topics[t];
  }
  // Mass in the first third of topics should be DM-dominated, last third
  // Theory-dominated.
  double dm_low = 0, dm_high = 0, th_low = 0, th_high = 0;
  for (int t = 0; t < T / 3; ++t) {
    dm_low += dm_mean[t] / dm->num_reviewers();
    th_low += th_mean[t] / th->num_reviewers();
  }
  for (int t = 2 * T / 3; t < T; ++t) {
    dm_high += dm_mean[t] / dm->num_reviewers();
    th_high += th_mean[t] / th->num_reviewers();
  }
  EXPECT_GT(dm_low, th_low * 2);
  EXPECT_GT(th_high, dm_high * 2);
}

TEST(SyntheticDblpTest, ReviewerPoolSpansSizes) {
  SyntheticDblpConfig config;
  auto pool = GenerateReviewerPool(1002, 20, config);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->num_reviewers(), 1002);
  EXPECT_EQ(pool->num_papers(), 20);
  EXPECT_TRUE(pool->Validate().ok());
}

TEST(SyntheticDblpTest, PoolRejectsBadSizes) {
  SyntheticDblpConfig config;
  EXPECT_FALSE(GenerateReviewerPool(0, 5, config).ok());
  EXPECT_FALSE(GenerateReviewerPool(10, -1, config).ok());
  for (int topics : {0, -3}) {
    config.num_topics = topics;
    const auto pool = GenerateReviewerPool(3, 2, config);
    ASSERT_FALSE(pool.ok()) << topics;
    EXPECT_EQ(pool.status().code(), StatusCode::kInvalidArgument);
  }
  config.num_topics = 1;  // a one-topic pool stays valid
  EXPECT_TRUE(GenerateReviewerPool(3, 2, config).ok());
}

TEST(HIndexScalingTest, MapsIntoOneToTwo) {
  RapDataset dataset;
  dataset.num_topics = 2;
  dataset.reviewers.push_back({"low", {0.5, 0.5}, 5});
  dataset.reviewers.push_back({"mid", {0.5, 0.5}, 30});
  dataset.reviewers.push_back({"high", {0.5, 0.5}, 55});
  ScaleReviewersByHIndex(&dataset);
  EXPECT_NEAR(dataset.reviewers[0].topics[0], 0.5, 1e-12);   // x1.0
  EXPECT_NEAR(dataset.reviewers[1].topics[0], 0.75, 1e-12);  // x1.5
  EXPECT_NEAR(dataset.reviewers[2].topics[0], 1.0, 1e-12);   // x2.0
}

TEST(HIndexScalingTest, UniformHIndicesNoChange) {
  RapDataset dataset;
  dataset.num_topics = 1;
  dataset.reviewers.push_back({"a", {0.7}, 10});
  dataset.reviewers.push_back({"b", {0.3}, 10});
  ScaleReviewersByHIndex(&dataset);
  EXPECT_NEAR(dataset.reviewers[0].topics[0], 0.7, 1e-12);
  EXPECT_NEAR(dataset.reviewers[1].topics[0], 0.3, 1e-12);
}

TEST(AtmPipelineTest, ProducesValidScaledDownDataset) {
  SyntheticDblpConfig config;
  config.num_topics = 10;  // keep the Gibbs sampler fast in tests
  auto dataset = GenerateDatasetViaAtm(Area::kDatabases, 2008, config,
                                       /*scale_divisor=*/12);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_TRUE(dataset->Validate().ok());
  EXPECT_GE(dataset->num_reviewers(), 8);
  EXPECT_GE(dataset->num_papers(), 10);
  EXPECT_EQ(dataset->num_topics, 10);
}

}  // namespace
}  // namespace wgrap::data
