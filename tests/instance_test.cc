// Instance construction tests: validation, default workload (⌈P·δp/R⌉),
// capacity feasibility, COI registration, pair scores.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/instance.h"
#include "data/synthetic_dblp.h"

namespace wgrap::core {
namespace {

data::RapDataset TinyDataset() {
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r0", {0.1, 0.5, 0.4}, 10});
  dataset.reviewers.push_back({"r1", {1.0, 0.0, 0.0}, 20});
  dataset.reviewers.push_back({"r2", {0.0, 1.0, 0.0}, 30});
  dataset.papers.push_back({"p0", {0.6, 0.0, 0.4}, "V"});
  dataset.papers.push_back({"p1", {0.5, 0.5, 0.0}, "V"});
  dataset.papers.push_back({"p2", {0.5, 0.5, 0.0}, "V"});
  return dataset;
}

TEST(InstanceTest, MinimalWorkloadFormula) {
  EXPECT_EQ(Instance::MinimalWorkload(617, 105, 3), 18);  // ceil(1851/105)
  EXPECT_EQ(Instance::MinimalWorkload(545, 203, 3), 9);   // ceil(1635/203)
  EXPECT_EQ(Instance::MinimalWorkload(10, 10, 1), 1);
  EXPECT_EQ(Instance::MinimalWorkload(0, 5, 3), 0);
}

TEST(InstanceTest, DefaultWorkloadIsMinimal) {
  InstanceParams params;
  params.group_size = 2;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->reviewer_workload(), 2);  // ceil(3*2/3)
  EXPECT_EQ(instance->num_papers(), 3);
  EXPECT_EQ(instance->num_reviewers(), 3);
  EXPECT_EQ(instance->num_topics(), 3);
}

TEST(InstanceTest, ExplicitWorkloadRespected) {
  InstanceParams params;
  params.group_size = 2;
  params.reviewer_workload = 3;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->reviewer_workload(), 3);
}

TEST(InstanceTest, InsufficientCapacityRejected) {
  InstanceParams params;
  params.group_size = 2;
  params.reviewer_workload = 1;  // 3 < 6 required
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, GroupSizeLargerThanPoolRejected) {
  InstanceParams params;
  params.group_size = 4;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  EXPECT_FALSE(instance.ok());
}

TEST(InstanceTest, BadGroupSizeRejected) {
  InstanceParams params;
  params.group_size = 0;
  EXPECT_FALSE(Instance::FromDataset(TinyDataset(), params).ok());
}

// A negative δr is rejected, not read as the dynamic-δr sentinel 0.
TEST(InstanceTest, NegativeWorkloadRejected) {
  InstanceParams params;
  params.group_size = 2;
  params.reviewer_workload = -3;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(instance.status().message().find("reviewer_workload"),
            std::string::npos);
}

TEST(InstanceTest, InvalidDatasetRejected) {
  auto dataset = TinyDataset();
  dataset.papers[0].topics = {0.0, 0.0, 0.0};  // zero mass
  InstanceParams params;
  params.group_size = 1;
  EXPECT_FALSE(Instance::FromDataset(dataset, params).ok());
}

// Every per-paper quantity assumes P > 0; a reviewer-only dataset is an
// InvalidArgument, not an instance that aborts its first solve.
TEST(InstanceTest, ZeroPapersRejected) {
  auto dataset = TinyDataset();
  dataset.papers.clear();
  InstanceParams params;
  params.group_size = 2;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(instance.status().message().find("no papers"), std::string::npos);
}

// The one parser of the instance parameters' spellings that every front
// end (wgrap_cli flags, the line protocol's open) calls.
TEST(InstanceTest, ParsesParameterSpellings) {
  for (const ScoringFunction f :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
        ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct}) {
    auto parsed = ParseScoringFunction(ScoringFunctionName(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, f);
  }
  const auto bad = ParseScoringFunction("cX");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "unknown scoring 'cX' (use c, cR, cP, cD)");
  EXPECT_FALSE(*ParseTopicsMode("dense"));
  EXPECT_TRUE(*ParseTopicsMode("sparse"));
  EXPECT_EQ(ParseTopicsMode("Sparse").status().message(),
            "unknown topics mode 'Sparse' (use dense or sparse)");
}

TEST(InstanceTest, PairScoreMatchesDefinitionOne) {
  InstanceParams params;
  params.group_size = 2;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_TRUE(instance.ok());
  // c(r0, p0) = min(.1,.6)+min(.5,0)+min(.4,.4) = 0.5, mass 1.0.
  EXPECT_NEAR(instance->PairScore(0, 0), 0.5, 1e-12);
  // c(r1, p1) = min(1,.5)+0+0 = 0.5.
  EXPECT_NEAR(instance->PairScore(1, 1), 0.5, 1e-12);
}

TEST(InstanceTest, PaperMassStored) {
  auto dataset = TinyDataset();
  dataset.papers[0].topics = {0.3, 0.0, 0.3};  // mass 0.6
  InstanceParams params;
  params.group_size = 2;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  EXPECT_NEAR(instance->PaperMass(0), 0.6, 1e-12);
  // Score renormalized by 0.6: min(.1,.3)+min(.4,.3) = 0.4 / 0.6.
  EXPECT_NEAR(instance->PairScore(0, 0), 0.4 / 0.6, 1e-12);
}

TEST(InstanceTest, ConflictRegistrationAndLookup) {
  InstanceParams params;
  params.group_size = 2;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE(instance->IsConflict(1, 2));
  instance->AddConflict(1, 2);
  EXPECT_TRUE(instance->IsConflict(1, 2));
  EXPECT_FALSE(instance->IsConflict(2, 1));
}

TEST(InstanceTest, ScoringFunctionPropagates) {
  InstanceParams params;
  params.group_size = 2;
  params.scoring = ScoringFunction::kDotProduct;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->scoring(), ScoringFunction::kDotProduct);
  // cD(r1, p0) = 1.0 * 0.6 = 0.6.
  EXPECT_NEAR(instance->PairScore(1, 0), 0.6, 1e-12);
}

// TopicRanking(t) followed by the zero-valued reviewers in id order is
// Algorithm 1's sorted list SL_t: a stable sort of all reviewer ids by
// value on t, descending (so equal values keep id order). Checked on the
// dense instance and on its CSR twin.
TEST(InstanceTest, TopicRankingIsAStableSortOfTheDenseColumn) {
  data::SyntheticDblpConfig config;
  config.num_topics = 12;
  config.topic_density = 0.25;  // zero tails on every topic
  config.seed = 5;
  auto dataset = data::GenerateReviewerPool(40, 2, config);
  ASSERT_TRUE(dataset.ok());
  // Duplicated profiles force runs of equal values.
  for (int r = 30; r < 40; ++r) {
    dataset->reviewers[r].topics = dataset->reviewers[r - 30].topics;
  }
  InstanceParams params;
  params.group_size = 3;
  auto built = Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(built.ok());
  Instance dense = *built;
  dense.DropSparseTopics();
  Instance csr = *built;
  csr.BuildSparseTopics();
  const int R = dense.num_reviewers();
  for (const Instance* instance : {&dense, &csr}) {
    for (int t = 0; t < dense.num_topics(); ++t) {
      std::vector<int> order(R);
      for (int r = 0; r < R; ++r) order[r] = r;
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return dense.ReviewerVector(a)[t] > dense.ReviewerVector(b)[t];
      });
      const Instance::RankedList ranked = instance->TopicRanking(t);
      std::vector<int> list(ranked.ids, ranked.ids + ranked.size);
      for (int r = 0; r < R; ++r) {
        if (dense.ReviewerVector(r)[t] == 0.0) list.push_back(r);
      }
      EXPECT_EQ(list, order) << "topic " << t;
    }
  }
}

TEST(InstanceTest, FromGeneratedDatasetAtScale) {
  data::SyntheticDblpConfig config;
  auto dataset = data::GenerateConferenceDataset(data::Area::kDatabases, 2008,
                                                 config);
  ASSERT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = 3;
  auto instance = Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->reviewer_workload(), 18);  // Sec. 5.2 minimal workload
}

}  // namespace
}  // namespace wgrap::core
