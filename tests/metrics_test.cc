// Metrics tests: ideal assignment dominance, the per-paper AI routine,
// optimality/superiority ratios, lowest coverage, Fig. 7 closed forms, and
// the case-study report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/case_study.h"
#include "core/cra.h"
#include "core/metrics.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"

namespace wgrap::core {
namespace {

struct Fixture {
  data::RapDataset dataset;
  Instance instance;
};

Fixture MakeFixture(int reviewers, int papers, int group_size, uint64_t seed) {
  data::SyntheticDblpConfig config;
  config.num_topics = 8;
  config.seed = seed;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  EXPECT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  auto instance = Instance::FromDataset(*dataset, params);
  EXPECT_TRUE(instance.ok());
  return Fixture{std::move(dataset).value(), std::move(instance).value()};
}

TEST(IdealAssignmentTest, DominatesEveryFeasibleSolver) {
  Fixture f = MakeFixture(10, 8, 3, 91);
  auto ideal = BuildIdealAssignment(f.instance);
  ASSERT_TRUE(ideal.ok());
  auto greedy = SolveCraGreedy(f.instance);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(greedy.ok() && sdga.ok());
  EXPECT_GE(ideal->TotalScore(), greedy->TotalScore() - 1e-9);
  EXPECT_GE(ideal->TotalScore(), sdga->TotalScore() - 1e-9);
  // Per-paper: the ideal group is at least as good as any feasible group.
  for (int p = 0; p < f.instance.num_papers(); ++p) {
    EXPECT_GE(ideal->PaperScore(p), sdga->PaperScore(p) - 1e-9);
  }
}

TEST(IdealAssignmentTest, IgnoresWorkloads) {
  // One super-expert: the ideal assignment reuses them for every paper.
  data::RapDataset dataset;
  dataset.num_topics = 2;
  dataset.reviewers.push_back({"star", {0.5, 0.5}, 1});
  dataset.reviewers.push_back({"weak", {0.98, 0.02}, 1});
  for (int i = 0; i < 4; ++i) {
    dataset.papers.push_back({"p", {0.5, 0.5}, "V"});
  }
  InstanceParams params;
  params.group_size = 1;
  params.reviewer_workload = 2;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  auto ideal = BuildIdealAssignment(*instance);
  ASSERT_TRUE(ideal.ok());
  EXPECT_EQ(ideal->LoadOf(0), 4);  // far above δr = 2
  EXPECT_NEAR(ideal->TotalScore(), 4.0, 1e-9);
}

TEST(IdealAssignmentTest, PerPaperFoldMatchesTheWholeBuildBitForBit) {
  // Each paper re-derived on its own scratch assignment, in reverse order
  // (as a store refreshing stale papers one at a time would), must give
  // BuildIdealAssignment's groups, and the (paper, pick) left fold of the
  // recorded gains its exact total bits.
  for (const bool sparse : {false, true}) {
    const ScopedTopicKernel kernel(sparse);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      FuzzInstanceConfig config;
      config.reviewers = 14;
      config.papers = 9;
      config.num_topics = 12;
      config.group_size = 1 + static_cast<int>(seed % 3);
      config.conflict_rate = 0.2;
      config.with_bids = seed % 2 == 0;
      config.seed = seed;
      auto instance = MakeFuzzInstance(config);
      ASSERT_TRUE(instance.ok()) << instance.status().ToString();
      auto ideal = BuildIdealAssignment(*instance);
      ASSERT_TRUE(ideal.ok()) << ideal.status().ToString();

      const int P = instance->num_papers();
      const int dp = instance->group_size();
      std::vector<double> gains(static_cast<size_t>(P) * dp);
      for (int p = P - 1; p >= 0; --p) {
        Assignment scratch(&*instance);
        ASSERT_TRUE(AddIdealPicks(p, &scratch, &gains[p * dp]).ok());
        EXPECT_EQ(scratch.GroupFor(p), ideal->GroupFor(p))
            << "sparse " << sparse << " seed " << seed << " paper " << p;
      }
      double fold = 0.0;
      for (double gain : gains) fold += gain;
      const double total = ideal->TotalScore();
      EXPECT_EQ(std::memcmp(&fold, &total, sizeof(double)), 0)
          << "sparse " << sparse << " seed " << seed << ": " << fold
          << " vs " << total;
    }
  }
}

TEST(IdealAssignmentTest, PerPaperPicksReportAnAllConflictPaper) {
  FuzzInstanceConfig config;
  config.reviewers = 6;
  config.papers = 4;
  config.group_size = 2;
  auto instance = MakeFuzzInstance(config);
  ASSERT_TRUE(instance.ok());
  for (int r = 1; r < config.reviewers; ++r) {
    instance->AddConflict(r, 2);
  }
  Assignment scratch(&*instance);
  std::vector<double> gains(2);
  EXPECT_TRUE(AddIdealPicks(1, &scratch, gains.data()).ok());
  EXPECT_EQ(AddIdealPicks(2, &scratch, gains.data()).code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(BuildIdealAssignment(*instance).status().code(),
            StatusCode::kInfeasible);
}

// The per-pair AI pick loop AddIdealPicks ran before the row kernel, kept
// verbatim as the reference the row-kernel picks must reproduce.
Status ReferenceIdealPicks(int paper, Assignment* ideal, double* gains) {
  const Instance& instance = ideal->instance();
  const int R = instance.num_reviewers();
  for (int pick = 0; pick < instance.group_size(); ++pick) {
    int best = -1;
    double best_gain = -1.0;
    for (int r = 0; r < R; ++r) {
      if (ideal->Contains(paper, r) || instance.IsConflict(r, paper)) continue;
      const double gain = ideal->MarginalGain(paper, r);
      if (gain > best_gain) {
        best_gain = gain;
        best = r;
      }
    }
    if (best < 0) return Status::Infeasible("not enough eligible reviewers");
    WGRAP_RETURN_IF_ERROR(ideal->AddUnchecked(paper, best));
    gains[pick] = best_gain;
  }
  return Status::OK();
}

// Runs both pickers on fresh scratch assignments for every paper and
// requires the same verdict, the same reviewers and the same gain bits.
void ExpectPicksMatchReference(const Instance& instance,
                               const std::string& what) {
  const int dp = instance.group_size();
  for (int p = 0; p < instance.num_papers(); ++p) {
    Assignment row_scratch(&instance);
    Assignment ref_scratch(&instance);
    std::vector<double> row_gains(dp, -1.0);
    std::vector<double> ref_gains(dp, -1.0);
    const Status row = AddIdealPicks(p, &row_scratch, row_gains.data());
    const Status ref = ReferenceIdealPicks(p, &ref_scratch, ref_gains.data());
    ASSERT_EQ(row.code(), ref.code()) << what << " paper " << p;
    EXPECT_EQ(row_scratch.GroupFor(p), ref_scratch.GroupFor(p))
        << what << " paper " << p;
    EXPECT_EQ(std::memcmp(row_gains.data(), ref_gains.data(),
                          sizeof(double) * dp),
              0)
        << what << " paper " << p;
  }
}

TEST(IdealAssignmentTest, RowKernelPicksMatchPerPairReference) {
  // Dense and sparse views, all four scorings, bids, and COIs dense
  // enough (0.6 over 10 reviewers at δp = 3) that some papers come out
  // kInfeasible and the verdicts are compared too.
  constexpr ScoringFunction kScorings[] = {
      ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
      ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct};
  int infeasible = 0;
  for (const bool sparse : {false, true}) {
    const ScopedTopicKernel kernel(sparse);
    for (const ScoringFunction f : kScorings) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        FuzzInstanceConfig config;
        config.reviewers = seed <= 2 ? 14 : 10;
        config.papers = 9;
        config.num_topics = 12;
        config.group_size = seed <= 2 ? 2 : 3;
        config.scoring = f;
        config.conflict_rate = seed <= 2 ? 0.2 : 0.6;
        config.with_bids = seed % 2 == 0;
        config.seed = seed;
        // The tight COIs leave too little capacity for FromDataset's
        // workload check, so the instance takes them after the build.
        auto dataset = MakeFuzzDataset(config);
        ASSERT_TRUE(dataset.ok());
        auto instance = Instance::FromDataset(*dataset, MakeFuzzParams(config));
        ASSERT_TRUE(instance.ok()) << instance.status().ToString();
        ASSERT_TRUE(PerturbInstance(config, &*instance).ok());
        ExpectPicksMatchReference(
            *instance, ScoringFunctionName(f) +
                           (sparse ? " sparse" : " dense") + " seed " +
                           std::to_string(seed));
        if (!BuildIdealAssignment(*instance).ok()) ++infeasible;
      }
    }
  }
  EXPECT_GT(infeasible, 0) << "no case exercised the kInfeasible verdict";
}

TEST(IdealAssignmentTest, TiedGainsPickTheLowestIndex) {
  // Reviewers 1, 3 and 4 are identical and the best match; 0 and 2 are
  // weaker. Pick 1 ties three ways and goes to 1 (to 3 on paper q, where
  // reviewer 1 is a COI); the twins then add nothing, so pick 2 is
  // reviewer 0, and pick 3 is a three-way tie at gain 0 among 2 and the
  // remaining twins, which reviewer 2 wins by index.
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"weak", {0.2, 0.0, 0.8}, 1});
  dataset.reviewers.push_back({"twin", {0.5, 0.5, 0.0}, 1});
  dataset.reviewers.push_back({"weak2", {0.0, 0.3, 0.7}, 1});
  dataset.reviewers.push_back({"twin", {0.5, 0.5, 0.0}, 1});
  dataset.reviewers.push_back({"twin", {0.5, 0.5, 0.0}, 1});
  dataset.papers.push_back({"p", {0.45, 0.45, 0.1}, "V"});
  dataset.papers.push_back({"q", {0.45, 0.45, 0.1}, "V"});
  for (const ScoringFunction f :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kDotProduct}) {
    for (const bool sparse : {false, true}) {
      InstanceParams params;
      params.group_size = 3;
      params.reviewer_workload = 2;
      params.scoring = f;
      auto instance = Instance::FromDataset(dataset, params);
      ASSERT_TRUE(instance.ok());
      if (sparse) {
        instance->BuildSparseTopics();
      } else {
        instance->DropSparseTopics();
      }
      instance->AddConflict(/*reviewer=*/1, /*paper=*/1);
      const std::string what =
          ScoringFunctionName(f) + (sparse ? " sparse" : " dense");
      ExpectPicksMatchReference(*instance, what);
      auto ideal = BuildIdealAssignment(*instance);
      ASSERT_TRUE(ideal.ok());
      EXPECT_EQ(ideal->GroupFor(0), (std::vector<int>{1, 0, 2})) << what;
      EXPECT_EQ(ideal->GroupFor(1), (std::vector<int>{3, 0, 2})) << what;
    }
  }
}

TEST(MetricsTest, OptimalityRatioInUnitRange) {
  Fixture f = MakeFixture(10, 8, 3, 92);
  auto ideal = BuildIdealAssignment(f.instance);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(ideal.ok() && sdga.ok());
  const double ratio = OptimalityRatio(*sdga, *ideal);
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0 + 1e-12);
  EXPECT_DOUBLE_EQ(OptimalityRatio(*ideal, *ideal), 1.0);
}

TEST(MetricsTest, SuperiorityRatioReflexive) {
  Fixture f = MakeFixture(8, 6, 2, 93);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  const Superiority s = SuperiorityRatio(*sdga, *sdga);
  EXPECT_DOUBLE_EQ(s.better_or_equal, 1.0);
  EXPECT_DOUBLE_EQ(s.tie, 1.0);
}

TEST(MetricsTest, SuperiorityOfIdealIsTotal) {
  Fixture f = MakeFixture(8, 6, 2, 94);
  auto ideal = BuildIdealAssignment(f.instance);
  auto greedy = SolveCraGreedy(f.instance);
  ASSERT_TRUE(ideal.ok() && greedy.ok());
  EXPECT_DOUBLE_EQ(SuperiorityRatio(*ideal, *greedy).better_or_equal, 1.0);
}

TEST(MetricsTest, LowestCoverageIsMinimum) {
  Fixture f = MakeFixture(8, 6, 2, 95);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  const double lowest = LowestCoverage(*sdga);
  for (int p = 0; p < f.instance.num_papers(); ++p) {
    EXPECT_LE(lowest, sdga->PaperScore(p) + 1e-12);
  }
  EXPECT_GE(lowest, 0.0);
}

TEST(Fig7ClosedFormsTest, MatchPaperValues) {
  // Integral case: 1 - (1 - 1/δp)^δp; general: exponent δp - 1.
  EXPECT_NEAR(SdgaRatioIntegral(2), 0.75, 1e-12);
  EXPECT_NEAR(SdgaRatioGeneral(2), 0.5, 1e-12);       // Theorem 2 floor
  EXPECT_NEAR(SdgaRatioGeneral(3), 5.0 / 9.0, 1e-12); // quoted in Sec. 4.3
  EXPECT_NEAR(SdgaRatioGeneral(5), 0.5904, 1e-4);     // quoted in Sec. 4.3
  // Monotone increasing in δp, approaching 1 - 1/e.
  for (int dp = 2; dp < 10; ++dp) {
    EXPECT_LT(SdgaRatioGeneral(dp), SdgaRatioGeneral(dp + 1));
    EXPECT_GE(SdgaRatioGeneral(dp), 0.5 - 1e-12);
  }
  EXPECT_NEAR(SdgaRatioIntegral(1000), 1.0 - 1.0 / M_E, 1e-3);
}

TEST(CaseStudyTest, TopTopicsSortedByPaperWeight) {
  Fixture f = MakeFixture(6, 4, 2, 96);
  const auto top = TopTopics(f.instance, 0, 5);
  ASSERT_EQ(top.size(), 5u);
  const double* pv = f.instance.PaperVector(0);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(pv[top[i - 1]], pv[top[i]]);
  }
}

TEST(CaseStudyTest, ReportContainsPaperAndGroupRows) {
  Fixture f = MakeFixture(6, 4, 2, 97);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  const auto report = BuildCaseStudy(f.instance, *sdga, f.dataset, 0, 5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->rows.size(), 1u + 2u);  // paper + δp reviewers
  EXPECT_EQ(report->rows[0].label, "Paper");
  EXPECT_EQ(report->rows[0].weights.size(), 5u);
  EXPECT_NEAR(report->group_score, sdga->PaperScore(0), 1e-12);
  const std::string text = FormatCaseStudy(*report, "SDGA");
  EXPECT_NE(text.find("SDGA (Score ="), std::string::npos);
  EXPECT_NE(text.find("Paper"), std::string::npos);
}

// A paper id outside [0, P) is an OutOfRange answer, not an abort, and a
// top-k below 1 is InvalidArgument.
TEST(CaseStudyTest, RejectsOutOfRangePaperAndTopK) {
  Fixture f = MakeFixture(6, 4, 2, 98);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  for (int paper : {-1, 4, 999}) {
    EXPECT_EQ(BuildCaseStudy(f.instance, *sdga, f.dataset, paper, 5)
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << paper;
  }
  for (int k : {0, -3}) {
    EXPECT_EQ(
        BuildCaseStudy(f.instance, *sdga, f.dataset, 0, k).status().code(),
        StatusCode::kInvalidArgument)
        << k;
  }
}

}  // namespace
}  // namespace wgrap::core
