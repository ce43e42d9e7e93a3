// Randomized cross-solver sweeps: every CRA solver must produce a feasible,
// score-consistent assignment across a grid of instance shapes, scoring
// functions, workload regimes, COI densities and bid settings — the
// integration safety net over the whole library.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cra.h"
#include "core/jra.h"
#include "core/metrics.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"

namespace wgrap::core {
namespace {

struct FuzzCase {
  int reviewers;
  int papers;
  int group_size;
  int extra_workload;     // 0 = the tight minimal workload
  ScoringFunction scoring;
  double conflict_rate;   // fraction of (r, p) pairs conflicted
  bool with_bids;
  uint64_t seed;

  std::string Name() const {
    return "r" + std::to_string(reviewers) + "_p" + std::to_string(papers) +
           "_g" + std::to_string(group_size) + "_w" +
           std::to_string(extra_workload) + "_" +
           ScoringFunctionName(scoring) +
           (conflict_rate > 0 ? "_coi" : "") + (with_bids ? "_bids" : "") +
           "_s" + std::to_string(seed);
  }
};

class CraFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CraFuzzTest, AllSolversFeasibleAndConsistent) {
  const FuzzCase& c = GetParam();
  // Seeded construction shared with the update-equivalence fuzzer
  // (fuzz_util.h); the perturbation stream there is the one this suite has
  // always used, so the cases are unchanged.
  FuzzInstanceConfig config;
  config.reviewers = c.reviewers;
  config.papers = c.papers;
  config.num_topics = 10;
  config.group_size = c.group_size;
  config.extra_workload = c.extra_workload;
  config.scoring = c.scoring;
  config.conflict_rate = c.conflict_rate;
  config.with_bids = c.with_bids;
  config.bid_weight = 0.4;
  config.seed = c.seed;
  auto instance = MakeFuzzInstance(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  using Solver = std::function<Result<Assignment>(const Instance&)>;
  const std::vector<std::pair<std::string, Solver>> solvers = {
      {"SM", [](const Instance& i) { return SolveCraStableMatching(i); }},
      {"ILP", [](const Instance& i) { return SolveCraIlpArap(i); }},
      {"BRGG", [](const Instance& i) { return SolveCraBrgg(i); }},
      {"Greedy", [](const Instance& i) { return SolveCraGreedy(i); }},
      {"SDGA", [](const Instance& i) { return SolveCraSdga(i); }},
      {"SDGA-SRA",
       [&](const Instance& i) {
         SraOptions sra;
         sra.max_iterations = 10;
         sra.seed = c.seed;
         return SolveCraSdgaSra(i, {}, sra);
       }},
  };
  double sdga_score = -1.0, sra_score = -1.0;
  for (const auto& [name, solve] : solvers) {
    auto assignment = solve(*instance);
    ASSERT_TRUE(assignment.ok())
        << name << " on " << c.Name() << ": "
        << assignment.status().ToString();
    EXPECT_TRUE(assignment->ValidateComplete().ok()) << name;
    // Cached total must equal a from-scratch recomputation.
    double recomputed = 0.0;
    for (int p = 0; p < c.papers; ++p) {
      const auto& group = assignment->GroupFor(p);
      double paper_score = ScoreGroup(*instance, p, group);
      for (int r : group) paper_score += instance->BidBonus(r, p);
      recomputed += paper_score;
    }
    EXPECT_NEAR(assignment->TotalScore(), recomputed, 1e-8) << name;
    if (name == "SDGA") sdga_score = assignment->TotalScore();
    if (name == "SDGA-SRA") sra_score = assignment->TotalScore();
  }
  // Refinement never hurts.
  EXPECT_GE(sra_score, sdga_score - 1e-9) << c.Name();
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  uint64_t seed = 1000;
  // Shape sweep under the default scoring, tight workload.
  for (auto [r, p, g] : {std::tuple{8, 12, 3}, {12, 8, 2}, {20, 30, 3},
                         {15, 15, 4}, {6, 20, 2}}) {
    cases.push_back({r, p, g, 0, ScoringFunction::kWeightedCoverage, 0.0,
                     false, seed++});
  }
  // Scoring sweep.
  for (ScoringFunction f :
       {ScoringFunction::kReviewerCoverage, ScoringFunction::kPaperCoverage,
        ScoringFunction::kDotProduct}) {
    cases.push_back({10, 14, 3, 0, f, 0.0, false, seed++});
  }
  // Loose workload, conflicts, bids, and combinations.
  cases.push_back({10, 12, 3, 3, ScoringFunction::kWeightedCoverage, 0.0,
                   false, seed++});
  cases.push_back({12, 16, 3, 1, ScoringFunction::kWeightedCoverage, 0.1,
                   false, seed++});
  cases.push_back({12, 16, 3, 1, ScoringFunction::kWeightedCoverage, 0.0,
                   true, seed++});
  cases.push_back({14, 18, 3, 1, ScoringFunction::kWeightedCoverage, 0.08,
                   true, seed++});
  cases.push_back({14, 18, 2, 0, ScoringFunction::kDotProduct, 0.05, true,
                   seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CraFuzzTest, ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           return info.param.Name();
                         });

// JRA fuzz: BBA == BFS across shapes, scorings and COI densities.
struct JraFuzzCase {
  int reviewers;
  int group_size;
  ScoringFunction scoring;
  double conflict_rate;
  uint64_t seed;
};

class JraFuzzTest : public ::testing::TestWithParam<JraFuzzCase> {};

TEST_P(JraFuzzTest, BbaMatchesBfs) {
  const JraFuzzCase& c = GetParam();
  data::SyntheticDblpConfig config;
  config.num_topics = 10;
  config.seed = c.seed;
  auto dataset = data::GenerateReviewerPool(c.reviewers, 2, config);
  ASSERT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = c.group_size;
  params.reviewer_workload = c.reviewers;
  params.scoring = c.scoring;
  auto instance = Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(instance.ok());
  Rng rng(c.seed ^ (0x70 + 1));
  for (int r = 0; r < c.reviewers; ++r) {
    if (rng.NextDouble() < c.conflict_rate) instance->AddConflict(r, 0);
  }
  auto bfs = SolveJraBruteForce(*instance, 0);
  auto bba = SolveJraBba(*instance, 0);
  if (!bfs.ok()) {
    EXPECT_EQ(bba.status().code(), bfs.status().code());
    return;
  }
  ASSERT_TRUE(bba.ok());
  EXPECT_NEAR(bba->score, bfs->score, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JraFuzzTest,
    ::testing::Values(
        JraFuzzCase{10, 3, ScoringFunction::kWeightedCoverage, 0.0, 1},
        JraFuzzCase{12, 4, ScoringFunction::kWeightedCoverage, 0.0, 2},
        JraFuzzCase{14, 3, ScoringFunction::kReviewerCoverage, 0.0, 3},
        JraFuzzCase{14, 3, ScoringFunction::kPaperCoverage, 0.0, 4},
        JraFuzzCase{14, 3, ScoringFunction::kDotProduct, 0.0, 5},
        JraFuzzCase{16, 3, ScoringFunction::kWeightedCoverage, 0.3, 6},
        JraFuzzCase{16, 2, ScoringFunction::kWeightedCoverage, 0.6, 7},
        JraFuzzCase{18, 3, ScoringFunction::kWeightedCoverage, 0.1, 8}));

}  // namespace
}  // namespace wgrap::core
