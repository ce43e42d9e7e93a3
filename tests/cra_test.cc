// CRA solver tests: feasibility of every solver's output, exact-optimum
// comparisons on tiny instances (SDGA ratio bound, Greedy 1/3 bound),
// the Sec. 4.2 workload-reservation example, refinement monotonicity,
// COI handling and backend agreement.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/cra.h"
#include "core/jra.h"
#include "core/metrics.h"
#include "data/synthetic_dblp.h"
#include "obs/metrics.h"

namespace wgrap::core {
namespace {

Instance SmallInstance(int reviewers, int papers, int group_size,
                       uint64_t seed, int workload = 0) {
  data::SyntheticDblpConfig config;
  config.num_topics = 8;
  config.seed = seed;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  EXPECT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = workload;
  auto instance = Instance::FromDataset(*dataset, params);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

// Exhaustive optimal WGRAP objective for tiny instances: recursively assign
// groups to papers under workload constraints.
double ExactOptimal(const Instance& instance) {
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  std::vector<int> load(R, 0);
  std::function<double(int)> best_for = [&](int p) -> double {
    if (p == P) return 0.0;
    double best = -1.0;
    std::vector<int> group;  // this paper's group only
    std::function<void(int, int)> pick = [&](int from, int need) {
      if (need == 0) {
        const double score = ScoreGroup(instance, p, group);
        const double rest = best_for(p + 1);
        if (rest >= 0.0 && score + rest > best) best = score + rest;
        return;
      }
      for (int r = from; r <= R - need; ++r) {
        if (load[r] >= instance.reviewer_workload() ||
            instance.IsConflict(r, p)) {
          continue;
        }
        ++load[r];
        group.push_back(r);
        pick(r + 1, need - 1);
        group.pop_back();
        --load[r];
      }
    };
    pick(0, instance.group_size());
    return best;
  };
  return best_for(0);
}

using SolverFn =
    std::function<Result<Assignment>(const Instance&)>;

std::vector<std::pair<std::string, SolverFn>> AllSolvers() {
  return {
      {"SM", [](const Instance& i) { return SolveCraStableMatching(i); }},
      {"ILP", [](const Instance& i) { return SolveCraIlpArap(i); }},
      {"BRGG", [](const Instance& i) { return SolveCraBrgg(i); }},
      {"Greedy", [](const Instance& i) { return SolveCraGreedy(i); }},
      {"SDGA", [](const Instance& i) { return SolveCraSdga(i); }},
      {"SDGA-SRA",
       [](const Instance& i) {
         SraOptions sra;
         sra.max_iterations = 30;
         return SolveCraSdgaSra(i, {}, sra);
       }},
  };
}

TEST(CraFeasibilityTest, AllSolversProduceCompleteAssignments) {
  Instance instance = SmallInstance(10, 8, 3, 31);
  for (const auto& [name, solve] : AllSolvers()) {
    auto assignment = solve(instance);
    ASSERT_TRUE(assignment.ok()) << name << ": "
                                 << assignment.status().ToString();
    EXPECT_TRUE(assignment->ValidateComplete().ok()) << name;
    EXPECT_GT(assignment->TotalScore(), 0.0) << name;
  }
}

TEST(CraFeasibilityTest, MinimalWorkloadInstanceStillFeasible) {
  // δr = ⌈P·δp/R⌉ forces every reviewer into play (Sec. 5.2 setting).
  Instance instance = SmallInstance(7, 9, 3, 32);
  EXPECT_EQ(instance.reviewer_workload(), 4);  // ceil(27/7)
  for (const auto& [name, solve] : AllSolvers()) {
    auto assignment = solve(instance);
    ASSERT_TRUE(assignment.ok()) << name;
    EXPECT_TRUE(assignment->ValidateComplete().ok()) << name;
  }
}

TEST(CraApproximationTest, SdgaMeetsTheoremBoundOnTinyInstances) {
  for (uint64_t seed : {41, 42, 43, 44, 45}) {
    Instance instance = SmallInstance(5, 3, 2, seed, /*workload=*/2);
    const double optimal = ExactOptimal(instance);
    ASSERT_GT(optimal, 0.0);
    auto sdga = SolveCraSdga(instance);
    ASSERT_TRUE(sdga.ok());
    // Theorem 2 guarantees 1/2; integral case (δr divisible by δp) gives
    // 1 - 1/e. Here δr=2, δp=2 -> integral, bound = 1 - (1 - 1/2)^2 = 0.75.
    EXPECT_GE(sdga->TotalScore(), 0.75 * optimal - 1e-9) << "seed " << seed;
  }
}

TEST(CraApproximationTest, GreedyMeetsOneThirdOnTinyInstances) {
  for (uint64_t seed : {51, 52, 53}) {
    Instance instance = SmallInstance(5, 3, 2, seed, /*workload=*/2);
    const double optimal = ExactOptimal(instance);
    auto greedy = SolveCraGreedy(instance);
    ASSERT_TRUE(greedy.ok());
    EXPECT_GE(greedy->TotalScore(), optimal / 3.0 - 1e-9) << "seed " << seed;
  }
}

TEST(CraSdgaTest, WorkloadReservationExampleFromSection42) {
  // The 3x3 example of Sec. 4.2: without the per-stage cap, r1 is spent on
  // p2/p3 in stage 1 and nobody covers t3 of p1 in stage 2.
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r1", {0.1, 0.5, 0.4}, 1});
  dataset.reviewers.push_back({"r2", {1.0, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"r3", {0.0, 1.0, 0.0}, 1});
  dataset.papers.push_back({"p1", {0.6, 0.0, 0.4}, "V"});
  dataset.papers.push_back({"p2", {0.5, 0.5, 0.0}, "V"});
  dataset.papers.push_back({"p3", {0.5, 0.5, 0.0}, "V"});
  InstanceParams params;
  params.group_size = 2;
  params.reviewer_workload = 2;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());

  auto confined = SolveCraSdga(*instance);
  ASSERT_TRUE(confined.ok());
  // With the cap (⌈2/2⌉ = 1 per stage), r1 reaches p1 and covers t3:
  // optimal total is 1.0 (p1) + 1.0 (p2) + 0.9 (p3) or a permutation.
  const double optimal = ExactOptimal(*instance);
  EXPECT_NEAR(confined->TotalScore(), optimal, 1e-9);

  SdgaOptions unconfined;
  unconfined.confine_stage_workload = false;
  auto greedy_stages = SolveCraSdga(*instance, unconfined);
  ASSERT_TRUE(greedy_stages.ok());
  EXPECT_LE(greedy_stages->TotalScore(), confined->TotalScore() + 1e-9);
}

// δp = 3 ∤ δr = 4, so each stage caps a reviewer at ⌈4/3⌉ = 2. r0 and r1
// out-gain r2 on every paper in stages 1 and 2, which leaves r2 with all
// four papers for stage 3: over its cap, so SDGA retries that stage once
// with the full remaining workload. The retry counter pins it.
TEST(CraSdgaTest, CapRelaxRetryIsCounted) {
  if (!obs::Enabled()) GTEST_SKIP() << "telemetry disabled";
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r0", {0.5, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"r1", {0.0, 0.5, 0.0}, 1});
  dataset.reviewers.push_back({"r2", {0.1, 0.1, 0.0}, 1});
  for (const char* title : {"p0", "p1", "p2", "p3"}) {
    dataset.papers.push_back({title, {0.5, 0.5, 0.0}, "V"});
  }
  InstanceParams params;
  params.group_size = 3;
  params.reviewer_workload = 4;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  obs::Counter* retries = obs::Registry::Global().GetCounter(
      "wgrap_sdga_cap_relax_retries_total");
  const int64_t before = retries->Value();
  auto solved = SolveCraSdga(*instance);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_TRUE(solved->ValidateComplete().ok());
  EXPECT_EQ(retries->Value() - before, 1);
}

TEST(CraSdgaTest, BackendsAgreeOnObjective) {
  for (uint64_t seed : {61, 62, 63}) {
    Instance instance = SmallInstance(9, 7, 3, seed);
    SdgaOptions flow_options;
    flow_options.backend = LapBackend::kMinCostFlow;
    SdgaOptions hungarian_options;
    hungarian_options.backend = LapBackend::kHungarian;
    auto flow = SolveCraSdga(instance, flow_options);
    auto hungarian = SolveCraSdga(instance, hungarian_options);
    ASSERT_TRUE(flow.ok() && hungarian.ok());
    // Both stages solve the same LAP optimally; per-stage objectives match
    // (the chosen argmax may differ on ties, so compare stage-wise totals).
    EXPECT_NEAR(flow->TotalScore(), hungarian->TotalScore(), 1e-6)
        << "seed " << seed;
  }
}

// δp = 3 ∤ δr = 4, so the per-stage cap is ⌈4/3⌉ = 2. Paper i conflicts
// with strong reviewer i, so its group must be the other two strong
// reviewers plus the weak r4. Stages 1–2 place the strong reviewers and
// leave stage 3 needing r4 on all three papers — above the cap, which
// makes the capped stage infeasible on every backend. SDGA completes only
// through the retry with the full remaining workload.
TEST(CraSdgaTest, CapRelaxationRetryRunsOnEveryBackend) {
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r1", {1.0, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"r2", {0.0, 1.0, 0.0}, 1});
  dataset.reviewers.push_back({"r3", {0.0, 0.0, 1.0}, 1});
  dataset.reviewers.push_back({"r4", {0.05, 0.05, 0.05}, 1});
  for (const char* title : {"p1", "p2", "p3"}) {
    dataset.papers.push_back({title, {1.0, 1.0, 1.0}, "V"});
  }
  InstanceParams params;
  params.group_size = 3;
  params.reviewer_workload = 4;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  for (int p = 0; p < 3; ++p) instance->AddConflict(p, p);

  double reference = -1.0;
  for (const LapBackend backend :
       {LapBackend::kMinCostFlow, LapBackend::kHungarian}) {
    SCOPED_TRACE(static_cast<int>(backend));
    SdgaOptions options;
    options.backend = backend;
    auto sdga = SolveCraSdga(*instance, options);
    ASSERT_TRUE(sdga.ok()) << sdga.status().ToString();
    EXPECT_TRUE(sdga->ValidateComplete().ok());
    EXPECT_EQ(sdga->LoadOf(3), 3);
    if (reference < 0.0) reference = sdga->TotalScore();
    EXPECT_NEAR(sdga->TotalScore(), reference, 1e-9);
  }
}

// The stages run the two engines of Sec. 4.2; the auction is ILP-ARAP's
// only, and a direct library caller asking for it gets kInvalidArgument.
TEST(CraSdgaTest, AuctionIsNotAStageEngine) {
  Instance instance = SmallInstance(9, 7, 3, 64);
  SdgaOptions sdga;
  sdga.backend = LapBackend::kAuction;
  EXPECT_EQ(SolveCraSdga(instance, sdga).status().code(),
            StatusCode::kInvalidArgument);
  auto initial = SolveCraSdga(instance);
  ASSERT_TRUE(initial.ok());
  SraOptions sra;
  sra.backend = LapBackend::kAuction;
  EXPECT_EQ(RefineSra(instance, *initial, sra).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CraIlpArapTest, MaximizesPairwiseObjective) {
  // ARAP maximizes Σ c(r,p); compare against exhaustive search on the
  // pairwise objective (not the group objective).
  Instance instance = SmallInstance(4, 3, 2, 71, /*workload=*/2);
  auto ilp = SolveCraIlpArap(instance);
  ASSERT_TRUE(ilp.ok());
  double ilp_pairwise = 0.0;
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r : ilp->GroupFor(p)) ilp_pairwise += instance.PairScore(r, p);
  }
  // Exhaustive: assign 2 distinct reviewers per paper, workload 2.
  std::vector<int> load(4, 0);
  double best = -1.0;
  std::function<double(int)> rec = [&](int p) -> double {
    if (p == 3) return 0.0;
    double local_best = -1.0;
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        if (load[a] >= 2 || load[b] >= 2) continue;
        ++load[a];
        ++load[b];
        const double rest = rec(p + 1);
        if (rest >= 0.0) {
          const double total = instance.PairScore(a, p) +
                               instance.PairScore(b, p) + rest;
          if (total > local_best) local_best = total;
        }
        --load[a];
        --load[b];
      }
    }
    return local_best;
  };
  best = rec(0);
  EXPECT_NEAR(ilp_pairwise, best, 1e-6);
}

TEST(CraRefinementTest, SraNeverWorseThanInitial) {
  for (uint64_t seed : {81, 82, 83}) {
    Instance instance = SmallInstance(10, 8, 3, seed);
    auto sdga = SolveCraSdga(instance);
    ASSERT_TRUE(sdga.ok());
    SraOptions options;
    options.max_iterations = 25;
    options.seed = seed;
    auto refined = RefineSra(instance, *sdga, options);
    ASSERT_TRUE(refined.ok());
    EXPECT_GE(refined->TotalScore(), sdga->TotalScore() - 1e-12);
    EXPECT_TRUE(refined->ValidateComplete().ok());
  }
}

TEST(CraRefinementTest, SraUniformAblationStillFeasible) {
  Instance instance = SmallInstance(8, 6, 2, 84);
  auto sdga = SolveCraSdga(instance);
  ASSERT_TRUE(sdga.ok());
  SraOptions options;
  options.uniform_probability = true;
  options.max_iterations = 15;
  auto refined = RefineSra(instance, *sdga, options);
  ASSERT_TRUE(refined.ok());
  EXPECT_GE(refined->TotalScore(), sdga->TotalScore() - 1e-12);
}

TEST(CraRefinementTest, SraTraceIsMonotoneNonDecreasing) {
  Instance instance = SmallInstance(9, 7, 3, 85);
  auto sdga = SolveCraSdga(instance);
  ASSERT_TRUE(sdga.ok());
  std::vector<double> scores;
  SraOptions options;
  options.max_iterations = 20;
  options.trace = [&](double, double score) { scores.push_back(score); };
  auto refined = RefineSra(instance, *sdga, options);
  ASSERT_TRUE(refined.ok());
  ASSERT_GE(scores.size(), 2u);
  for (size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i], scores[i - 1] - 1e-12);
  }
  EXPECT_NEAR(scores.back(), refined->TotalScore(), 1e-9);
}

TEST(CraRefinementTest, LocalSearchNeverWorseThanInitial) {
  Instance instance = SmallInstance(10, 8, 3, 86);
  auto sdga = SolveCraSdga(instance);
  ASSERT_TRUE(sdga.ok());
  LocalSearchOptions options;
  options.max_stall_proposals = 2000;
  auto refined = RefineLocalSearch(instance, *sdga, options);
  ASSERT_TRUE(refined.ok());
  EXPECT_GE(refined->TotalScore(), sdga->TotalScore() - 1e-12);
  EXPECT_TRUE(refined->ValidateComplete().ok());
}

TEST(CraRefinementTest, RejectsIncompleteInitial) {
  Instance instance = SmallInstance(6, 4, 2, 87);
  Assignment incomplete(&instance);
  SraOptions sra;
  EXPECT_FALSE(RefineSra(instance, incomplete, sra).ok());
  LocalSearchOptions ls;
  EXPECT_FALSE(RefineLocalSearch(instance, incomplete, ls).ok());
}

TEST(CraConflictTest, AllSolversRespectConflicts) {
  Instance instance = SmallInstance(9, 6, 2, 88);
  // Conflict the strongest reviewer of every paper.
  for (int p = 0; p < instance.num_papers(); ++p) {
    int best = 0;
    for (int r = 1; r < instance.num_reviewers(); ++r) {
      if (instance.PairScore(r, p) > instance.PairScore(best, p)) best = r;
    }
    instance.AddConflict(best, p);
  }
  for (const auto& [name, solve] : AllSolvers()) {
    auto assignment = solve(instance);
    ASSERT_TRUE(assignment.ok()) << name;
    EXPECT_TRUE(assignment->ValidateComplete().ok()) << name;
  }
}

TEST(CraDeterminismTest, SolversAreDeterministic) {
  Instance instance = SmallInstance(10, 8, 3, 89);
  for (const auto& [name, solve] : AllSolvers()) {
    auto a = solve(instance);
    auto b = solve(instance);
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    EXPECT_DOUBLE_EQ(a->TotalScore(), b->TotalScore()) << name;
  }
}

TEST(CraQualityTest, SdgaSraBeatsOrMatchesBaselinesAtScale) {
  // Small conference-shaped instance; the paper's headline ordering should
  // hold: SDGA-SRA >= max(SM, ILP) and >= Greedy (within tolerance).
  data::SyntheticDblpConfig config;
  config.num_topics = 12;
  config.seed = 7;
  auto dataset = data::GenerateReviewerPool(30, 60, config);
  ASSERT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = 3;
  auto instance = Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(instance.ok());

  auto sm = SolveCraStableMatching(*instance);
  auto ilp = SolveCraIlpArap(*instance);
  auto greedy = SolveCraGreedy(*instance);
  SraOptions sra;
  sra.max_iterations = 60;
  auto sdga_sra = SolveCraSdgaSra(*instance, {}, sra);
  ASSERT_TRUE(sm.ok() && ilp.ok() && greedy.ok() && sdga_sra.ok());
  EXPECT_GE(sdga_sra->TotalScore(), sm->TotalScore() - 1e-9);
  EXPECT_GE(sdga_sra->TotalScore(), ilp->TotalScore() - 1e-9);
  EXPECT_GE(sdga_sra->TotalScore(), greedy->TotalScore() * 0.98);
}

}  // namespace
}  // namespace wgrap::core
