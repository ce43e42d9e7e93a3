// CRA solver tests: feasibility of every solver's output, exact-optimum
// comparisons on tiny instances (SDGA ratio bound, Greedy 1/3 bound),
// the Sec. 4.2 workload-reservation example, refinement monotonicity,
// COI handling and backend agreement.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/cra.h"
#include "core/jra.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/update.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"
#include "obs/metrics.h"

namespace wgrap::core {
namespace {

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
  Instance instance = SeededPool(10, 8, 3, 31);
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
  Instance instance = SeededPool(7, 9, 3, 32);
  EXPECT_EQ(instance.reviewer_workload(), 4);  // ceil(27/7)
  for (const auto& [name, solve] : AllSolvers()) {
    auto assignment = solve(instance);
    ASSERT_TRUE(assignment.ok()) << name;
    EXPECT_TRUE(assignment->ValidateComplete().ok()) << name;
  }
}

TEST(CraApproximationTest, SdgaMeetsTheoremBoundOnTinyInstances) {
  for (uint64_t seed : {41, 42, 43, 44, 45}) {
    Instance instance =
        SeededPool(5, 3, 2, seed, /*num_topics=*/8, /*workload=*/2);
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
    Instance instance =
        SeededPool(5, 3, 2, seed, /*num_topics=*/8, /*workload=*/2);
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

// The stages run one engine and one profit source; the vestigial SraOptions
// fields (core/cra.h) accept their one value each, and a library caller
// asking for anything else gets kInvalidArgument naming the knob. The
// per-pair and min-cost-flow oracles live in tests/gain_cache_test.cc.
TEST(CraSraTest, RetiredStageEnginesAndGainModesAreRejected) {
  Instance instance = SeededPool(9, 7, 3, 64);
  auto initial = SolveCraSdga(instance);
  ASSERT_TRUE(initial.ok());
  for (const LapBackend backend :
       {LapBackend::kMinCostFlow, LapBackend::kAuction}) {
    SraOptions sra;
    sra.backend = backend;
    const Status status = RefineSra(instance, *initial, sra).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("'lap'"), std::string::npos);
  }
  SraOptions sra;
  sra.gains = GainMode::kRebuild;
  const Status status = RefineSra(instance, *initial, sra).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'gains'"), std::string::npos);
}

TEST(CraIlpArapTest, MaximizesPairwiseObjective) {
  // ARAP maximizes Σ c(r,p); compare against exhaustive search on the
  // pairwise objective (not the group objective).
  Instance instance =
      SeededPool(4, 3, 2, 71, /*num_topics=*/8, /*workload=*/2);
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
    Instance instance = SeededPool(10, 8, 3, seed);
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

TEST(CraRefinementTest, SraTraceIsMonotoneNonDecreasing) {
  Instance instance = SeededPool(9, 7, 3, 85);
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
  Instance instance = SeededPool(10, 8, 3, 86);
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
  Instance instance = SeededPool(6, 4, 2, 87);
  Assignment incomplete(&instance);
  SraOptions sra;
  EXPECT_FALSE(RefineSra(instance, incomplete, sra).ok());
  LocalSearchOptions ls;
  EXPECT_FALSE(RefineLocalSearch(instance, incomplete, ls).ok());
}

TEST(CraConflictTest, AllSolversRespectConflicts) {
  Instance instance = SeededPool(9, 6, 2, 88);
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
  Instance instance = SeededPool(10, 8, 3, 89);
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

// FNV-1a over Pairs(), the digest the SRA and LS goldens pin.
uint64_t PairsDigest(const Assignment& assignment) {
  uint64_t digest = kFnvOffsetBasis;
  for (const auto& [p, r] : assignment.Pairs()) {
    FnvFold(static_cast<uint64_t>(p), &digest);
    FnvFold(static_cast<uint64_t>(r), &digest);
  }
  return digest;
}

// SRA goldens: RefineSra's output on a fixed round count with no wall-clock
// budget, recorded once and unchanged since. Each case refines one SDGA
// start at 1 and 4 threads, on the dense instance and on its CSR twin,
// checks it is never worse than the start (the uniform ablation included),
// and pins an FNV-1a digest of Pairs() and the bits of TotalScore(). A change
// to the Eq. 9/10 removal weights (which reviewer or paper a term reads,
// the bid bonus, the decay), the per-(round, paper) streams or the
// completion shows here; a last-bit change in a weight may not.
void ExpectSraGolden(const Instance& instance, int rounds, bool uniform,
                     uint64_t digest, uint64_t score_bits) {
  SraOptions options;
  options.max_iterations = rounds;
  options.convergence_window = rounds;
  options.uniform_probability = uniform;
  options.seed = 1;
  Instance dense = instance;
  dense.DropSparseTopics();
  Instance csr = instance;
  csr.BuildSparseTopics();
  for (const Instance* twin : {&dense, &csr}) {
    auto start = SolveCraSdga(*twin);
    ASSERT_TRUE(start.ok()) << start.status().ToString();
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(twin == &csr ? "csr" : "dense") +
                   " threads " + std::to_string(threads));
      options.num_threads = threads;
      auto refined = RefineSra(*twin, *start, options);
      ASSERT_TRUE(refined.ok()) << refined.status().ToString();
      EXPECT_GE(refined->TotalScore(), start->TotalScore());
      EXPECT_EQ(PairsDigest(*refined), digest);
      EXPECT_EQ(DoubleBits(refined->TotalScore()), score_bits);
    }
  }
}

TEST(SraGoldenTest, Db08PerScoring) {
  ExpectSraGolden(Db08Instance(), 12, false, 8673324873606609417ULL,
                  4647479417212046218ULL);
  ExpectSraGolden(Db08Instance(ScoringFunction::kReviewerCoverage), 8, false,
                  1921299173121438421ULL, 4655082061510246928ULL);
  ExpectSraGolden(Db08Instance(ScoringFunction::kPaperCoverage), 8, false,
                  2869582142925163012ULL, 4644526891943054992ULL);
  ExpectSraGolden(Db08Instance(ScoringFunction::kDotProduct), 8, false,
                  9248442344179710316ULL, 4643402914458410256ULL);
}

TEST(SraGoldenTest, Db08UniformProbability) {
  ExpectSraGolden(Db08Instance(), 12, true, 1002250048631941900ULL,
                  4647479417213698946ULL);
}

TEST(SraGoldenTest, SparseP400) {
  ExpectSraGolden(SparseP400Instance(), 12, false, 3902645432548119353ULL,
                  4643988635135740159ULL);
}

// Bids move PairUtility away from PairScore, in the Eq. 9 terms and in the
// reviewer totals.
TEST(SraGoldenTest, PoolWithBids) {
  FuzzInstanceConfig config;
  config.reviewers = 60;
  config.papers = 80;
  config.num_topics = 20;
  config.with_bids = true;
  config.seed = 91;
  auto instance = MakeFuzzInstance(config);
  ASSERT_TRUE(instance.ok());
  ExpectSraGolden(*instance, 16, false, 8035213308965134053ULL,
                  4636389479940587496ULL);
}

// LS goldens, recorded before local search lost its batch-parallel scorer
// and unchanged since: the Theory 2009 conference (222 × 226, T = 30)
// with seeded COIs and bids. The sdga-ls solve and the resolve below each
// roll back one move whose round-start estimate cleared the 1e-12
// acceptance tolerance but whose apply did not, so the rollback path (and
// its reordering of a group, which moves the bid sum's last bits) is part
// of what they pin. Every case runs on the dense instance and its CSR twin.
Instance LsGoldenInstance() {
  data::SyntheticDblpConfig config;
  config.seed = 44;
  InstanceParams params;
  params.group_size = 3;
  auto dataset =
      data::GenerateConferenceDataset(data::Area::kTheory, 2009, config);
  WGRAP_CHECK(dataset.ok());
  auto built = Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(built.ok());
  Instance instance = *std::move(built);
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  Rng rng(309);
  Matrix bids(P, R);
  for (int p = 0; p < P; ++p) {
    for (int r = 0; r < R; ++r) {
      if (rng.NextDouble() < 0.03) {
        instance.AddConflict(r, p);
      } else if (rng.NextDouble() < 0.1) {
        bids(p, r) = rng.NextDouble();
      }
    }
  }
  WGRAP_CHECK(instance.SetBids(std::move(bids), 0.2).ok());
  return instance;
}

// Runs `solve` on the dense instance and its CSR twin and pins the groups'
// digest and the score bits of each result.
void ExpectLsGolden(
    const std::function<Result<Assignment>(const Instance&)>& solve,
    uint64_t digest, uint64_t score_bits) {
  Instance dense = LsGoldenInstance();
  dense.DropSparseTopics();
  Instance csr = LsGoldenInstance();
  csr.BuildSparseTopics();
  for (const Instance* twin : {&dense, &csr}) {
    SCOPED_TRACE(twin == &csr ? "csr" : "dense");
    auto result = solve(*twin);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->ValidateComplete().ok());
    EXPECT_EQ(PairsDigest(*result), digest);
    EXPECT_EQ(DoubleBits(result->TotalScore()), score_bits);
  }
}

TEST(LsGoldenTest, SdgaLsAtOneAndFourThreads) {
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(std::string("threads ") + threads);
    ExpectLsGolden(
        [threads](const Instance& instance) {
          SolverRunOptions options;
          options.seed = 3;
          options.extra["threads"] = threads;
          return SolverRegistry::Default().SolveCra("sdga-ls", instance,
                                                    options);
        },
        3368674028804176663ULL, 4642133527881170080ULL);
  }
}

TEST(LsGoldenTest, RefineFromGreedy) {
  ExpectLsGolden(
      [](const Instance& instance) -> Result<Assignment> {
        auto start = SolveCraGreedy(instance);
        WGRAP_RETURN_IF_ERROR(start.status());
        SolverRunOptions options;
        options.seed = 3;
        return SolverRegistry::Default().RefineCra("ls", instance, *start,
                                                   options);
      },
      4465538654799345733ULL, 4642120216092909964ULL);
}

// IncrementalResolve with update_refine=ls: every seventh paper of the SDGA
// assignment loses its first reviewer, the repair refills it, and LS runs
// on the repaired assignment.
TEST(LsGoldenTest, IncrementalResolveRefinesWithLs) {
  ExpectLsGolden(
      [](const Instance& instance) -> Result<Assignment> {
        auto assignment = SolveCraSdga(instance);
        WGRAP_RETURN_IF_ERROR(assignment.status());
        for (int p = 0; p < instance.num_papers(); p += 7) {
          WGRAP_RETURN_IF_ERROR(
              assignment->Remove(p, assignment->GroupFor(p).front()));
        }
        SolverRunOptions options;
        options.seed = 3;
        options.extra["update_refine"] = "ls";
        auto report = IncrementalResolve(instance, &*assignment, options);
        WGRAP_RETURN_IF_ERROR(report.status());
        return *std::move(assignment);
      },
      12671409750408282482ULL, 4642154328628719975ULL);
}

}  // namespace
}  // namespace wgrap::core
