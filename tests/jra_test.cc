// JRA solver tests: all four solvers agree with brute force on random
// instances (the core exactness property of the paper's BBA), the Fig. 5
// worked example, top-k correctness against full enumeration, COI handling,
// the ablation switches, and goldens pinning BBA's exact trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/jra.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"
#include "obs/metrics.h"

namespace wgrap::core {
namespace {

Instance PoolInstance(int num_reviewers, int group_size, uint64_t seed,
                      ScoringFunction scoring =
                          ScoringFunction::kWeightedCoverage,
                      int num_topics = 8, double topic_density = 0.0,
                      int num_papers = 3) {
  data::SyntheticDblpConfig config;
  config.num_topics = num_topics;
  config.topic_density = topic_density;
  config.seed = seed;
  auto dataset =
      data::GenerateReviewerPool(num_reviewers, num_papers, config);
  EXPECT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = num_reviewers;  // irrelevant for JRA
  params.scoring = scoring;
  auto instance = Instance::FromDataset(*dataset, params);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

// Fig. 5 of the paper: the optimal 2-group scores 0.9.
data::RapDataset Figure5Dataset() {
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r1", {0.15, 0.75, 0.1}, 1});
  dataset.reviewers.push_back({"r2", {0.75, 0.15, 0.1}, 1});
  dataset.reviewers.push_back({"r3", {0.1, 0.35, 0.55}, 1});
  dataset.papers.push_back({"p", {0.35, 0.45, 0.2}, "V"});
  return dataset;
}

TEST(JraBbaTest, Figure5OptimalGroupScore) {
  InstanceParams params;
  params.group_size = 2;
  params.reviewer_workload = 3;
  auto instance = Instance::FromDataset(Figure5Dataset(), params);
  ASSERT_TRUE(instance.ok());
  auto result = SolveJraBba(*instance, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->score, 0.9, 1e-12);
  EXPECT_TRUE(result->proven_optimal);
  // Both {r1,r2} and {r2,r3} score 0.9; either is acceptable.
  std::set<std::vector<int>> optima = {{0, 1}, {1, 2}};
  EXPECT_TRUE(optima.count(result->group)) << "unexpected group";
}

TEST(JraBfsTest, Figure5MatchesBba) {
  InstanceParams params;
  params.group_size = 2;
  params.reviewer_workload = 3;
  auto instance = Instance::FromDataset(Figure5Dataset(), params);
  ASSERT_TRUE(instance.ok());
  auto bfs = SolveJraBruteForce(*instance, 0);
  ASSERT_TRUE(bfs.ok());
  EXPECT_NEAR(bfs->score, 0.9, 1e-12);
}

struct JraCase {
  int num_reviewers;
  int group_size;
  uint64_t seed;
  ScoringFunction scoring;
};

class JraAgreementTest : public ::testing::TestWithParam<JraCase> {};

TEST_P(JraAgreementTest, AllSolversMatchBruteForce) {
  const JraCase& c = GetParam();
  Instance instance =
      PoolInstance(c.num_reviewers, c.group_size, c.seed, c.scoring);
  auto bfs = SolveJraBruteForce(instance, 0);
  ASSERT_TRUE(bfs.ok());

  auto bba = SolveJraBba(instance, 0);
  ASSERT_TRUE(bba.ok());
  EXPECT_NEAR(bba->score, bfs->score, 1e-9) << "BBA";
  EXPECT_TRUE(bba->proven_optimal);

  auto cp = SolveJraCp(instance, 0);
  ASSERT_TRUE(cp.ok());
  EXPECT_NEAR(cp->score, bfs->score, 1e-9) << "CP";

  auto ilp = SolveJraIlp(instance, 0);
  ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
  EXPECT_NEAR(ilp->score, bfs->score, 1e-6) << "ILP";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JraAgreementTest,
    ::testing::Values(
        JraCase{6, 2, 11, ScoringFunction::kWeightedCoverage},
        JraCase{8, 3, 12, ScoringFunction::kWeightedCoverage},
        JraCase{10, 2, 13, ScoringFunction::kWeightedCoverage},
        JraCase{10, 3, 14, ScoringFunction::kWeightedCoverage},
        JraCase{12, 3, 15, ScoringFunction::kWeightedCoverage},
        JraCase{8, 4, 16, ScoringFunction::kWeightedCoverage},
        JraCase{8, 3, 17, ScoringFunction::kReviewerCoverage},
        JraCase{8, 3, 18, ScoringFunction::kPaperCoverage},
        JraCase{8, 3, 19, ScoringFunction::kDotProduct},
        JraCase{14, 2, 20, ScoringFunction::kWeightedCoverage}));

class BbaLargerSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BbaLargerSweepTest, BbaMatchesBruteForce) {
  Instance instance = PoolInstance(16, 3, 100 + GetParam());
  auto bfs = SolveJraBruteForce(instance, 0);
  auto bba = SolveJraBba(instance, 0);
  ASSERT_TRUE(bfs.ok() && bba.ok());
  EXPECT_NEAR(bba->score, bfs->score, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BbaLargerSweepTest, ::testing::Range(0, 10));

TEST(JraBbaTest, AblationSwitchesStayExact) {
  Instance instance = PoolInstance(12, 3, 21);
  auto reference = SolveJraBruteForce(instance, 0);
  ASSERT_TRUE(reference.ok());
  for (bool bounding : {true, false}) {
    for (bool gain_branching : {true, false}) {
      BbaOptions options;
      options.use_bounding = bounding;
      options.use_gain_branching = gain_branching;
      auto result = SolveJraBba(instance, 0, options);
      ASSERT_TRUE(result.ok());
      EXPECT_NEAR(result->score, reference->score, 1e-9)
          << "bounding=" << bounding << " gain=" << gain_branching;
    }
  }
}

TEST(JraBbaTest, BoundingReducesExploredNodes) {
  Instance instance = PoolInstance(40, 3, 22);
  BbaOptions with_bound;
  BbaOptions without_bound;
  without_bound.use_bounding = false;
  auto bounded = SolveJraBba(instance, 0, with_bound);
  auto unbounded = SolveJraBba(instance, 0, without_bound);
  ASSERT_TRUE(bounded.ok() && unbounded.ok());
  EXPECT_NEAR(bounded->score, unbounded->score, 1e-9);
  EXPECT_LT(bounded->nodes_explored, unbounded->nodes_explored);
}

TEST(JraTopKTest, MatchesEnumerationOrder) {
  Instance instance = PoolInstance(9, 3, 23);
  const int k = 10;
  auto topk = SolveJraBbaTopK(instance, 0, k);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->size(), static_cast<size_t>(k));

  // Enumerate all 3-groups, sort scores descending.
  std::vector<double> all_scores;
  for (int a = 0; a < 9; ++a) {
    for (int b = a + 1; b < 9; ++b) {
      for (int c = b + 1; c < 9; ++c) {
        all_scores.push_back(ScoreGroup(instance, 0, {a, b, c}));
      }
    }
  }
  std::sort(all_scores.rbegin(), all_scores.rend());
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR((*topk)[i].score, all_scores[i], 1e-9) << "rank " << i;
  }
  // Results are distinct groups.
  std::set<std::vector<int>> unique;
  for (const auto& r : *topk) unique.insert(r.group);
  EXPECT_EQ(unique.size(), static_cast<size_t>(k));
}

TEST(JraTopKTest, KLargerThanSpaceReturnsAll) {
  Instance instance = PoolInstance(5, 2, 24);
  auto topk = SolveJraBbaTopK(instance, 0, 100);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->size(), 10u);  // C(5,2)
}

TEST(JraTest, ConflictsExcluded) {
  Instance instance = PoolInstance(8, 2, 25);
  // Forbid the best reviewer found by an unconstrained run.
  auto unconstrained = SolveJraBba(instance, 0);
  ASSERT_TRUE(unconstrained.ok());
  const int banned = unconstrained->group[0];
  instance.AddConflict(banned, 0);
  for (auto solve : {SolveJraBruteForce, +[](const Instance& i, int p,
                                             const JraOptions& o) {
                       return SolveJraBba(i, p, BbaOptions{o});
                     }}) {
    auto result = solve(instance, 0, {});
    ASSERT_TRUE(result.ok());
    for (int r : result->group) EXPECT_NE(r, banned);
  }
}

TEST(JraTest, InfeasibleWhenConflictsExhaustPool) {
  Instance instance = PoolInstance(4, 3, 26);
  instance.AddConflict(0, 0);
  instance.AddConflict(1, 0);
  auto result = SolveJraBba(instance, 0);
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
  auto bfs = SolveJraBruteForce(instance, 0);
  EXPECT_EQ(bfs.status().code(), StatusCode::kInfeasible);
}

TEST(JraTest, GroupSizeEqualsPoolSize) {
  Instance instance = PoolInstance(4, 4, 27);
  auto result = SolveJraBba(instance, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->group, (std::vector<int>{0, 1, 2, 3}));
}

TEST(JraTest, PaperIdOutOfRangeRejected) {
  Instance instance = PoolInstance(5, 2, 28);
  EXPECT_FALSE(SolveJraBba(instance, 99).ok());
  EXPECT_FALSE(SolveJraBruteForce(instance, -1).ok());
  EXPECT_FALSE(SolveJraIlp(instance, 99).ok());
  EXPECT_FALSE(SolveJraCp(instance, 99).ok());
}

TEST(JraTest, BbaTimeLimitReportsAbort) {
  Instance instance = PoolInstance(60, 4, 29);
  BbaOptions options;
  options.max_nodes = 3;  // absurdly small
  auto result = SolveJraBba(instance, 0, options);
  if (result.ok()) {
    EXPECT_FALSE(result->proven_optimal);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

// --- BBA goldens ------------------------------------------------------------
// Algorithm 1's exact trajectory, pinned: for every paper of each pool, the
// node count, the groups and the score bits of BBA top-1 and top-3 are
// folded into one digest, and the Definition 8 gains the runs evaluated
// are counted. Recorded once and unchanged since, so any change to the
// cursor order, the Definition 8 branching, the Eq. 3 pruning or the gain
// memo shows here even when the optimum stays the same. Every pool runs
// as a dense instance and as its CSR twin against the same golden.

struct BbaGolden {
  const char* name;
  int64_t nodes;       // summed over papers, top-1 and top-3 runs
  uint64_t digest;     // FNV-1a over nodes, group ids and score bits
  int64_t gain_evals;  // wgrap_jra_bba_gain_evals_total added by the runs
};

void FoldResult(const JraResult& result, uint64_t* digest) {
  FnvFold(static_cast<uint64_t>(result.nodes_explored), digest);
  for (int r : result.group) FnvFold(static_cast<uint64_t>(r), digest);
  FnvFold(DoubleBits(result.score), digest);
}

// The process-wide gain evaluation count; -1 when telemetry is off.
int64_t GainEvalsTotal() {
  const obs::Counter* counter = obs::Registry::Global().GetCounter(
      "wgrap_jra_bba_gain_evals_total");
  return counter != nullptr ? counter->Value() : -1;
}

struct Trajectory {
  int64_t nodes = 0;
  uint64_t digest = kFnvOffsetBasis;
  int64_t gain_evals = -1;  // -1 when telemetry is off
};

// Runs top-1 and top-3 on the first `papers` papers (0 = all).
Trajectory BbaTrajectory(const Instance& instance, const BbaOptions& options,
                         int papers) {
  Trajectory out;
  const int64_t evals_before = GainEvalsTotal();
  const int P = papers > 0 ? papers : instance.num_papers();
  for (int p = 0; p < P; ++p) {
    auto best = SolveJraBba(instance, p, options);
    EXPECT_TRUE(best.ok()) << "paper " << p << ": "
                           << best.status().ToString();
    if (!best.ok()) continue;
    out.nodes += best->nodes_explored;
    FoldResult(*best, &out.digest);
    auto top3 = SolveJraBbaTopK(instance, p, 3, options);
    EXPECT_TRUE(top3.ok()) << "paper " << p;
    if (!top3.ok()) continue;
    out.nodes += (*top3)[0].nodes_explored;
    for (const JraResult& result : *top3) FoldResult(result, &out.digest);
  }
  if (evals_before >= 0) out.gain_evals = GainEvalsTotal() - evals_before;
  return out;
}

// Checks the golden on the dense instance and on its CSR twin; the gain
// count only when telemetry is on.
void ExpectBbaGolden(const Instance& instance, const BbaOptions& options,
                     const BbaGolden& golden, int papers = 0) {
  SCOPED_TRACE(golden.name);
  Instance dense = instance;
  dense.DropSparseTopics();
  Instance csr = instance;
  csr.BuildSparseTopics();
  for (const Instance* twin : {&dense, &csr}) {
    const Trajectory got = BbaTrajectory(*twin, options, papers);
    const std::string line = std::string(twin == &csr ? "csr" : "dense") +
                             " nodes " + std::to_string(got.nodes) +
                             " digest " + std::to_string(got.digest) +
                             " gain evals " + std::to_string(got.gain_evals);
    EXPECT_EQ(got.nodes, golden.nodes) << line;
    EXPECT_EQ(got.digest, golden.digest) << line;
    if (got.gain_evals >= 0) {
      EXPECT_EQ(got.gain_evals, golden.gain_evals) << line;
    }
  }
}

// Six profiles repeated over 24 reviewers (ids i and i + 6k share one), so
// most sorted lists hold runs of equal values broken only by reviewer id;
// topic 5 is zero for every reviewer and the others carry zero tails.
Instance TieHeavyPool() {
  const std::vector<std::vector<double>> profiles = {
      {0.5, 0.5, 0.0, 0.0, 0.0, 0.0},     {0.25, 0.25, 0.5, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 1.0, 0.0, 0.0},     {0.5, 0.0, 0.0, 0.0, 0.5, 0.0},
      {0.0, 0.5, 0.5, 0.0, 0.0, 0.0},     {0.25, 0.25, 0.0, 0.25, 0.25, 0.0}};
  data::RapDataset dataset;
  dataset.num_topics = 6;
  for (int r = 0; r < 24; ++r) {
    dataset.reviewers.push_back(
        {std::to_string(r), profiles[r % profiles.size()], 1});
  }
  dataset.papers.push_back({"p0", {0.2, 0.2, 0.2, 0.2, 0.1, 0.1}, "V"});
  dataset.papers.push_back({"p1", {0.5, 0.5, 0.0, 0.0, 0.0, 0.0}, "V"});
  dataset.papers.push_back({"p2", {0.0, 0.0, 0.0, 0.5, 0.25, 0.25}, "V"});
  InstanceParams params;
  params.group_size = 3;
  params.reviewer_workload = 3;
  auto instance = Instance::FromDataset(dataset, params);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

TEST(BbaGoldenTest, DensePool) {
  ExpectBbaGolden(
      PoolInstance(80, 3, 501, ScoringFunction::kWeightedCoverage, 30, 0.0, 5),
      BbaOptions{}, {"dense R80 T30", 1165, 10777454636326401486ULL, 3746});
}

TEST(BbaGoldenTest, SparsePool) {
  ExpectBbaGolden(
      PoolInstance(150, 3, 502, ScoringFunction::kWeightedCoverage, 30, 0.1, 5),
      BbaOptions{}, {"sparse R150 T30", 70, 5067966398391116793ULL, 940});
}

TEST(BbaGoldenTest, PoolWithConflicts) {
  Instance instance =
      PoolInstance(40, 4, 503, ScoringFunction::kPaperCoverage, 20, 0.2, 4);
  // Conflicts on three of the four papers, including low, high and
  // adjacent reviewer ids.
  for (int r : {0, 1, 7, 22, 39}) instance.AddConflict(r, 0);
  for (int r : {3, 4, 5, 6, 30}) instance.AddConflict(r, 1);
  for (int r : {12, 38}) instance.AddConflict(r, 3);
  ExpectBbaGolden(instance, BbaOptions{},
                  {"cP R40 T20 coi", 72, 13463674118134834240ULL, 664});
}

TEST(BbaGoldenTest, TieHeavyPool) {
  ExpectBbaGolden(TieHeavyPool(), BbaOptions{},
                  {"ties", 42, 11071850748879188115ULL, 100});
  Instance instance = TieHeavyPool();
  for (int r : {0, 6, 13}) instance.AddConflict(r, 1);
  ExpectBbaGolden(instance, BbaOptions{},
                  {"ties coi", 42, 11532467560445248749ULL, 100});
}

TEST(BbaGoldenTest, AblationsPinned) {
  BbaOptions no_bounding;
  no_bounding.use_bounding = false;
  ExpectBbaGolden(
      PoolInstance(30, 3, 501, ScoringFunction::kWeightedCoverage, 8, 0.0, 4),
      no_bounding,
      {"dense R30 T8 no bounding", 39928, 10775362908103517337ULL, 36200});
  BbaOptions no_gain_branching;
  no_gain_branching.use_gain_branching = false;
  ExpectBbaGolden(
      PoolInstance(60, 3, 502, ScoringFunction::kWeightedCoverage, 30, 0.1, 4),
      no_gain_branching,
      {"sparse R60 T30 no gain branching", 15546, 15883350543537792077ULL,
       0});
  ExpectBbaGolden(
      PoolInstance(25, 2, 504, ScoringFunction::kDotProduct, 12, 0.0, 3),
      no_gain_branching,
      {"cD R25 T12 no gain branching", 655, 2688459661675806863ULL, 0});
}

// The three perfbench shapes, each run over every paper. service_mix: 189
// reviewers × 146 papers at T = 30, with COIs on adjacent and spread-out
// reviewer ids. DB08: the Table 3 Databases 2008 conference (T = 30, every
// topic column heavy). p400: 150 reviewers × 400 papers at T = 100 with 5
// nonzeros per row, the shape the CSR kernels win.
Instance ServiceMixPool() {
  auto dataset =
      data::GenerateReviewerPool(189, 146, data::SyntheticDblpConfig{});
  EXPECT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = 3;
  auto instance = Instance::FromDataset(*dataset, params);
  EXPECT_TRUE(instance.ok());
  for (int p = 0; p < instance->num_papers(); ++p) {
    const int r = (7 * p) % instance->num_reviewers();
    instance->AddConflict(r, p);
    instance->AddConflict((r + 1) % instance->num_reviewers(), p);
    if (p % 3 == 0) {
      instance->AddConflict((r + 94) % instance->num_reviewers(), p);
    }
  }
  return std::move(instance).value();
}

TEST(BbaGoldenTest, ServiceMixShapeWithConflicts) {
  ExpectBbaGolden(ServiceMixPool(), BbaOptions{},
                  {"service_mix R189 P146 coi", 126175,
                   15770213194848979013ULL, 304622});
}

TEST(BbaGoldenTest, Db08) {
  ExpectBbaGolden(Db08Instance(), BbaOptions{},
                  {"DB08", 265147, 8838837991238602385ULL, 879284});
}

TEST(BbaGoldenTest, SparseP400) {
  ExpectBbaGolden(SparseP400Instance(), BbaOptions{},
                  {"p400", 15350, 8414240498563787219ULL, 342632});
}

// Without the bound the search walks every group, C(150, 3) leaves per
// query, so that run stops each query after 10000 nodes (a deterministic
// budget: the best groups found by then are still pinned). Without gain
// branching a query takes up to tens of thousands of nodes. Both run on the
// first four papers.
TEST(BbaGoldenTest, AblationsOnTheP400Shape) {
  BbaOptions no_bounding;
  no_bounding.use_bounding = false;
  no_bounding.max_nodes = 10000;
  ExpectBbaGolden(SparseP400Instance(), no_bounding,
                  {"p400 no bounding", 80000, 3203088096248156909ULL, 80286},
                  /*papers=*/4);
  BbaOptions no_gain_branching;
  no_gain_branching.use_gain_branching = false;
  ExpectBbaGolden(SparseP400Instance(), no_gain_branching,
                  {"p400 no gain branching", 109308, 11046865654177986112ULL,
                   0},
                  /*papers=*/4);
}

}  // namespace
}  // namespace wgrap::core
