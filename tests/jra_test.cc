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

struct ScoredGroup {
  std::vector<int> group;
  double score;
};

void EnumerateFrom(const Instance& instance, int paper, int next,
                   std::vector<int>* group, std::vector<ScoredGroup>* out) {
  if (static_cast<int>(group->size()) == instance.group_size()) {
    out->push_back({*group, ScoreGroup(instance, paper, *group)});
    return;
  }
  for (int r = next; r < instance.num_reviewers(); ++r) {
    if (instance.IsConflict(r, paper)) continue;
    group->push_back(r);
    EnumerateFrom(instance, paper, r + 1, group, out);
    group->pop_back();
  }
}

// Every eligible group, best score first.
std::vector<ScoredGroup> EnumerateGroups(const Instance& instance,
                                         int paper) {
  std::vector<ScoredGroup> all;
  std::vector<int> group;
  EnumerateFrom(instance, paper, 0, &group, &all);
  std::stable_sort(all.begin(), all.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) {
                     return a.score > b.score;
                   });
  return all;
}

// One top-k run against the enumeration `all` of paper p: rank by rank
// the enumeration's score bits; each group a distinct eligible group that
// scores exactly its reported bits; every group strictly better than the
// last one returned among them (ties at the cut may resolve either way).
// Returns the groups, best first.
std::vector<std::vector<int>> CheckTopK(const Instance& instance, int p,
                                        int k,
                                        const std::vector<ScoredGroup>& all,
                                        const BbaOptions& options) {
  std::vector<std::vector<int>> groups;
  auto topk = SolveJraBbaTopK(instance, p, k, options);
  EXPECT_TRUE(topk.ok()) << topk.status().ToString();
  if (!topk.ok()) return groups;
  const size_t expected = std::min(all.size(), static_cast<size_t>(k));
  EXPECT_EQ(topk->size(), expected);
  if (topk->size() != expected) return groups;
  std::set<std::vector<int>> returned;
  for (size_t i = 0; i < expected; ++i) {
    const JraResult& got = (*topk)[i];
    EXPECT_EQ(DoubleBits(got.score), DoubleBits(all[i].score)) << "rank " << i;
    EXPECT_EQ(DoubleBits(ScoreGroup(instance, p, got.group)),
              DoubleBits(got.score))
        << "rank " << i;
    EXPECT_EQ(static_cast<int>(got.group.size()), instance.group_size());
    for (int r : got.group) EXPECT_FALSE(instance.IsConflict(r, p));
    EXPECT_TRUE(returned.insert(got.group).second) << "rank " << i;
    EXPECT_TRUE(got.proven_optimal);
    groups.push_back(got.group);
  }
  for (const ScoredGroup& better : all) {
    if (!(better.score > topk->back().score)) break;
    EXPECT_TRUE(returned.count(better.group)) << "missing a group";
  }
  return groups;
}

// CheckTopK on every paper, on the dense instance and its CSR twin, with
// and without the completion bound; all four runs must also return the
// same groups.
void ExpectTopKMatchesEnumeration(const Instance& instance, int k) {
  Instance dense = instance;
  dense.DropSparseTopics();
  Instance csr = instance;
  csr.BuildSparseTopics();
  for (int p = 0; p < instance.num_papers(); ++p) {
    const std::vector<ScoredGroup> all = EnumerateGroups(instance, p);
    std::vector<std::vector<int>> first;
    for (const Instance* twin : {&dense, &csr}) {
      for (bool completion : {false, true}) {
        SCOPED_TRACE(std::string(twin == &csr ? "csr" : "dense") +
                     " paper " + std::to_string(p) + " k " +
                     std::to_string(k) + (completion ? " with" : " without") +
                     " the completion bound");
        BbaOptions options;
        options.use_completion_bound = completion;
        const auto groups = CheckTopK(*twin, p, k, all, options);
        if (twin == &dense && !completion) {
          first = groups;
        } else {
          EXPECT_EQ(groups, first);
        }
      }
    }
  }
}

TEST(JraTopKTest, MatchesEnumerationOrder) {
  ExpectTopKMatchesEnumeration(PoolInstance(9, 3, 23), 10);
}

TEST(JraTopKTest, KLargerThanSpaceReturnsAll) {
  ExpectTopKMatchesEnumeration(PoolInstance(5, 2, 24), 100);  // C(5,2) = 10
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
// For every paper of each pool, BBA top-1 and top-3 run and their answers —
// the groups and the score bits — are folded into one digest. That digest
// pins what the search returns: a pruning rule may change how many nodes a
// query takes, never its answers. A second digest also folds in each run's
// node count, and the golden records the summed nodes, the gain rows the
// runs computed and the nodes the completion bound pruned, so any change to
// the cursor order, the branching or the pruning shows there even when the
// answers stay the same. Every pool runs as a dense instance and as its CSR
// twin against the same golden.

struct BbaGolden {
  const char* name;
  int64_t nodes;        // summed over papers, top-1 and top-3 runs
  uint64_t answers;     // FNV-1a over group ids and score bits
  uint64_t digest;      // the same, each run's node count folded in first
  int64_t gain_rows;    // wgrap_jra_bba_gain_rows_total added by the runs
  int64_t completion_prunes;  // wgrap_jra_bba_completion_prunes_total
};

void FoldAnswer(const JraResult& result, uint64_t* digest) {
  for (int r : result.group) FnvFold(static_cast<uint64_t>(r), digest);
  FnvFold(DoubleBits(result.score), digest);
}

void FoldResult(const JraResult& result, uint64_t* digest) {
  FnvFold(static_cast<uint64_t>(result.nodes_explored), digest);
  FoldAnswer(result, digest);
}

// A process-wide BBA counter; -1 when telemetry is off.
int64_t CounterTotal(const char* name) {
  const obs::Counter* counter = obs::Registry::Global().GetCounter(name);
  return counter != nullptr ? counter->Value() : -1;
}

constexpr const char* kGainRows = "wgrap_jra_bba_gain_rows_total";
constexpr const char* kCompletionPrunes =
    "wgrap_jra_bba_completion_prunes_total";

struct Trajectory {
  int64_t nodes = 0;
  uint64_t answers = kFnvOffsetBasis;
  uint64_t digest = kFnvOffsetBasis;
  int64_t gain_rows = -1;  // both -1 when telemetry is off
  int64_t completion_prunes = -1;
};

// Runs top-1 and top-3 on the first `papers` papers (0 = all).
Trajectory BbaTrajectory(const Instance& instance, const BbaOptions& options,
                         int papers) {
  Trajectory out;
  const int64_t rows_before = CounterTotal(kGainRows);
  const int64_t prunes_before = CounterTotal(kCompletionPrunes);
  const int P = papers > 0 ? papers : instance.num_papers();
  for (int p = 0; p < P; ++p) {
    auto best = SolveJraBba(instance, p, options);
    EXPECT_TRUE(best.ok()) << "paper " << p << ": "
                           << best.status().ToString();
    if (!best.ok()) continue;
    out.nodes += best->nodes_explored;
    FoldAnswer(*best, &out.answers);
    FoldResult(*best, &out.digest);
    auto top3 = SolveJraBbaTopK(instance, p, 3, options);
    EXPECT_TRUE(top3.ok()) << "paper " << p;
    if (!top3.ok()) continue;
    out.nodes += (*top3)[0].nodes_explored;
    for (const JraResult& result : *top3) {
      FoldAnswer(result, &out.answers);
      FoldResult(result, &out.digest);
    }
  }
  if (rows_before >= 0) {
    out.gain_rows = CounterTotal(kGainRows) - rows_before;
    out.completion_prunes = CounterTotal(kCompletionPrunes) - prunes_before;
  }
  return out;
}

// Checks the golden on the dense instance and on its CSR twin; the work
// counts only when telemetry is on.
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
                             " answers " + std::to_string(got.answers) +
                             " digest " + std::to_string(got.digest) +
                             " gain rows " + std::to_string(got.gain_rows) +
                             " completion prunes " +
                             std::to_string(got.completion_prunes);
    EXPECT_EQ(got.nodes, golden.nodes) << line;
    EXPECT_EQ(got.answers, golden.answers) << line;
    EXPECT_EQ(got.digest, golden.digest) << line;
    if (got.gain_rows >= 0) {
      EXPECT_EQ(got.gain_rows, golden.gain_rows) << line;
      EXPECT_EQ(got.completion_prunes, golden.completion_prunes) << line;
    }
  }
}

// Six profiles repeated over 24 reviewers (ids i and i + 6k share one), so
// most sorted lists hold runs of equal values broken only by reviewer id;
// topic 5 is zero for every reviewer and the others carry zero tails.
Instance TieHeavyPool(
    ScoringFunction scoring = ScoringFunction::kWeightedCoverage) {
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
  params.scoring = scoring;
  auto instance = Instance::FromDataset(dataset, params);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

TEST(BbaGoldenTest, DensePool) {
  ExpectBbaGolden(
      PoolInstance(80, 3, 501, ScoringFunction::kWeightedCoverage, 30, 0.0, 5),
      BbaOptions{},
      {"dense R80 T30", 441, 5200600608695104018ULL,
       15150023952979713135ULL, 100, 75});
}

TEST(BbaGoldenTest, SparsePool) {
  ExpectBbaGolden(
      PoolInstance(150, 3, 502, ScoringFunction::kWeightedCoverage, 30, 0.1, 5),
      BbaOptions{},
      {"sparse R150 T30", 70, 7653826716276236951ULL,
       5067966398391116793ULL, 30, 0});
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
                  {"cP R40 T20 coi", 72, 16299865159505790384ULL,
                   13463674118134834240ULL, 32, 0});
}

TEST(BbaGoldenTest, TieHeavyPool) {
  ExpectBbaGolden(TieHeavyPool(), BbaOptions{},
                  {"ties", 42, 9518448078300898389ULL,
                   11071850748879188115ULL, 18, 0});
  Instance instance = TieHeavyPool();
  for (int r : {0, 6, 13}) instance.AddConflict(r, 1);
  ExpectBbaGolden(instance, BbaOptions{},
                  {"ties coi", 42, 14606705134981133995ULL,
                   11532467560445248749ULL, 18, 0});
}

TEST(BbaGoldenTest, AblationsPinned) {
  BbaOptions no_bounding;
  no_bounding.use_bounding = false;
  ExpectBbaGolden(
      PoolInstance(30, 3, 501, ScoringFunction::kWeightedCoverage, 8, 0.0, 4),
      no_bounding,
      {"dense R30 T8 no bounding", 39928, 6081268982871392553ULL,
       10775362908103517337ULL, 3728, 0});
  BbaOptions no_gain_branching;
  no_gain_branching.use_gain_branching = false;
  ExpectBbaGolden(
      PoolInstance(60, 3, 502, ScoringFunction::kWeightedCoverage, 30, 0.1, 4),
      no_gain_branching,
      {"sparse R60 T30 no gain branching", 5479, 5873194953057177913ULL,
       17600814351069282697ULL, 754, 564});
  ExpectBbaGolden(
      PoolInstance(25, 2, 504, ScoringFunction::kDotProduct, 12, 0.0, 3),
      no_gain_branching,
      {"cD R25 T12 no gain branching", 392, 3969276282490187913ULL,
       1527117491569721215ULL, 53, 28});
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
                  {"service_mix R189 P146 coi", 26518, 2254294539783986120ULL,
                   5206662217889168517ULL, 5537, 4475});
}

TEST(BbaGoldenTest, Db08) {
  ExpectBbaGolden(Db08Instance(), BbaOptions{},
                  {"DB08", 73970, 15883389840775724005ULL,
                   8997838015770236766ULL, 24432, 19618});
}

// Without the completion bound the search is Algorithm 1 as it stood
// before that bound: the nodes and both digests here are the goldens
// Algorithm 1 recorded on these two shapes, unchanged.
TEST(BbaGoldenTest, Algorithm1AloneOnTheServiceShapes) {
  BbaOptions eq3_only;
  eq3_only.use_completion_bound = false;
  ExpectBbaGolden(ServiceMixPool(), eq3_only,
                  {"service_mix R189 P146 coi, Eq. 3 only", 126175,
                   2254294539783986120ULL, 15770213194848979013ULL, 6214, 0});
  ExpectBbaGolden(Db08Instance(), eq3_only,
                  {"DB08, Eq. 3 only", 265147, 15883389840775724005ULL,
                   8838837991238602385ULL, 26140, 0});
}

// DB08's answers under the other three scorings, on its first four
// papers: the pruning bounds are argued per scoring.
TEST(BbaGoldenTest, Db08OtherScorings) {
  ExpectBbaGolden(Db08Instance(ScoringFunction::kReviewerCoverage),
                  BbaOptions{},
                  {"DB08 cR", 5142, 13334021381053583337ULL,
                   15821605475855168673ULL, 2140, 2140},
                  /*papers=*/4);
  ExpectBbaGolden(Db08Instance(ScoringFunction::kPaperCoverage),
                  BbaOptions{},
                  {"DB08 cP", 601, 7968829707982286756ULL,
                   5926193621461957401ULL, 195, 174},
                  /*papers=*/4);
  ExpectBbaGolden(Db08Instance(ScoringFunction::kDotProduct), BbaOptions{},
                  {"DB08 cD", 187, 14925461223899421904ULL,
                   1566534699153164167ULL, 89, 68}, /*papers=*/4);
}

TEST(BbaGoldenTest, SparseP400) {
  ExpectBbaGolden(SparseP400Instance(), BbaOptions{},
                  {"p400", 14688, 12099951677348277063ULL,
                   264164814612837731ULL, 3676, 178});
}

// Without the bound the search walks every group, C(150, 3) leaves per
// query, so that run stops each query after 10000 nodes (a deterministic
// budget: the best groups found by then are still pinned). Without gain
// branching a query still takes thousands of nodes. Both run on the
// first four papers.
TEST(BbaGoldenTest, AblationsOnTheP400Shape) {
  BbaOptions no_bounding;
  no_bounding.use_bounding = false;
  no_bounding.max_nodes = 10000;
  ExpectBbaGolden(SparseP400Instance(), no_bounding,
                  {"p400 no bounding", 80000, 12788472596037798169ULL,
                   3203088096248156909ULL, 808, 0},
                  /*papers=*/4);
  BbaOptions no_gain_branching;
  no_gain_branching.use_gain_branching = false;
  ExpectBbaGolden(SparseP400Instance(), no_gain_branching,
                  {"p400 no gain branching", 35649, 4447662439934867467ULL,
                   3362965910846954537ULL, 2434, 1946},
                  /*papers=*/4);
}

// --- Top-k edge cases against enumeration -----------------------------------
// The shapes where a pruning rule is easiest to get wrong: the last stage is
// the first (δp = 1), no slack in the pool, every group tied, and a heap
// that never fills; each against the enumeration oracle above.

const ScoringFunction kAllScorings[] = {
    ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
    ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct};

TEST(JraTopKEdgeTest, SingleReviewerGroups) {
  for (ScoringFunction scoring : kAllScorings) {
    SCOPED_TRACE(ScoringFunctionName(scoring));
    Instance instance = PoolInstance(12, 1, 601, scoring, 8, 0.0, 3);
    ExpectTopKMatchesEnumeration(instance, 1);
    ExpectTopKMatchesEnumeration(instance, 3);
  }
}

TEST(JraTopKEdgeTest, ConflictsLeaveExactlyOneGroup) {
  for (ScoringFunction scoring : kAllScorings) {
    SCOPED_TRACE(ScoringFunctionName(scoring));
    Instance instance = PoolInstance(10, 3, 602, scoring, 8, 0.0, 2);
    for (int r : {0, 2, 3, 5, 6, 8, 9}) instance.AddConflict(r, 0);
    for (int r : {1, 2, 3, 4, 5, 6, 7}) instance.AddConflict(r, 1);
    ExpectTopKMatchesEnumeration(instance, 1);
    ExpectTopKMatchesEnumeration(instance, 3);
  }
}

// The paper weighs only topic 3, which no reviewer carries: every gain is
// 0 and every group scores 0.
TEST(JraTopKEdgeTest, PaperSharingNoTopicTiesEveryGroup) {
  data::RapDataset dataset;
  dataset.num_topics = 4;
  const std::vector<std::vector<double>> profiles = {
      {0.6, 0.4, 0.0, 0.0}, {0.0, 0.5, 0.5, 0.0}, {0.2, 0.2, 0.6, 0.0},
      {1.0, 0.0, 0.0, 0.0}, {0.3, 0.3, 0.4, 0.0}, {0.0, 0.0, 1.0, 0.0},
      {0.5, 0.0, 0.5, 0.0}};
  for (size_t r = 0; r < profiles.size(); ++r) {
    dataset.reviewers.push_back({std::to_string(r), profiles[r], 1});
  }
  dataset.papers.push_back({"p", {0.0, 0.0, 0.0, 1.0}, "V"});
  for (ScoringFunction scoring : kAllScorings) {
    SCOPED_TRACE(ScoringFunctionName(scoring));
    InstanceParams params;
    params.group_size = 3;
    params.scoring = scoring;
    auto instance = Instance::FromDataset(dataset, params);
    ASSERT_TRUE(instance.ok());
    ExpectTopKMatchesEnumeration(*instance, 1);
    ExpectTopKMatchesEnumeration(*instance, 4);
    ExpectTopKMatchesEnumeration(*instance, 100);  // C(7, 3) = 35 groups
  }
}

TEST(JraTopKEdgeTest, HeapThatNeverFills) {
  for (ScoringFunction scoring : kAllScorings) {
    SCOPED_TRACE(ScoringFunctionName(scoring));
    Instance instance = PoolInstance(7, 3, 603, scoring, 8, 0.0, 2);
    instance.AddConflict(4, 1);
    // Paper 0 has C(7, 3) = 35 groups, paper 1 C(6, 3) = 20.
    ExpectTopKMatchesEnumeration(instance, 35);
    ExpectTopKMatchesEnumeration(instance, 50);
  }
}

TEST(JraTopKEdgeTest, TieHeavyPoolUnderEveryScoring) {
  for (ScoringFunction scoring : kAllScorings) {
    SCOPED_TRACE(ScoringFunctionName(scoring));
    Instance instance = TieHeavyPool(scoring);
    for (int r : {0, 6, 13}) instance.AddConflict(r, 1);
    ExpectTopKMatchesEnumeration(instance, 1);
    ExpectTopKMatchesEnumeration(instance, 3);
    ExpectTopKMatchesEnumeration(instance, 10);
  }
}

}  // namespace
}  // namespace wgrap::core
