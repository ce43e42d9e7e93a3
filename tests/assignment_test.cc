// Assignment container tests: incremental group-vector and score
// maintenance, add/remove invariants, capacity and COI enforcement, a
// randomized consistency property against recomputation from scratch, and
// the bitwise identity of the MarginalGainRow row kernel with the
// per-pair MarginalGain, on light (CSC walk) and heavy (dense kernel)
// topic columns alike; FromPairs against the AddUnchecked replay it
// replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/assignment.h"
#include "core/jra.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"

namespace wgrap::core {
namespace {

data::RapDataset TinyDataset() {
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r0", {0.1, 0.5, 0.4}, 1});
  dataset.reviewers.push_back({"r1", {1.0, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"r2", {0.0, 1.0, 0.0}, 1});
  dataset.papers.push_back({"p0", {0.6, 0.0, 0.4}, "V"});
  dataset.papers.push_back({"p1", {0.5, 0.5, 0.0}, "V"});
  dataset.papers.push_back({"p2", {0.5, 0.5, 0.0}, "V"});
  return dataset;
}

Instance MakeInstance(int group_size = 2, int workload = 2) {
  InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = workload;
  auto instance = Instance::FromDataset(TinyDataset(), params);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

TEST(AssignmentTest, StartsEmpty) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  EXPECT_EQ(assignment.size(), 0);
  EXPECT_DOUBLE_EQ(assignment.TotalScore(), 0.0);
  EXPECT_TRUE(assignment.GroupFor(0).empty());
  EXPECT_EQ(assignment.LoadOf(0), 0);
}

TEST(AssignmentTest, AddUpdatesGroupVectorAndScore) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 1).ok());  // r1 = (1,0,0) on p0 = (.6,0,.4)
  EXPECT_EQ(assignment.size(), 1);
  EXPECT_NEAR(assignment.PaperScore(0), 0.6, 1e-12);
  EXPECT_NEAR(assignment.GroupVector(0)[0], 1.0, 1e-12);
  ASSERT_TRUE(assignment.Add(0, 0).ok());  // r0 adds the t3 coverage
  EXPECT_NEAR(assignment.PaperScore(0), 1.0, 1e-12);
  EXPECT_NEAR(assignment.TotalScore(), 1.0, 1e-12);
}

TEST(AssignmentTest, DuplicateAddRejected) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 1).ok());
  EXPECT_EQ(assignment.Add(0, 1).code(), StatusCode::kFailedPrecondition);
}

TEST(AssignmentTest, GroupSizeEnforced) {
  Instance instance = MakeInstance(/*group_size=*/1);
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 1).ok());
  EXPECT_EQ(assignment.Add(0, 2).code(), StatusCode::kFailedPrecondition);
}

TEST(AssignmentTest, WorkloadEnforced) {
  Instance instance = MakeInstance(/*group_size=*/2, /*workload=*/2);
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 1).ok());
  ASSERT_TRUE(assignment.Add(1, 1).ok());
  EXPECT_EQ(assignment.Add(2, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(assignment.LoadOf(1), 2);
}

TEST(AssignmentTest, AddUncheckedIgnoresCapacity) {
  Instance instance = MakeInstance(/*group_size=*/1, /*workload=*/1);
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.AddUnchecked(0, 1).ok());
  ASSERT_TRUE(assignment.AddUnchecked(1, 1).ok());  // over workload: allowed
  ASSERT_TRUE(assignment.AddUnchecked(2, 1).ok());
  EXPECT_EQ(assignment.LoadOf(1), 3);
}

TEST(AssignmentTest, ConflictRejectedEvenUnchecked) {
  Instance instance = MakeInstance();
  instance.AddConflict(1, 0);
  Assignment assignment(&instance);
  EXPECT_EQ(assignment.Add(0, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(assignment.AddUnchecked(0, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(AssignmentTest, RemoveRestoresState) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 1).ok());
  ASSERT_TRUE(assignment.Add(0, 0).ok());
  const double with_both = assignment.PaperScore(0);
  ASSERT_TRUE(assignment.Remove(0, 0).ok());
  EXPECT_EQ(assignment.size(), 1);
  EXPECT_NEAR(assignment.PaperScore(0), 0.6, 1e-12);
  EXPECT_LT(assignment.PaperScore(0), with_both);
  EXPECT_EQ(assignment.LoadOf(0), 0);
  // Group vector recomputed: topic 1 contribution of r0 gone.
  EXPECT_NEAR(assignment.GroupVector(0)[1], 0.0, 1e-12);
}

TEST(AssignmentTest, RemoveMissingPairFails) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  EXPECT_EQ(assignment.Remove(0, 1).code(), StatusCode::kNotFound);
}

TEST(AssignmentTest, OutOfRangeIdsRejected) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  EXPECT_EQ(assignment.Add(-1, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(assignment.Add(0, 9).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(assignment.Remove(5, 0).code(), StatusCode::kOutOfRange);
}

TEST(AssignmentTest, MarginalGainMatchesAddDelta) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(1, 1).ok());
  const double gain = assignment.MarginalGain(1, 2);
  const double before = assignment.TotalScore();
  ASSERT_TRUE(assignment.Add(1, 2).ok());
  EXPECT_NEAR(assignment.TotalScore() - before, gain, 1e-12);
}

TEST(AssignmentTest, ValidateCompleteDetectsUnderfilledGroup) {
  Instance instance = MakeInstance();
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 1).ok());
  EXPECT_EQ(assignment.ValidateComplete().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AssignmentTest, RandomizedConsistencyAgainstRecomputation) {
  // Random add/remove churn; cached scores must always equal ScoreGroup.
  data::SyntheticDblpConfig config;
  config.num_topics = 8;
  auto dataset = data::GenerateReviewerPool(12, 6, config);
  ASSERT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = 4;
  params.reviewer_workload = 12;
  auto instance = Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(instance.ok());

  Assignment assignment(&*instance);
  Rng rng(77);
  for (int step = 0; step < 500; ++step) {
    const int p = static_cast<int>(rng.NextBounded(6));
    const int r = static_cast<int>(rng.NextBounded(12));
    if (rng.NextDouble() < 0.6) {
      (void)assignment.Add(p, r);  // may legitimately fail
    } else {
      (void)assignment.Remove(p, r);
    }
    if (step % 50 == 0) {
      double total = 0.0;
      for (int q = 0; q < 6; ++q) {
        const double expected =
            assignment.GroupFor(q).empty()
                ? 0.0
                : ScoreGroup(*instance, q, assignment.GroupFor(q));
        ASSERT_NEAR(assignment.PaperScore(q), expected, 1e-9);
        total += expected;
      }
      ASSERT_NEAR(assignment.TotalScore(), total, 1e-9);
    }
  }
}

// Every entry of MarginalGainRow must carry MarginalGain's exact bits —
// compared with memcmp, so even a +0.0/-0.0 or last-ulp drift fails.
void ExpectRowMatchesPerPair(const Assignment& assignment, int paper,
                             const std::string& what) {
  const int R = assignment.instance().num_reviewers();
  std::vector<double> row(R, -7.0);  // stale garbage the kernel overwrites
  assignment.MarginalGainRow(paper, row.data());
  for (int r = 0; r < R; ++r) {
    const double expected = assignment.MarginalGain(paper, r);
    EXPECT_EQ(std::memcmp(&row[r], &expected, sizeof(double)), 0)
        << what << " paper " << paper << " reviewer " << r << ": "
        << row[r] << " vs " << expected;
  }
}

constexpr ScoringFunction kAllScorings[] = {
    ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
    ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct};

TEST(MarginalGainRowTest, MatchesPerPairGainBitwise) {
  // Dense and sparse views, all four scorings, bids on and off, COIs, and
  // every group size 0..δp (the rows are checked before each fill step),
  // on generated pools and on one whose topic columns straddle the heavy
  // threshold: heavy topics take the dense kernel, light ones the CSC id
  // walk. The suite runs once more under WGRAP_SIMD=0
  // (tests/CMakeLists.txt), so both kernel backends are pinned.
  std::vector<std::pair<std::string, data::RapDataset>> datasets;
  for (const double density : {1.0, 0.3}) {
    data::SyntheticDblpConfig config;
    config.num_topics = 12;
    config.seed = 31;
    config.topic_density = density;
    auto dataset = data::GenerateReviewerPool(14, 9, config);
    ASSERT_TRUE(dataset.ok());
    datasets.emplace_back("density " + std::to_string(density), *dataset);
  }
  datasets.emplace_back("straddling", MakeStraddlingDataset(
                                          /*reviewers=*/16, /*papers=*/10,
                                          /*seed=*/41));
  for (const auto& [name, dataset] : datasets) {
    for (const ScoringFunction f : kAllScorings) {
      for (const bool sparse_views : {false, true}) {
        for (const bool bids : {false, true}) {
          InstanceParams params;
          params.group_size = 3;
          params.scoring = f;
          auto instance = Instance::FromDataset(dataset, params);
          ASSERT_TRUE(instance.ok());
          if (sparse_views) {
            instance->BuildSparseTopics();
          } else {
            instance->DropSparseTopics();
          }
          const sparse::TopicIndex& index = instance->ReviewerTopicIndex();
          ASSERT_EQ(DenseColumnMismatch(index), "");
          if (name == "straddling") {
            ASSERT_EQ(index.ColumnNnz(1) *
                          sparse::TopicIndex::kHeavyColumnDivisor,
                      index.num_rows());
            ASSERT_NE(index.DenseColumn(1), nullptr);  // exactly at it
            ASSERT_EQ(index.DenseColumn(2), nullptr);  // one carrier short
          }
          Rng rng(5);
          const int P = instance->num_papers();
          const int R = instance->num_reviewers();
          for (int p = 0; p < P; ++p) {
            for (int r = 0; r < R; ++r) {
              if (rng.NextDouble() < 0.15) instance->AddConflict(r, p);
            }
          }
          if (bids) {
            Matrix bid(P, R);
            for (int p = 0; p < P; ++p) {
              for (int r = 0; r < R; ++r) bid(p, r) = rng.NextDouble();
            }
            ASSERT_TRUE(instance->SetBids(std::move(bid), 0.4).ok());
          }
          const std::string what = ScoringFunctionName(f) + " " + name +
                                   (sparse_views ? " sparse" : " dense") +
                                   (bids ? " bids" : "");
          Assignment assignment(&*instance);
          for (int size = 0; size <= params.group_size; ++size) {
            for (int p = 0; p < P; ++p) {
              ExpectRowMatchesPerPair(assignment, p,
                                      what + " size " + std::to_string(size));
            }
            if (size == params.group_size) break;
            for (int p = 0; p < P; ++p) {
              // A deterministic non-member, non-COI reviewer per step.
              for (int k = 0; k < R; ++k) {
                const int r = (p * 5 + size * 3 + k) % R;
                if (assignment.AddUnchecked(p, r).ok()) break;
              }
            }
          }
        }
      }
    }
  }
}

TEST(MarginalGainRowTest, HandMadeEdgeRows) {
  // Topic 0: a reviewer exactly at the group max (gated out by r > g).
  // Topic 1: group max above the paper weight (no c/cP gain; cR and cD
  //          still gain).
  // Topic 2: zero paper weight with a reviewer beating the group — cR
  //          gains r − g there and must not skip it; cD has p_t = 0.
  // Topic 3: the only topic every scoring gains on.
  data::RapDataset dataset;
  dataset.num_topics = 4;
  dataset.reviewers.push_back({"member", {0.3, 0.5, 0.1, 0.05}, 1});
  dataset.reviewers.push_back({"at_max", {0.3, 0.0, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"above_p", {0.0, 0.7, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"zero_p", {0.0, 0.0, 0.6, 0.0}, 1});
  dataset.reviewers.push_back({"mixed", {0.4, 0.9, 0.8, 0.3}, 1});
  dataset.reviewers.push_back({"empty_gain", {0.2, 0.1, 0.05, 0.01}, 1});
  dataset.papers.push_back({"p", {0.5, 0.2, 0.0, 0.3}, "V"});
  dataset.papers.push_back({"q", {0.0, 0.0, 0.0, 1.0}, "V"});
  for (const ScoringFunction f : kAllScorings) {
    for (const bool sparse_views : {false, true}) {
      InstanceParams params;
      params.group_size = 2;
      params.reviewer_workload = 2;
      params.scoring = f;
      auto instance = Instance::FromDataset(dataset, params);
      ASSERT_TRUE(instance.ok());
      if (sparse_views) {
        instance->BuildSparseTopics();
      } else {
        instance->DropSparseTopics();
      }
      instance->AddConflict(/*reviewer=*/4, /*paper=*/1);
      Assignment assignment(&*instance);
      ASSERT_TRUE(assignment.Add(0, 0).ok());
      ASSERT_TRUE(assignment.Add(1, 0).ok());
      const std::string what = ScoringFunctionName(f) +
                               (sparse_views ? " sparse" : " dense");
      ExpectRowMatchesPerPair(assignment, 0, what);
      ExpectRowMatchesPerPair(assignment, 1, what);
      if (f == ScoringFunction::kReviewerCoverage) {
        // The zero-weight topic is cR's whole gain for "zero_p".
        EXPECT_GT(assignment.MarginalGain(0, 3), 0.0);
      }
    }
  }
}

// FromPairs must be the replay it replaces, bit for bit: on valid lists
// the same groups, vectors, scores and total as AddUnchecked per pair plus
// RecomputeAll; on a bad list (out of range, duplicate, COI, anywhere in
// the list) the replay's first error, code and message.
TEST(FromPairsTest, MatchesTheAddUncheckedReplay) {
  for (const bool sparse : {false, true}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      FuzzInstanceConfig config;
      config.reviewers = 14;
      config.papers = 9;
      config.num_topics = 11;
      config.group_size = 3;
      config.conflict_rate = 0.15;
      config.with_bids = seed % 2 == 0;
      config.sparse_topics = sparse;
      config.seed = seed;
      auto instance = MakeFuzzInstance(config);
      ASSERT_TRUE(instance.ok()) << instance.status().ToString();
      const int P = instance->num_papers();
      const int R = instance->num_reviewers();
      Rng rng(seed * 131 + (sparse ? 1 : 0));
      for (int trial = 0; trial < 60; ++trial) {
        // Random pairs, mostly valid; a third of the lists get one bad
        // pair at a random spot.
        std::vector<std::pair<int, int>> pairs;
        const int count = rng.NextInt(0, P * 4);
        for (int k = 0; k < count; ++k) {
          const int p = rng.NextInt(0, P - 1);
          const int r = rng.NextInt(0, R - 1);
          const bool taken =
              std::find(pairs.begin(), pairs.end(), std::make_pair(p, r)) !=
              pairs.end();
          if (!taken && !instance->IsConflict(r, p)) pairs.emplace_back(p, r);
        }
        if (trial % 3 == 2) {
          const size_t at = rng.NextBounded(pairs.size() + 1);
          std::pair<int, int> bad;
          switch (rng.NextInt(0, 3)) {
            case 0:
              bad = {P, 0};
              break;
            case 1:
              bad = {0, -1};
              break;
            case 2:
              bad = pairs.empty() ? std::make_pair(-1, 0)
                                  : pairs[rng.NextBounded(pairs.size())];
              break;
            default: {
              bad = {-1, R};
              for (int p = 0; p < P; ++p) {
                for (int r = 0; r < R; ++r) {
                  if (instance->IsConflict(r, p)) bad = {p, r};
                }
              }
            }
          }
          pairs.insert(pairs.begin() + static_cast<std::ptrdiff_t>(at), bad);
        }
        const std::string where = std::string(sparse ? "sparse" : "dense") +
                                  " seed " + std::to_string(seed) +
                                  " trial " + std::to_string(trial);
        auto built = Assignment::FromPairs(&*instance, pairs);
        auto replayed = ReplayPairs(&*instance, pairs);
        ASSERT_EQ(built.ok(), replayed.ok()) << where;
        if (!replayed.ok()) {
          EXPECT_EQ(built.status().code(), replayed.status().code()) << where;
          EXPECT_EQ(built.status().message(), replayed.status().message())
              << where;
          continue;
        }
        EXPECT_EQ(AssignmentMismatch(*built, *replayed), "") << where;
        // Pairs() lists the groups back; FromPairs of that is the same.
        auto again = Assignment::FromPairs(&*instance, built->Pairs());
        ASSERT_TRUE(again.ok()) << where;
        EXPECT_EQ(AssignmentMismatch(*again, *built), "") << where;
      }
    }
  }
}

}  // namespace
}  // namespace wgrap::core
