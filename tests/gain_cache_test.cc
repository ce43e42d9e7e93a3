// Tests for the incremental marginal-gain engine (core/gain_cache.h):
// solver-level equivalence of gains=incremental vs gains=rebuild — scores
// AND assignments, compared with EXPECT_EQ on purpose, because the
// contract is bit-identical, not approximately equal — across solvers,
// topic representations and thread counts, plus row-granular invalidation
// units (COI pairs, exhausted reviewers, add/removal epochs) against a
// freshly built cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "core/registry.h"
#include "data/synthetic_dblp.h"
#include "la/transportation.h"

namespace wgrap::core {
namespace {

// `topic_density` < 1 generates genuinely sparse profiles (and the
// instance carries CSR views); 1.0 keeps the legacy dense generator and
// drops any views so the dense path is exercised even under the CI runs
// that force WGRAP_SPARSE_TOPICS=1.
Instance PoolInstance(int reviewers, int papers, int group_size,
                      uint64_t seed, double topic_density = 1.0,
                      int workload = 0) {
  data::SyntheticDblpConfig config;
  config.num_topics = 12;
  config.seed = seed;
  config.topic_density = topic_density;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  WGRAP_CHECK(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = workload;
  params.sparse_topics = topic_density < 1.0;
  auto instance = Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(instance.ok());
  if (topic_density >= 1.0) instance->DropSparseTopics();
  return std::move(instance).value();
}

void ExpectSameAssignment(const Assignment& a, const Assignment& b) {
  EXPECT_EQ(a.TotalScore(), b.TotalScore());
  for (int p = 0; p < a.instance().num_papers(); ++p) {
    EXPECT_EQ(a.GroupFor(p), b.GroupFor(p)) << "paper " << p;
  }
}

// The headline contract: for every solver that builds stage profits or
// replacement scores, `gains=incremental` reproduces `gains=rebuild`
// exactly — dense and sparse topics, 1 and 8 threads.
TEST(GainCacheTest, SolversAreBitIdenticalAcrossGainModes) {
  const auto& registry = SolverRegistry::Default();
  for (double density : {1.0, 0.25}) {
    Instance instance = PoolInstance(14, 10, 3, 401, density);
    for (const char* algo : {"sdga", "sdga-sra", "sdga-ls"}) {
      for (const char* threads : {"1", "8"}) {
        SCOPED_TRACE(std::string(algo) + " density=" +
                     std::to_string(density) + " threads=" + threads);
        SolverRunOptions rebuild;
        rebuild.seed = 77;
        rebuild.extra["threads"] = threads;
        rebuild.extra["gains"] = "rebuild";
        SolverRunOptions incremental = rebuild;
        incremental.extra["gains"] = "incremental";
        auto a = registry.SolveCra(algo, instance, rebuild);
        auto b = registry.SolveCra(algo, instance, incremental);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ExpectSameAssignment(*a, *b);
      }
    }
  }
}

// δp ∤ δr exercises the relaxed-capacity retry inside the stage loop, and
// conflicts exercise the COI masking, in both modes.
TEST(GainCacheTest, ModesAgreeWithConflictsAndUnevenWorkload) {
  Instance instance = PoolInstance(8, 10, 3, 402, /*topic_density=*/1.0,
                                   /*workload=*/4);
  for (int r = 0; r < 4; ++r) instance.AddConflict(r, 0);
  instance.AddConflict(5, 3);
  SdgaOptions rebuild;
  rebuild.gains = GainMode::kRebuild;
  SdgaOptions incremental;
  incremental.gains = GainMode::kIncremental;
  auto a = SolveCraSdga(instance, rebuild);
  auto b = SolveCraSdga(instance, incremental);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameAssignment(*a, *b);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(std::count(b->GroupFor(0).begin(), b->GroupFor(0).end(), r), 0)
        << "conflicted reviewer " << r << " assigned";
  }
}

// Bids add a modular per-pair term to every gain; both modes must carry it.
TEST(GainCacheTest, ModesAgreeWithBids) {
  Instance instance = PoolInstance(12, 8, 3, 403);
  Matrix bids(instance.num_papers(), instance.num_reviewers());
  Rng rng(9);
  for (int p = 0; p < bids.rows(); ++p) {
    for (int r = 0; r < bids.cols(); ++r) bids(p, r) = rng.NextDouble();
  }
  ASSERT_TRUE(instance.SetBids(std::move(bids), 0.5).ok());
  for (const char* algo : {"sdga", "sdga-ls"}) {
    SCOPED_TRACE(algo);
    SolverRunOptions rebuild;
    rebuild.extra["gains"] = "rebuild";
    SolverRunOptions incremental;
    incremental.extra["gains"] = "incremental";
    const auto& registry = SolverRegistry::Default();
    auto a = registry.SolveCra(algo, instance, rebuild);
    auto b = registry.SolveCra(algo, instance, incremental);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameAssignment(*a, *b);
  }
}

// Add-epoch unit: after committed Adds, a patched cache must equal a cache
// built from scratch against the mutated assignment — every scaled entry.
TEST(GainCacheTest, AddEpochPatchesMatchFreshBuild) {
  Instance instance = PoolInstance(12, 8, 2, 404, /*topic_density=*/0.3);
  ThreadPool pool(1);
  Assignment assignment(&instance);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int r = p % instance.num_reviewers();
    ASSERT_TRUE(assignment.Add(p, r).ok());
    cache.NoteAdd(p, r);
  }
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);  // patched, not rebuilt

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
  // Every paper's group vector moved, so every row is re-scored whole:
  // exactly P×R entries.
  EXPECT_EQ(cache.patched_entries(),
            static_cast<int64_t>(instance.num_papers()) *
                instance.num_reviewers());
}

// SRA removal epoch: a Remove lowers group maxima (where the victim held
// them); the patched cache must again equal a fresh build.
TEST(GainCacheTest, RemovalEpochPatchesMatchFreshBuild) {
  Instance instance = PoolInstance(12, 8, 3, 405, /*topic_density=*/0.3);
  auto solved = SolveCraSdga(instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *solved;
  ThreadPool pool(1);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int victim = assignment.GroupFor(p).front();
    ASSERT_TRUE(assignment.Remove(p, victim).ok());
    cache.NoteRemove(p, victim);
  }
  cache.Refresh(assignment, &pool);

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

// The Note(paper, reviewer) funnel is direction-less by design (see the
// header doc at NoteAdd/NoteRemove): Refresh diffs the group vector
// against its snapshot, so a remove-then-re-add epoch — whose net group
// vectors are unchanged at some papers and changed at others — must
// refresh back to the bit-identical cache a from-scratch build produces,
// without a full rebuild.
TEST(GainCacheTest, NoteDirectionIsIrrelevant) {
  Instance instance = PoolInstance(12, 8, 3, 409, /*topic_density=*/0.3);
  auto solved = SolveCraSdga(instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *solved;
  ThreadPool pool(1);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  ASSERT_EQ(cache.full_builds(), 1);
  const int T = instance.num_topics();
  int64_t moved = 0;  // papers whose group vector changed
  for (int p = 0; p < instance.num_papers(); ++p) {
    const std::vector<double> before(assignment.GroupVector(p),
                                     assignment.GroupVector(p) + T);
    const int victim = assignment.GroupFor(p).front();
    ASSERT_TRUE(assignment.Remove(p, victim).ok());
    cache.NoteRemove(p, victim);
    if (p % 2 == 0) {
      // Re-add the same reviewer: the group vector lands back exactly
      // where it was, and the second note adds no information the first
      // did not already carry.
      ASSERT_TRUE(assignment.Add(p, victim).ok());
      cache.NoteAdd(p, victim);
    }
    if (!std::equal(before.begin(), before.end(), assignment.GroupVector(p))) {
      ++moved;
    }
  }
  ASSERT_GT(moved, 0);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);  // patched, not rebuilt
  // Only the moved rows are re-scored, whole; the re-added half costs
  // zero rows.
  EXPECT_EQ(cache.patched_entries(), moved * instance.num_reviewers());

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

// COI pairs carry the sentinel and assemble as forbidden; an exhausted
// reviewer's whole column assembles as forbidden; live entries round-trip
// the exact scaled integer the rebuild path would hand the LAP.
TEST(GainCacheTest, ConflictAndExhaustedReviewerMasking) {
  Instance instance = PoolInstance(6, 4, 2, 406);
  instance.AddConflict(/*reviewer=*/2, /*paper=*/1);
  ThreadPool pool(1);
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 3).ok());
  GainCache cache(&instance);
  cache.NoteAdd(0, 3);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.ScaledGain(1, 2), GainCache::kConflictSentinel);

  std::vector<int> papers;
  for (int p = 0; p < instance.num_papers(); ++p) papers.push_back(p);
  std::vector<int> capacity(instance.num_reviewers(),
                            instance.reviewer_workload());
  capacity[4] = 0;  // exhausted
  Matrix profit;
  cache.AssembleStageProfit(papers, capacity, assignment, &pool, &profit);
  ASSERT_EQ(profit.rows(), instance.num_papers());
  ASSERT_EQ(profit.cols(), instance.num_reviewers());
  EXPECT_EQ(profit(1, 2), la::kTransportForbidden);  // COI
  for (int p = 0; p < instance.num_papers(); ++p) {
    EXPECT_EQ(profit(p, 4), la::kTransportForbidden);  // no capacity
  }
  EXPECT_EQ(profit(0, 3), la::kTransportForbidden);  // already assigned
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      if (profit(p, r) == la::kTransportForbidden) continue;
      // What the LAP re-quantizes must be the stored integer, and that
      // integer must be what a rebuild's fresh gain would scale to.
      EXPECT_EQ(la::ScaleTransportProfit(profit(p, r)),
                cache.ScaledGain(p, r));
      EXPECT_EQ(cache.ScaledGain(p, r),
                la::ScaleTransportProfit(assignment.MarginalGain(p, r)));
    }
  }
}

// ReplacementFoldCache unit: cached leave-one-out folds reproduce
// Assignment::ScoreWithReplacement bit for bit — dense and sparse, with
// bids in the mix.
TEST(GainCacheTest, ReplacementFoldCacheMatchesScoreWithReplacement) {
  for (double density : {1.0, 0.3}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    Instance instance = PoolInstance(10, 6, 3, 407, density);
    Matrix bids(instance.num_papers(), instance.num_reviewers());
    Rng rng(21);
    for (int p = 0; p < bids.rows(); ++p) {
      for (int r = 0; r < bids.cols(); ++r) bids(p, r) = rng.NextDouble();
    }
    ASSERT_TRUE(instance.SetBids(std::move(bids), 0.25).ok());
    auto solved = SolveCraSdga(instance);
    ASSERT_TRUE(solved.ok());
    const Assignment& assignment = *solved;
    ThreadPool pool(4);
    ReplacementFoldCache folds(&instance);
    std::vector<int> papers;
    for (int p = 0; p < instance.num_papers(); ++p) papers.push_back(p);
    folds.Prepare(assignment, papers, &pool);
    for (int p = 0; p < instance.num_papers(); ++p) {
      for (int drop : assignment.GroupFor(p)) {
        for (int add = 0; add < instance.num_reviewers(); ++add) {
          if (add == drop || assignment.Contains(p, add)) continue;
          EXPECT_EQ(folds.Score(p, drop, add),
                    assignment.ScoreWithReplacement(p, drop, add))
              << "p=" << p << " drop=" << drop << " add=" << add;
        }
      }
    }
  }
}

// The incremental path is itself thread-count invariant (the rebuild
// equivalence above pins it to the rebuild path at each thread count; this
// pins incremental-1 to incremental-8 directly on a sparse instance).
TEST(GainCacheTest, IncrementalModeIsThreadCountInvariant) {
  Instance instance = PoolInstance(16, 12, 3, 408, /*topic_density=*/0.25);
  const auto& registry = SolverRegistry::Default();
  for (const char* algo : {"sdga", "sdga-sra"}) {
    SCOPED_TRACE(algo);
    SolverRunOptions one;
    one.seed = 5;
    one.extra["gains"] = "incremental";
    one.extra["threads"] = "1";
    SolverRunOptions eight = one;
    eight.extra["threads"] = "8";
    auto a = registry.SolveCra(algo, instance, one);
    auto b = registry.SolveCra(algo, instance, eight);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameAssignment(*a, *b);
  }
}

}  // namespace
}  // namespace wgrap::core
