// Tests for the sparse topic subsystem (src/sparse/): CSR construction,
// bit-exact dense↔sparse kernel equivalence for all four scoring functions
// of Table 5, and the end-to-end property that an instance carrying sparse
// views produces *identical* scores and assignments through every solver
// path. Equality here is EXPECT_EQ on doubles on purpose — the contract is
// bit-identical, not approximately equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/registry.h"
#include "core/wgrap.h"
#include "data/synthetic_dblp.h"
#include "sparse/sparse_matrix.h"
#include "sparse/sparse_scoring.h"
#include "sparse/topic_index.h"

namespace wgrap {
namespace {

using core::ScoringFunction;

constexpr ScoringFunction kAllScorings[] = {
    ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
    ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct};

// A length-T vector with `nnz` strictly positive entries at random topics.
std::vector<double> RandomSparseVector(int num_topics, int nnz, Rng* rng) {
  std::vector<double> v(num_topics, 0.0);
  for (int k = 0; k < nnz; ++k) {
    int t;
    do {
      t = static_cast<int>(rng->NextBounded(num_topics));
    } while (v[t] > 0.0);
    v[t] = 0.05 + rng->NextDouble();
  }
  return v;
}

TEST(SparseTopicMatrixTest, FromMatrixCompressesAndRoundTrips) {
  Matrix dense(3, 5, 0.0);
  dense(0, 1) = 0.5;
  dense(0, 4) = 0.25;
  dense(2, 0) = 1.5;  // row 1 stays empty
  const auto csr = sparse::SparseTopicMatrix::FromMatrix(dense);
  EXPECT_EQ(csr.rows(), 3);
  EXPECT_EQ(csr.cols(), 5);
  EXPECT_EQ(csr.nnz(), 3);
  EXPECT_EQ(csr.RowNnz(0), 2);
  EXPECT_EQ(csr.RowNnz(1), 0);
  EXPECT_EQ(csr.RowNnz(2), 1);
  EXPECT_DOUBLE_EQ(csr.Density(), 3.0 / 15.0);
  const sparse::SparseVector row0 = csr.Row(0);
  ASSERT_EQ(row0.nnz, 2);
  EXPECT_EQ(row0.ids[0], 1);  // sorted ascending
  EXPECT_EQ(row0.ids[1], 4);
  EXPECT_EQ(row0.values[0], 0.5);
  EXPECT_EQ(row0.dim, 5);

  // The CSC inverted index is the exact transpose: same entries, reached
  // by column.
  const sparse::TopicIndex index = sparse::TopicIndex::FromMatrix(dense);
  EXPECT_EQ(index.num_rows(), 3);
  EXPECT_EQ(index.num_topics(), 5);
  EXPECT_EQ(index.nnz(), 3);
  for (int t = 0; t < 5; ++t) {
    const sparse::SparseVector column = index.Column(t);
    EXPECT_EQ(column.dim, 3);
    int expected_degree = 0;
    for (int r = 0; r < 3; ++r) {
      if (dense(r, t) > 0.0) ++expected_degree;
    }
    ASSERT_EQ(column.nnz, expected_degree) << "topic " << t;
    for (int k = 0; k < column.nnz; ++k) {
      if (k > 0) {
        EXPECT_LT(column.ids[k - 1], column.ids[k]);  // sorted
      }
      EXPECT_EQ(column.values[k], dense(column.ids[k], t));
    }
  }
  const Matrix round_trip = csr.ToMatrix();
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) EXPECT_EQ(round_trip(r, c), dense(r, c));
  }
}

TEST(SparseTopicMatrixTest, FromTriplesSortsAndValidates) {
  // Unsorted triples, including a zero entry that must be dropped.
  std::vector<sparse::SparseTriple> triples = {
      {1, 3, 0.2}, {0, 2, 0.7}, {1, 0, 0.1}, {0, 0, 0.0}};
  auto csr = sparse::SparseTopicMatrix::FromTriples(2, 4, triples);
  ASSERT_TRUE(csr.ok()) << csr.status().ToString();
  EXPECT_EQ(csr->nnz(), 3);
  const sparse::SparseVector row1 = csr->Row(1);
  ASSERT_EQ(row1.nnz, 2);
  EXPECT_EQ(row1.ids[0], 0);
  EXPECT_EQ(row1.ids[1], 3);
  EXPECT_EQ(row1.values[1], 0.2);

  EXPECT_EQ(sparse::SparseTopicMatrix::FromTriples(2, 4, {{2, 0, 0.1}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // row out of range
  EXPECT_EQ(sparse::SparseTopicMatrix::FromTriples(2, 4, {{0, 4, 0.1}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // topic out of range
  EXPECT_EQ(sparse::SparseTopicMatrix::FromTriples(2, 4, {{0, 1, -0.5}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // negative value
  EXPECT_EQ(sparse::SparseTopicMatrix::FromTriples(
                2, 4, {{0, 1, 0.5}, {0, 1, 0.5}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // duplicate (row, topic)
}

// ScoreSparse must equal ScoreVectors bit for bit, for every scoring
// function, across sparsity levels from near-empty to fully dense.
TEST(SparseKernelTest, PairScoreIsBitIdenticalToDense) {
  Rng rng(101);
  const int T = 40;
  for (ScoringFunction f : kAllScorings) {
    for (int trial = 0; trial < 50; ++trial) {
      const int nnz_r = 1 + static_cast<int>(rng.NextBounded(T));
      const int nnz_p = 1 + static_cast<int>(rng.NextBounded(T));
      const auto r = RandomSparseVector(T, nnz_r, &rng);
      const auto p = RandomSparseVector(T, nnz_p, &rng);
      double mass = 0.0;
      for (double x : p) mass += x;
      Matrix rm(1, T), pm(1, T);
      for (int t = 0; t < T; ++t) {
        rm(0, t) = r[t];
        pm(0, t) = p[t];
      }
      const auto rs = sparse::SparseTopicMatrix::FromMatrix(rm);
      const auto ps = sparse::SparseTopicMatrix::FromMatrix(pm);
      const double dense =
          core::ScoreVectors(f, r.data(), p.data(), T, mass);
      const double sparse_score =
          sparse::ScoreSparse(f, rs.Row(0), ps.Row(0), mass);
      EXPECT_EQ(dense, sparse_score)
          << core::ScoringFunctionName(f) << " trial " << trial;
    }
  }
}

TEST(SparseKernelTest, MarginalGainIsBitIdenticalToDense) {
  Rng rng(202);
  const int T = 40;
  for (ScoringFunction f : kAllScorings) {
    for (int trial = 0; trial < 50; ++trial) {
      const auto group = RandomSparseVector(
          T, static_cast<int>(rng.NextBounded(T + 1)), &rng);
      const auto reviewer = RandomSparseVector(
          T, 1 + static_cast<int>(rng.NextBounded(T)), &rng);
      const auto paper = RandomSparseVector(
          T, 1 + static_cast<int>(rng.NextBounded(T)), &rng);
      double mass = 0.0;
      for (double x : paper) mass += x;
      Matrix rm(1, T);
      for (int t = 0; t < T; ++t) rm(0, t) = reviewer[t];
      const auto rs = sparse::SparseTopicMatrix::FromMatrix(rm);
      const double dense = core::MarginalGainVectors(
          f, group.data(), reviewer.data(), paper.data(), T, mass);
      const double sparse_gain = sparse::MarginalGainSparse(
          f, group.data(), rs.Row(0), paper.data(), mass);
      EXPECT_EQ(dense, sparse_gain)
          << core::ScoringFunctionName(f) << " trial " << trial;
    }
  }
}

// The dense-accumulator group variant: folding δp member rows and scoring
// must match the dense element-wise max + ScoreVectors pipeline exactly.
TEST(SparseKernelTest, GroupAccumulatorIsBitIdenticalToDense) {
  Rng rng(303);
  const int T = 40;
  sparse::SparseGroupAccumulator accumulator;  // reused across trials
  for (ScoringFunction f : kAllScorings) {
    for (int trial = 0; trial < 30; ++trial) {
      const int group_size = 1 + static_cast<int>(rng.NextBounded(4));
      Matrix members(group_size, T, 0.0);
      std::vector<double> dense_max(T, 0.0);
      for (int g = 0; g < group_size; ++g) {
        const auto v = RandomSparseVector(
            T, 1 + static_cast<int>(rng.NextBounded(T)), &rng);
        for (int t = 0; t < T; ++t) {
          members(g, t) = v[t];
          dense_max[t] = std::max(dense_max[t], v[t]);
        }
      }
      const auto paper = RandomSparseVector(
          T, 1 + static_cast<int>(rng.NextBounded(T)), &rng);
      double mass = 0.0;
      for (double x : paper) mass += x;
      Matrix pm(1, T);
      for (int t = 0; t < T; ++t) pm(0, t) = paper[t];
      const auto members_csr = sparse::SparseTopicMatrix::FromMatrix(members);
      const auto paper_csr = sparse::SparseTopicMatrix::FromMatrix(pm);

      accumulator.Reset(T);
      for (int g = 0; g < group_size; ++g) {
        accumulator.Fold(members_csr.Row(g));
      }
      const double dense_score =
          core::ScoreVectors(f, dense_max.data(), paper.data(), T, mass);
      EXPECT_EQ(dense_score, accumulator.Score(f, paper_csr.Row(0), mass))
          << core::ScoringFunctionName(f) << " trial " << trial;

      // The sorted support and its values reproduce the dense max.
      const std::vector<int>& support = accumulator.SortedTouched();
      EXPECT_TRUE(std::is_sorted(support.begin(), support.end()));
      std::vector<double> scattered(T, 0.0);
      for (int t : support) scattered[t] = accumulator.ValueAt(t);
      for (int t = 0; t < T; ++t) EXPECT_EQ(scattered[t], dense_max[t]);
    }
  }
}

// --- end-to-end dense↔sparse equivalence -----------------------------------

core::Instance PoolInstance(int reviewers, int papers, ScoringFunction f,
                            double density, uint64_t seed, bool sparse_views) {
  data::SyntheticDblpConfig config;
  config.num_topics = 12;
  config.seed = seed;
  config.topic_density = density;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  WGRAP_CHECK(dataset.ok());
  core::InstanceParams params;
  params.group_size = 3;
  params.scoring = f;
  params.sparse_topics = sparse_views;
  auto instance = core::Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(instance.ok());
  // Make the dense twin dense even when CI forces WGRAP_SPARSE_TOPICS=1 —
  // the comparison below needs one genuinely dense execution.
  if (!sparse_views) instance->DropSparseTopics();
  return std::move(instance).value();
}

// The tentpole property: for every scoring function, solving on an
// instance with sparse views yields exactly the same assignment (groups
// and total score) as the dense path — across constructive solvers,
// refiners and the JRA line-up.
TEST(SparseEquivalenceTest, SolversMatchDensePathExactly) {
  const auto& registry = core::SolverRegistry::Default();
  int config_index = 0;
  for (ScoringFunction f : kAllScorings) {
    for (double density : {0.25, 0.0}) {  // sparse profiles and dense ones
      SCOPED_TRACE(core::ScoringFunctionName(f) + " density " +
                   std::to_string(density));
      const uint64_t seed = 900 + config_index++;
      const core::Instance dense =
          PoolInstance(12, 9, f, density, seed, /*sparse_views=*/false);
      const core::Instance sparse_twin =
          PoolInstance(12, 9, f, density, seed, /*sparse_views=*/true);
      ASSERT_FALSE(dense.has_sparse_topics());
      ASSERT_TRUE(sparse_twin.has_sparse_topics());

      for (const char* algo : {"greedy", "brgg", "sdga", "sdga-sra",
                               "sdga-ls", "sm", "ilp"}) {
        SCOPED_TRACE(algo);
        core::SolverRunOptions dense_options;
        core::SolverRunOptions sparse_options;
        sparse_options.extra["topics"] = "sparse";
        auto a = registry.SolveCra(algo, dense, dense_options);
        auto b = registry.SolveCra(algo, sparse_twin, sparse_options);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_EQ(a->TotalScore(), b->TotalScore());
        for (int p = 0; p < dense.num_papers(); ++p) {
          EXPECT_EQ(a->GroupFor(p), b->GroupFor(p)) << "paper " << p;
          EXPECT_EQ(a->PaperScore(p), b->PaperScore(p)) << "paper " << p;
        }
      }
      for (const char* algo : {"bba", "bfs", "jra-cp"}) {
        SCOPED_TRACE(algo);
        auto a = registry.SolveJra(algo, dense, /*paper=*/2);
        core::SolverRunOptions sparse_options;
        sparse_options.extra["topics"] = "sparse";
        auto b = registry.SolveJra(algo, sparse_twin, 2, sparse_options);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_EQ(a->score, b->score);
        EXPECT_EQ(a->group, b->group);
      }
      {
        // BBA top-3: the per-node gain and the prefix fold over the
        // instance's primitives, on both twins.
        core::SolverRunOptions sparse_options;
        sparse_options.extra["topics"] = "sparse";
        auto a = registry.SolveJraTopK("bba", dense, /*paper=*/2, 3);
        auto b = registry.SolveJraTopK("bba", sparse_twin, 2, 3,
                                       sparse_options);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ASSERT_EQ(a->size(), b->size());
        for (size_t i = 0; i < a->size(); ++i) {
          EXPECT_EQ((*a)[i].score, (*b)[i].score) << "rank " << i;
          EXPECT_EQ((*a)[i].group, (*b)[i].group) << "rank " << i;
        }
      }
      for (const char* gains : {"incremental", "rebuild"}) {
        // sdga-ls scores its moves through the ReplacementFoldCache under
        // gains=incremental and through ScoreWithReplacement under
        // gains=rebuild; both twins must walk the same trajectory.
        SCOPED_TRACE(std::string("sdga-ls gains=") + gains);
        core::SolverRunOptions dense_options;
        dense_options.seed = 17;
        dense_options.extra["gains"] = gains;
        dense_options.extra["threads"] = "4";
        core::SolverRunOptions sparse_options = dense_options;
        sparse_options.extra["topics"] = "sparse";
        auto a = registry.SolveCra("sdga-ls", dense, dense_options);
        auto b = registry.SolveCra("sdga-ls", sparse_twin, sparse_options);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_EQ(a->TotalScore(), b->TotalScore());
        for (int p = 0; p < dense.num_papers(); ++p) {
          EXPECT_EQ(a->GroupFor(p), b->GroupFor(p)) << "paper " << p;
        }
      }
      // Metrics path: the ideal assignment is bit-identical too.
      auto ideal_dense = core::BuildIdealAssignment(dense);
      auto ideal_sparse = core::BuildIdealAssignment(sparse_twin);
      ASSERT_TRUE(ideal_dense.ok() && ideal_sparse.ok());
      EXPECT_EQ(ideal_dense->TotalScore(), ideal_sparse->TotalScore());
    }
  }
}

TEST(SparseEquivalenceTest, PairScoreAndScoreGroupDispatchExactly) {
  const core::Instance dense = PoolInstance(
      10, 6, ScoringFunction::kWeightedCoverage, 0.3, 55, false);
  const core::Instance sparse_twin = PoolInstance(
      10, 6, ScoringFunction::kWeightedCoverage, 0.3, 55, true);
  for (int p = 0; p < dense.num_papers(); ++p) {
    for (int r = 0; r < dense.num_reviewers(); ++r) {
      EXPECT_EQ(dense.PairScore(r, p), sparse_twin.PairScore(r, p));
    }
    EXPECT_EQ(core::ScoreGroup(dense, p, {0, 3, 7}),
              core::ScoreGroup(sparse_twin, p, {0, 3, 7}));
  }
}

TEST(SparseInstanceTest, BuildAndDropSparseViews) {
  core::Instance instance = PoolInstance(
      8, 5, ScoringFunction::kWeightedCoverage, 0.0, 77, false);
  EXPECT_FALSE(instance.has_sparse_topics());
  instance.BuildSparseTopics();
  ASSERT_TRUE(instance.has_sparse_topics());
  instance.BuildSparseTopics();  // idempotent
  const sparse::SparseVector row = instance.ReviewerSparse(0);
  EXPECT_GT(row.nnz, 0);
  EXPECT_EQ(row.dim, instance.num_topics());
  // Sparse rows mirror the dense matrix exactly.
  const double* dense_row = instance.ReviewerVector(0);
  for (int k = 0; k < row.nnz; ++k) {
    EXPECT_EQ(row.values[k], dense_row[row.ids[k]]);
  }
  instance.DropSparseTopics();
  EXPECT_FALSE(instance.has_sparse_topics());
  // The CSC reviewer index is instance state either way: building or
  // dropping the CSR views leaves it whole.
  int64_t nnz = 0;
  for (int r = 0; r < instance.num_reviewers(); ++r) {
    for (int t = 0; t < instance.num_topics(); ++t) {
      if (instance.ReviewerVector(r)[t] > 0.0) ++nnz;
    }
  }
  EXPECT_EQ(instance.ReviewerTopicIndex().num_rows(),
            instance.num_reviewers());
  EXPECT_EQ(instance.ReviewerTopicIndex().nnz(), nnz);
}

TEST(SparseDatasetTest, TopicDensityControlsSupport) {
  data::SyntheticDblpConfig config;
  config.num_topics = 30;
  config.seed = 3;
  config.topic_density = 0.1;
  auto dataset = data::GenerateReviewerPool(20, 15, config);
  ASSERT_TRUE(dataset.ok());
  const data::TopicDensityReport report =
      data::MeasureTopicDensity(*dataset);
  EXPECT_EQ(report.num_topics, 30);
  // ⌈0.1 · 30⌉ = 3 nonzeros per row, exactly.
  EXPECT_DOUBLE_EQ(report.reviewer_avg_nnz, 3.0);
  EXPECT_DOUBLE_EQ(report.paper_avg_nnz, 3.0);
  ASSERT_TRUE(dataset->Validate().ok());

  config.topic_density = 0.0;  // legacy dense draws
  auto dense_dataset = data::GenerateReviewerPool(20, 15, config);
  ASSERT_TRUE(dense_dataset.ok());
  const data::TopicDensityReport dense_report =
      data::MeasureTopicDensity(*dense_dataset);
  EXPECT_GT(dense_report.reviewer_avg_nnz, 20.0);

  config.topic_density = 1.5;  // out of range
  EXPECT_EQ(data::GenerateReviewerPool(20, 15, config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wgrap
