// Reproducibility and COI-agreement checks that cut across solvers:
// seeded SRA determinism, seed sensitivity, thread-count invariance of the
// parallel solvers and samplers, ILP/CP honouring conflicts, and JRA
// solver agreement in the presence of conflicts.
#include <gtest/gtest.h>

#include "core/cra.h"
#include "core/jra.h"
#include "core/registry.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"
#include "topic/atm.h"
#include "topic/synthetic.h"

namespace wgrap::core {
namespace {

TEST(DeterminismTest, SraSameSeedSameResult) {
  Instance instance = SeededPool(10, 8, 3, 301);
  auto sdga = SolveCraSdga(instance);
  ASSERT_TRUE(sdga.ok());
  SraOptions options;
  options.max_iterations = 15;
  options.seed = 99;
  auto a = RefineSra(instance, *sdga, options);
  auto b = RefineSra(instance, *sdga, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->TotalScore(), b->TotalScore());
  for (int p = 0; p < instance.num_papers(); ++p) {
    EXPECT_EQ(a->GroupFor(p), b->GroupFor(p)) << "paper " << p;
  }
}

TEST(DeterminismTest, LocalSearchSameSeedSameResult) {
  Instance instance = SeededPool(10, 8, 3, 302);
  auto sdga = SolveCraSdga(instance);
  ASSERT_TRUE(sdga.ok());
  LocalSearchOptions options;
  options.max_stall_proposals = 500;
  options.seed = 7;
  auto a = RefineLocalSearch(instance, *sdga, options);
  auto b = RefineLocalSearch(instance, *sdga, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->TotalScore(), b->TotalScore());
}

TEST(DeterminismTest, DatasetGenerationIsPure) {
  // Generating a second dataset must not perturb the first (no hidden
  // global RNG state).
  data::SyntheticDblpConfig config;
  config.seed = 5;
  auto first = data::GenerateReviewerPool(8, 4, config);
  auto unrelated = data::GenerateReviewerPool(20, 9, config);
  auto second = data::GenerateReviewerPool(8, 4, config);
  ASSERT_TRUE(first.ok() && unrelated.ok() && second.ok());
  for (int r = 0; r < 8; ++r) {
    for (int t = 0; t < first->num_topics; ++t) {
      ASSERT_DOUBLE_EQ(first->reviewers[r].topics[t],
                       second->reviewers[r].topics[t]);
    }
  }
}

// The load-bearing guarantee of the ThreadPool substrate: for a fixed
// seed, solver output is bit-identical at threads=1 and threads=8 —
// parallel work is keyed by item index and reduced in index order, never
// by arrival.
TEST(DeterminismTest, SolversAreThreadCountInvariant) {
  Instance instance = SeededPool(14, 10, 3, 305);
  const auto& registry = SolverRegistry::Default();
  for (const char* algo : {"sdga", "sdga-sra", "sdga-ls", "brgg"}) {
    SCOPED_TRACE(algo);
    SolverRunOptions one;
    one.seed = 77;
    one.extra["threads"] = "1";
    SolverRunOptions eight = one;
    eight.extra["threads"] = "8";
    auto a = registry.SolveCra(algo, instance, one);
    auto b = registry.SolveCra(algo, instance, eight);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->TotalScore(), b->TotalScore());
    for (int p = 0; p < instance.num_papers(); ++p) {
      EXPECT_EQ(a->GroupFor(p), b->GroupFor(p)) << "paper " << p;
    }
  }
}

// The sparse-topics contract (src/sparse/): an instance on the CSR kernels
// is bit-identical to its dense twin — same scores, same groups — for
// every solver in the parallel line-up, at any thread count. This is the
// test the CI smoke diff (WGRAP_SPARSE_TOPICS=0 vs =1) mirrors at the CLI
// layer.
TEST(DeterminismTest, SparseTopicsAreBitIdenticalToDense) {
  data::SyntheticDblpConfig config;
  config.num_topics = 8;
  config.seed = 306;
  auto dataset = data::GenerateReviewerPool(14, 10, config);
  ASSERT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = 3;
  auto dense = Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(dense.ok());
  dense->DropSparseTopics();  // genuinely dense under any override
  Instance sparse_twin = *dense;
  sparse_twin.BuildSparseTopics();

  const auto& registry = SolverRegistry::Default();
  for (const char* algo : {"sdga", "sdga-sra", "sdga-ls", "brgg"}) {
    for (const char* threads : {"1", "8"}) {
      SCOPED_TRACE(std::string(algo) + " threads=" + threads);
      SolverRunOptions dense_options;
      dense_options.seed = 77;
      dense_options.extra["threads"] = threads;
      auto a = registry.SolveCra(algo, *dense, dense_options);
      auto b = registry.SolveCra(algo, sparse_twin, dense_options);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->TotalScore(), b->TotalScore());
      for (int p = 0; p < dense->num_papers(); ++p) {
        EXPECT_EQ(a->GroupFor(p), b->GroupFor(p)) << "paper " << p;
      }
    }
  }
}

TEST(DeterminismTest, AtmFitIsThreadCountInvariant) {
  topic::SyntheticCorpusConfig config;
  config.num_topics = 5;
  config.vocab_size = 60;
  config.num_authors = 10;
  config.num_documents = 24;
  auto fit = [&](int threads) {
    Rng rng(11);
    auto generated = topic::GenerateSyntheticCorpus(config, &rng);
    EXPECT_TRUE(generated.ok());
    topic::AtmOptions options;
    options.num_topics = config.num_topics;
    options.iterations = 12;
    options.burn_in = 6;
    options.num_threads = threads;
    auto model = topic::FitAtm(generated->corpus, options, &rng);
    EXPECT_TRUE(model.ok());
    return std::move(model).value();
  };
  const topic::AtmModel one = fit(1);
  const topic::AtmModel eight = fit(8);
  ASSERT_EQ(one.theta.rows(), eight.theta.rows());
  for (int a = 0; a < one.theta.rows(); ++a) {
    for (int t = 0; t < one.theta.cols(); ++t) {
      ASSERT_EQ(one.theta(a, t), eight.theta(a, t)) << a << "," << t;
    }
  }
  for (int t = 0; t < one.phi.rows(); ++t) {
    for (int w = 0; w < one.phi.cols(); ++w) {
      ASSERT_EQ(one.phi(t, w), eight.phi(t, w)) << t << "," << w;
    }
  }
}

TEST(DeterminismTest, AtmHandlesDuplicateAuthorListings) {
  // A document may list the same author twice (double weight in the
  // generative story); local count deltas are keyed by author, not slot,
  // so the excluded token must not leak back in through the duplicate.
  topic::Corpus corpus;
  corpus.vocab_size = 8;
  corpus.num_authors = 3;
  corpus.documents.push_back({{0, 1, 2, 3, 1, 0}, {0, 0, 1}});
  corpus.documents.push_back({{4, 5, 6, 7, 4}, {2, 1, 2}});
  auto fit = [&](int threads) {
    topic::AtmOptions options;
    options.num_topics = 3;
    options.iterations = 8;
    options.burn_in = 4;
    options.num_threads = threads;
    Rng rng(23);
    auto model = topic::FitAtm(corpus, options, &rng);
    EXPECT_TRUE(model.ok());
    return std::move(model).value();
  };
  const topic::AtmModel one = fit(1);
  const topic::AtmModel four = fit(4);
  for (int a = 0; a < one.theta.rows(); ++a) {
    EXPECT_NEAR(one.theta.RowSum(a), 1.0, 1e-9);
    for (int t = 0; t < one.theta.cols(); ++t) {
      ASSERT_EQ(one.theta(a, t), four.theta(a, t));
    }
  }
}

TEST(JraConflictAgreementTest, IlpAndCpHonourConflicts) {
  Instance instance = SeededPool(9, 2, 3, 303);
  instance.AddConflict(0, 0);
  instance.AddConflict(3, 0);
  instance.AddConflict(7, 0);
  auto bfs = SolveJraBruteForce(instance, 0);
  auto ilp = SolveJraIlp(instance, 0);
  auto cp = SolveJraCp(instance, 0);
  ASSERT_TRUE(bfs.ok() && ilp.ok() && cp.ok());
  EXPECT_NEAR(ilp->score, bfs->score, 1e-6);
  EXPECT_NEAR(cp->score, bfs->score, 1e-9);
  for (const auto* result : {&*ilp, &*cp}) {
    for (int r : result->group) {
      EXPECT_NE(r, 0);
      EXPECT_NE(r, 3);
      EXPECT_NE(r, 7);
    }
  }
}

TEST(JraConflictAgreementTest, ConflictOnlyAffectsItsPaper) {
  Instance instance = SeededPool(9, 2, 2, 304);
  auto before = SolveJraBba(instance, 1);
  ASSERT_TRUE(before.ok());
  // Conflict the optimum of paper 0; paper 1's optimum is untouched.
  auto p0 = SolveJraBba(instance, 0);
  ASSERT_TRUE(p0.ok());
  instance.AddConflict(p0->group[0], 0);
  auto after = SolveJraBba(instance, 1);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(before->score, after->score);
}

}  // namespace
}  // namespace wgrap::core
