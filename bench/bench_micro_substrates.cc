// google-benchmark microbenchmarks for the substrates the WGRAP solvers
// stand on: weighted-coverage scoring, marginal gain, Hungarian, min-cost
// transportation, BBA, one SDGA stage, the dense-vs-CSR scoring-kernel
// density sweeps (BM_SparseVsDense*), the rebuild-vs-incremental
// stage maintenance-and-solve sweep (BM_GainCacheVsRebuild), and the
// thread-count sweeps of the two parallel hot paths (SDGA stage scoring,
// ATM Gibbs sweeps) that bench/BASELINES.md tracks, plus the per-kernel
// scalar-vs-dispatched tracks for the simd/kernels.h layer (BM_Kernel*).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/gain_cache.h"
#include "la/auction.h"
#include "la/hungarian.h"
#include "la/transportation.h"
#include "simd/kernels.h"
#include "sparse/sparse_matrix.h"
#include "sparse/sparse_scoring.h"
#include "topic/atm.h"
#include "topic/synthetic.h"

namespace {

using namespace wgrap;

void BM_ScoreVectors(benchmark::State& state) {
  const int T = static_cast<int>(state.range(0));
  Rng rng(1);
  const auto r = rng.NextDirichlet(T, 0.2);
  const auto p = rng.NextDirichlet(T, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ScoreVectors(
        core::ScoringFunction::kWeightedCoverage, r.data(), p.data(), T, 1.0));
  }
}
BENCHMARK(BM_ScoreVectors)->Arg(30)->Arg(100);

void BM_MarginalGain(benchmark::State& state) {
  const int T = static_cast<int>(state.range(0));
  Rng rng(2);
  const auto g = rng.NextDirichlet(T, 0.2);
  const auto r = rng.NextDirichlet(T, 0.2);
  const auto p = rng.NextDirichlet(T, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MarginalGainVectors(
        core::ScoringFunction::kWeightedCoverage, g.data(), r.data(),
        p.data(), T, 1.0));
  }
}
BENCHMARK(BM_MarginalGain)->Arg(30);

// A length-T vector with exactly `nnz` strictly positive entries.
Matrix MakeSupportVector(int num_topics, int nnz, Rng* rng) {
  Matrix row(1, num_topics, 0.0);
  for (int k = 0; k < nnz; ++k) {
    int t;
    do {
      t = static_cast<int>(rng->NextBounded(num_topics));
    } while (row(0, t) > 0.0);
    row(0, t) = 0.05 + rng->NextDouble();
  }
  return row;
}

// Dense-vs-CSR pair scoring (Eq. 1) density sweep. Args: {T, nnz, kernel}
// with kernel 0 = dense core::ScoreVectors over all T topics and
// kernel 1 = sparse::ScoreSparse over the two supports. Both compute the
// same bits; the sweep shows where the O(nnz) merge beats the O(T) loop.
void BM_SparseVsDense(benchmark::State& state) {
  const int T = static_cast<int>(state.range(0));
  const int nnz = static_cast<int>(state.range(1));
  const bool sparse_kernel = state.range(2) != 0;
  Rng rng(6);
  const Matrix r = MakeSupportVector(T, nnz, &rng);
  const Matrix p = MakeSupportVector(T, nnz, &rng);
  const double mass = p.RowSum(0);
  const auto rs = sparse::SparseTopicMatrix::FromMatrix(r);
  const auto ps = sparse::SparseTopicMatrix::FromMatrix(p);
  if (sparse_kernel) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          sparse::ScoreSparse(core::ScoringFunction::kWeightedCoverage,
                              rs.Row(0), ps.Row(0), mass));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          core::ScoreVectors(core::ScoringFunction::kWeightedCoverage,
                             r.Row(0), p.Row(0), T, mass));
    }
  }
}
BENCHMARK(BM_SparseVsDense)
    ->Args({300, 15, 0})->Args({300, 15, 1})    // nnz/T = 0.05
    ->Args({300, 30, 0})->Args({300, 30, 1})    // nnz/T = 0.1
    ->Args({300, 100, 0})->Args({300, 100, 1})  // nnz/T = 0.33
    ->Args({300, 300, 0})->Args({300, 300, 1})  // fully dense
    ->Args({30, 3, 0})->Args({30, 3, 1});       // paper-scale T, 0.1

// Same sweep for the Definition 8 marginal gain — the SDGA/BRGG/BBA inner
// loop. The group accumulator is dense in both kernels; only the reviewer
// walk is sparse.
void BM_SparseVsDenseMarginalGain(benchmark::State& state) {
  const int T = static_cast<int>(state.range(0));
  const int nnz = static_cast<int>(state.range(1));
  const bool sparse_kernel = state.range(2) != 0;
  Rng rng(7);
  const Matrix group = MakeSupportVector(T, nnz, &rng);
  const Matrix reviewer = MakeSupportVector(T, nnz, &rng);
  const Matrix paper = MakeSupportVector(T, nnz, &rng);
  const double mass = paper.RowSum(0);
  const auto reviewer_csr = sparse::SparseTopicMatrix::FromMatrix(reviewer);
  if (sparse_kernel) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(sparse::MarginalGainSparse(
          core::ScoringFunction::kWeightedCoverage, group.Row(0),
          reviewer_csr.Row(0), paper.Row(0), mass));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(core::MarginalGainVectors(
          core::ScoringFunction::kWeightedCoverage, group.Row(0),
          reviewer.Row(0), paper.Row(0), T, mass));
    }
  }
}
BENCHMARK(BM_SparseVsDenseMarginalGain)
    ->Args({300, 15, 0})->Args({300, 15, 1})
    ->Args({300, 30, 0})->Args({300, 30, 1})
    ->Args({300, 300, 0})->Args({300, 300, 1})
    ->Args({30, 3, 0})->Args({30, 3, 1});

// ---- Per-kernel tracks for the runtime-dispatched vector kernels ----
// (simd/kernels.h). Args end in {backend}: 0 = the scalar reference,
// 1 = the dispatched entry (AVX2 on machines that report avx2+fma,
// otherwise the same scalar code, so the pair reads as a wash there).
// tests/simd_kernel_test.cc proves both tracks byte-identical; the
// wall-clock gap between them is the kernel-level speedup that
// bench/BASELINES.md records.

void BM_KernelScoreSum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  Rng rng(9);
  const auto expertise = rng.NextDirichlet(n, 0.2);
  const auto paper = rng.NextDirichlet(n, 0.2);
  for (auto _ : state) {
    const double sum =
        dispatched
            ? simd::ScoreSum(core::ScoringFunction::kWeightedCoverage,
                             expertise.data(), paper.data(), n)
            : simd::scalar::ScoreSum(core::ScoringFunction::kWeightedCoverage,
                                     expertise.data(), paper.data(), n);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_KernelScoreSum)->ArgsProduct({{30, 300, 3000}, {0, 1}});

// The auction's real-unit bid scan over a candidate row: ~1/8 of the
// candidate agents are slotless (price == no_price), like a mid-phase row.
void BM_KernelTopTwoScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  Rng rng(10);
  const int agents = std::max(1, n / 4);
  const int64_t no_price = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> values(n);
  std::vector<int64_t> price(agents);
  std::vector<int> agent_ids(n);
  for (int a = 0; a < agents; ++a) {
    price[a] = a % 8 == 0 ? no_price
                          : static_cast<int64_t>(rng.NextBounded(1 << 20));
  }
  for (int k = 0; k < n; ++k) {
    values[k] = static_cast<int64_t>(rng.NextBounded(int64_t{1} << 30));
    agent_ids[k] = static_cast<int>(rng.NextBounded(agents));
  }
  for (auto _ : state) {
    const simd::TopTwo top =
        dispatched ? simd::TopTwoReduced(values.data(), agent_ids.data(), n,
                                         price.data(), no_price)
                   : simd::scalar::TopTwoReduced(values.data(),
                                                 agent_ids.data(), n,
                                                 price.data(), no_price);
    benchmark::DoNotOptimize(top);
  }
}
BENCHMARK(BM_KernelTopTwoScan)->ArgsProduct({{30, 300, 3000}, {0, 1}});

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Matrix cost(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) cost.At(i, j) = rng.NextDouble();
  }
  for (auto _ : state) {
    auto result = la::SolveMinCostAssignment(cost);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Hungarian)->Arg(50)->Arg(100)->Arg(200);

void BM_Transportation(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const int agents = tasks / 4;
  Rng rng(4);
  Matrix profit(tasks, agents);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) profit.At(t, a) = rng.NextDouble();
  }
  std::vector<int> capacity(agents, 5);
  for (auto _ : state) {
    auto result = la::SolveTransportation(profit, capacity);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Transportation)->Arg(100)->Arg(400);

// The interchangeable stage-LAP backends head-to-head on one instance
// shape (agents = tasks/4, capacity 5 — the BM_Transportation shape).
// Args: {tasks, backend, forbidden%} with backend 0 = min-cost flow,
// 1 = capacity-aware Jonker–Volgenant (one dual per agent, no column
// replication), 2 = ε-scaling auction, 3 = auction with top-16 pruning +
// exactness guard (re-solves wider if the duals cannot certify the pruned
// optimum). All four return the same
// optimum; only wall-clock differs. forbidden% sweeps candidate density.
void BM_LapBackends(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const int backend = static_cast<int>(state.range(1));
  const double forbidden = static_cast<int>(state.range(2)) / 100.0;
  const int agents = tasks / 4;
  Rng rng(4);
  Matrix profit(tasks, agents, la::kTransportForbidden);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const double roll = rng.NextDouble();
      if (roll < forbidden) continue;
      profit.At(t, a) = rng.NextDouble();
    }
  }
  std::vector<int> capacity(agents, 5);
  for (auto _ : state) {
    switch (backend) {
      case 0: {
        auto result = la::SolveTransportation(profit, capacity);
        benchmark::DoNotOptimize(result);
        break;
      }
      case 1: {
        auto result = la::SolveCapacitatedAssignment(profit, capacity);
        benchmark::DoNotOptimize(result);
        break;
      }
      case 2: {
        auto result = la::SolveAuctionTransportation(profit, capacity);
        benchmark::DoNotOptimize(result);
        break;
      }
      case 3: {
        auto result = la::SolveAuctionTopK(profit, capacity, 16);
        benchmark::DoNotOptimize(result);
        break;
      }
    }
  }
}
BENCHMARK(BM_LapBackends)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{200, 600}, {0, 1, 2, 3}, {0, 60}});

// Auction bidding fan-out thread sweep on the largest shape above (flat
// on 1 vCPU — see bench/BASELINES.md for the caveat).
void BM_LapAuctionThreads(benchmark::State& state) {
  const int tasks = 600;
  const int agents = tasks / 4;
  Rng rng(4);
  Matrix profit(tasks, agents);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) profit.At(t, a) = rng.NextDouble();
  }
  std::vector<int> capacity(agents, 5);
  ThreadPool pool(static_cast<int>(state.range(0)));
  la::AuctionOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    auto result = la::SolveAuctionTransportation(profit, capacity, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LapAuctionThreads)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Per-stage maintenance head-to-head, through the stage solve: rebuild
// every P×R marginal gain per pair into a profit matrix and solve it with
// the Matrix JV, vs. the GainCache (core/gain_cache.h), which re-scores
// each moved paper's row in one topic-major pass into its int64 cost rows,
// which the JV reads in place (la::SolveCapacitatedRows). On a 400-paper
// reviewer-pool instance at the given topic density. Args: {density%,
// epoch, mode} with mode 0 = rebuild, 1 = incremental (notes + Refresh +
// in-place JV; the cache copy that resets state is excluded from timing),
// over the two epochs the solvers actually maintain:
//   epoch 0 — SDGA stage: "stage 2 just committed one reviewer per
//     paper; solve stage 3". Young groups cover few topics, so the row
//     pass skips few of them.
//   epoch 1 — SRA completion round: "one victim removed per complete
//     group; solve the completion". The dominant workload in sdga-sra
//     (rounds outnumber stages ~100:1). A paper whose victim held no max
//     keeps its row; the others are re-scored whole.
// Both modes solve the identical integer program and pick the same
// reviewers; only wall-clock differs.
void BM_GainCacheVsRebuild(benchmark::State& state) {
  const double density = static_cast<int>(state.range(0)) / 100.0;
  const bool sra_round = state.range(1) != 0;
  const bool incremental = state.range(2) != 0;
  const int P = 400;
  const int R = 300;
  data::SyntheticDblpConfig config;
  config.seed = 11;
  config.num_topics = 100;
  config.topic_density = density;
  auto dataset = data::GenerateReviewerPool(R, P, config);
  bench::DieOnError(dataset.status(), "GenerateReviewerPool");
  core::InstanceParams params;
  params.group_size = 3;
  params.sparse_topics = density < 1.0;
  auto instance = core::Instance::FromDataset(*dataset, params);
  bench::DieOnError(instance.status(), "FromDataset");
  // Replay the epoch from a solved run. Groups list members in stage
  // order, so member k is the stage-(k+1) commit.
  auto solved = core::SolveCraSdga(*instance);
  bench::DieOnError(solved.status(), "SolveCraSdga");
  core::Assignment before(&*instance);  // the state the cache last saw
  std::vector<std::pair<int, int>> deltas(P);  // (paper, reviewer) notes
  if (sra_round) {
    before = *solved;
    for (int p = 0; p < P; ++p) {
      deltas[p] = {p, solved->GroupFor(p)[0]};  // victim per paper
    }
  } else {
    for (int p = 0; p < P; ++p) {
      bench::DieOnError(before.Add(p, solved->GroupFor(p)[0]),
                        "stage-1 add");
      deltas[p] = {p, solved->GroupFor(p)[1]};  // stage-2 commit
    }
  }
  core::Assignment after = before;
  for (const auto& [p, r] : deltas) {
    bench::DieOnError(sra_round ? after.Remove(p, r) : after.Add(p, r),
                      "apply delta");
  }
  std::vector<int> papers(P);
  for (int p = 0; p < P; ++p) papers[p] = p;
  std::vector<int> capacity(R);
  for (int r = 0; r < R; ++r) {
    capacity[r] = instance->reviewer_workload() - after.LoadOf(r);
  }
  ThreadPool pool(1);
  if (incremental) {
    core::GainCache base(&*instance);
    base.Refresh(before, &pool);
    int64_t patched = 0;
    for (auto _ : state) {
      state.PauseTiming();
      core::GainCache cache = base;  // rewind to the pre-delta epoch
      state.ResumeTiming();
      for (const auto& [p, r] : deltas) cache.NoteRemove(p, r);
      cache.Refresh(after, &pool);
      la::JvCostRows rows;
      rows.agents = R;
      for (int p : papers) {
        rows.cost.push_back(cache.CostRow(p));
        rows.excluded.push_back(&after.GroupFor(p));
      }
      auto solved = la::SolveCapacitatedRows(rows, capacity, 1);
      bench::DieOnError(solved.status(), "SolveCapacitatedRows");
      benchmark::DoNotOptimize(solved);
      patched = cache.patched_entries();
    }
    state.counters["patched"] = static_cast<double>(patched);
  } else {
    Matrix profit(P, R, la::kTransportForbidden);
    for (auto _ : state) {
      for (int p = 0; p < P; ++p) {
        for (int r = 0; r < R; ++r) {
          profit(p, r) = capacity[r] <= 0 ||
                                 instance->IsConflict(r, p) ||
                                 after.Contains(p, r)
                             ? la::kTransportForbidden
                             : after.MarginalGain(p, r);
        }
      }
      auto solved = la::SolveCapacitatedAssignment(profit, capacity);
      bench::DieOnError(solved.status(), "SolveCapacitatedAssignment");
      benchmark::DoNotOptimize(solved);
    }
    state.counters["patched"] = static_cast<double>(P) * R;
  }
}
BENCHMARK(BM_GainCacheVsRebuild)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{1, 3, 10, 33}, {0, 1}, {0, 1}});

void BM_JraBba(benchmark::State& state) {
  // BBA top-3 over every paper of one pool, as the service's queries run
  // it, so the number tracks the per-query cost end to end; the reported
  // time is for all 20 papers.
  const int reviewers = static_cast<int>(state.range(0));
  core::Instance instance = bench::MakeJraPool(reviewers, 3);
  for (auto _ : state) {
    for (int p = 0; p < instance.num_papers(); ++p) {
      auto result = core::SolveJraBbaTopK(instance, p, 3);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_JraBba)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_SdgaStage(benchmark::State& state) {
  // Full SDGA on the smallest conference dataset, dominated by stage LAPs.
  auto setup = bench::MakeConference(data::Area::kTheory, 2009, 3);
  for (auto _ : state) {
    auto result = core::SolveCraSdga(setup.instance);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SdgaStage)->Unit(benchmark::kMillisecond);

void BM_SdgaThreads(benchmark::State& state) {
  // Thread sweep over the parallel stage-1 scoring on a Table-3-scale
  // conference (DB08, δp=5 — the largest stage matrices in the suite).
  // Output is bit-identical across the sweep; only wall-clock may move.
  auto setup = bench::MakeConference(data::Area::kDatabases, 2008, 5);
  core::SdgaOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = core::SolveCraSdga(setup.instance, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SdgaThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AtmGibbs(benchmark::State& state) {
  // Thread sweep over the per-document Gibbs fan-out: a reviewer-pool-
  // sized corpus, timed per sweep batch (fixed iteration count).
  topic::SyntheticCorpusConfig config;
  config.num_topics = 30;
  config.vocab_size = 800;
  config.num_authors = 60;
  config.num_documents = 360;
  config.mean_document_length = 90;
  Rng corpus_rng(5);
  auto generated = topic::GenerateSyntheticCorpus(config, &corpus_rng);
  bench::DieOnError(generated.status(), "GenerateSyntheticCorpus");
  topic::AtmOptions options;
  options.num_topics = config.num_topics;
  options.iterations = 10;
  options.burn_in = 5;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(17);
    auto model = topic::FitAtm(generated->corpus, options, &rng);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_AtmGibbs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
