// google-benchmark microbenchmarks for the substrates the WGRAP solvers
// stand on: weighted-coverage scoring, marginal gain, Hungarian, min-cost
// transportation, BBA, one SDGA stage, the dense-vs-CSR scoring-kernel
// density sweeps (BM_SparseVsDense*), the rebuild-vs-incremental
// stage maintenance-and-solve sweep (BM_GainCacheVsRebuild), and the
// thread-count sweeps of the two parallel hot paths (SDGA stage scoring,
// ATM Gibbs sweeps) that bench/BASELINES.md tracks, plus the per-kernel
// scalar-vs-dispatched tracks for the simd/kernels.h layer (BM_Kernel*),
// the column-density sweep of the gain row pass (BM_GainColumnPass), the
// dataset CSV reader (BM_DatasetFromCsv) and two service-session writes
// with their snapshot publish: a one-op mutate (BM_StorePublish) and a
// repair-only resolve job's body (BM_StoreResolve).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/gain_cache.h"
#include "core/registry.h"
#include "data/io.h"
#include "data/synthetic_dblp.h"
#include "la/auction.h"
#include "la/hungarian.h"
#include "la/transportation.h"
#include "obs/metrics.h"
#include "service/instance_store.h"
#include "service/reports.h"
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

// One topic of the gain row pass over a column whose degree is
// range(1) percent of R = range(0) rows (ids random, values uniform in
// (0, 1), group max 0.5 so about half the carriers gain): range(2) = 0 is
// the CSC id walk Instance::GainRow runs on light columns, 1 the dispatched
// dense kernel it runs on heavy ones. The crossover in degree sets
// sparse::TopicIndex::kHeavyColumnDivisor (bench/BASELINES.md).
void BM_GainColumnPass(benchmark::State& state) {
  const int R = static_cast<int>(state.range(0));
  const int degree = std::max(1, static_cast<int>(R * state.range(1) / 100));
  const bool dense = state.range(2) != 0;
  Rng rng(11);
  std::vector<int> ids(R);
  for (int i = 0; i < R; ++i) ids[i] = i;
  for (int i = 0; i < degree; ++i) std::swap(ids[i], ids[rng.NextInt(i, R - 1)]);
  ids.resize(degree);
  std::sort(ids.begin(), ids.end());
  std::vector<double> values(degree);
  std::vector<double> column(R, 0.0);
  for (int k = 0; k < degree; ++k) {
    values[k] = 1.0 - rng.NextDouble();
    column[ids[k]] = values[k];
  }
  std::vector<double> out(R, 0.0);
  constexpr auto kF = core::ScoringFunction::kWeightedCoverage;
  const double g = 0.5;
  const double p = 0.75;
  for (auto _ : state) {
    if (dense) {
      simd::AddColumnGainTerms(kF, column.data(), R, g, p, out.data());
    } else {
      const double base = core::TopicContribution(kF, g, p);
      for (int k = 0; k < degree; ++k) {
        const double r = values[k];
        if (r <= g) continue;
        out[ids[k]] += core::TopicContribution(kF, r, p) - base;
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GainColumnPass)
    ->ArgsProduct({{105, 1500}, {5, 10, 15, 20, 25, 35, 50, 100}, {0, 1}});

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
  auto instance = core::Instance::FromDataset(*dataset, params);
  bench::DieOnError(instance.status(), "FromDataset");
  instance->BuildSparseTopics();  // at every density, as recorded
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
      for (const auto& delta : deltas) cache.Note(delta.first);
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

// A BM_JraBba pool by its reviewer count: 189 is the perfbench
// service_mix shape (146 papers), 105 is DB08 (617 papers), any other
// count a 20-paper MakeJraPool pool.
core::Instance JraBbaPool(int reviewers) {
  if (reviewers == 105) {
    return bench::MakeConference(data::Area::kDatabases, 2008, 3).instance;
  }
  if (reviewers != 189) return bench::MakeJraPool(reviewers, 3);
  auto dataset =
      data::GenerateReviewerPool(189, 146, data::SyntheticDblpConfig{});
  bench::DieOnError(dataset.status(), "GenerateReviewerPool");
  core::InstanceParams params;
  params.group_size = 3;
  auto instance = core::Instance::FromDataset(*dataset, params);
  bench::DieOnError(instance.status(), "Instance::FromDataset");
  return std::move(instance).value();
}

void BM_JraBba(benchmark::State& state) {
  // BBA top-3 over every paper of one pool, as the service's queries run
  // it, so the number tracks the per-query cost end to end; the reported
  // time is for all papers, and `query_s` is the mean per query. `nodes`
  // and `rows` are the search nodes and the stage gain rows per query
  // (`rows` reads wgrap_jra_bba_gain_rows_total: 0 with WGRAP_OBS=0).
  core::Instance instance = JraBbaPool(static_cast<int>(state.range(0)));
  const obs::Counter* rows_counter =
      obs::Registry::Global().GetCounter("wgrap_jra_bba_gain_rows_total");
  const int64_t rows_before = rows_counter ? rows_counter->Value() : 0;
  int64_t nodes = 0;
  int64_t queries = 0;
  for (auto _ : state) {
    for (int p = 0; p < instance.num_papers(); ++p) {
      auto result = core::SolveJraBbaTopK(instance, p, 3);
      if (result.ok()) nodes += result->front().nodes_explored;
      ++queries;
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["query_s"] = benchmark::Counter(
      instance.num_papers(), benchmark::Counter::kIsIterationInvariantRate |
                                 benchmark::Counter::kInvert);
  const double per_query = queries > 0 ? 1.0 / queries : 0.0;
  state.counters["nodes"] = nodes * per_query;
  state.counters["rows"] =
      rows_counter ? (rows_counter->Value() - rows_before) * per_query : 0.0;
}
BENCHMARK(BM_JraBba)
    ->Arg(100)
    ->Arg(300)
    ->Arg(189)
    ->Arg(105)
    ->Unit(benchmark::kMillisecond);

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

void BM_DatasetFromCsv(benchmark::State& state) {
  // The CSV bytes of a set-up to a validated dataset: Arg 0 is DB08 (722
  // rows x 30 dense topics), Arg 1 the sparse 400 x 150 pool (100 topics,
  // 5 nonzero per row), the two perfbench conference shapes.
  data::SyntheticDblpConfig sparse;
  sparse.num_topics = 100;
  sparse.topic_density = 0.05;
  auto dataset = state.range(0) == 0
                     ? data::GenerateConferenceDataset(data::Area::kDatabases,
                                                       2008, {})
                     : data::GenerateReviewerPool(150, 400, sparse);
  bench::DieOnError(dataset.status(), "generate dataset");
  const std::string csv = data::DatasetToCsv(*dataset);
  for (auto _ : state) {
    auto parsed = data::DatasetFromCsv(csv);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_DatasetFromCsv)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_StorePublish(benchmark::State& state) {
  // One `set_coi` mutate of a 189 x 146 session (T = 30) holding an SDGA
  // assignment, as perfbench service_mix sends them: the COI toggles on an
  // unassigned pair, so every iteration applies one op and publishes one
  // snapshot (instance copy plus the assignment copy).
  auto dataset = data::GenerateReviewerPool(189, 146, {});
  bench::DieOnError(dataset.status(), "GenerateReviewerPool");
  core::InstanceParams params;
  params.group_size = 3;
  service::InstanceStore store;
  auto opened = store.Open("s", *dataset, params);
  bench::DieOnError(opened.status(), "open");
  auto solved =
      core::SolverRegistry::Default().SolveCra("sdga", *opened->instance, {});
  bench::DieOnError(solved.status(), "sdga");
  auto installed = store.InstallAssignment("s", solved->Pairs());
  bench::DieOnError(installed.status(), "install");
  int reviewer = 0;
  while (solved->Contains(0, reviewer)) ++reviewer;
  bool on = true;
  for (auto _ : state) {
    auto mutated = store.Mutate(
        "s", {core::InstanceUpdate::SetCoi(reviewer, 0, on)});
    bench::DieOnError(mutated.status(), "mutate");
    benchmark::DoNotOptimize(mutated);
    on = !on;
  }
}
BENCHMARK(BM_StorePublish)->Unit(benchmark::kMicrosecond);

void BM_StoreResolve(benchmark::State& state) {
  // The body of a `resolve update_refine=none` job on the BM_StorePublish
  // session after one `set_coi` evicted an assigned pair: copy the
  // snapshot's assignment, IncrementalResolve, render the report, keep the
  // pairs and install by compare-and-set. Each iteration first (untimed)
  // re-installs the evicted state, so every resolve repairs one paper.
  auto dataset = data::GenerateReviewerPool(189, 146, {});
  bench::DieOnError(dataset.status(), "GenerateReviewerPool");
  core::InstanceParams params;
  params.group_size = 3;
  service::InstanceStore store;
  auto opened = store.Open("s", *dataset, params);
  bench::DieOnError(opened.status(), "open");
  auto solved =
      core::SolverRegistry::Default().SolveCra("sdga", *opened->instance, {});
  bench::DieOnError(solved.status(), "sdga");
  bench::DieOnError(store.InstallAssignment("s", solved->Pairs()).status(),
                    "install");
  const int evicted = solved->GroupFor(0)[0];
  auto mutated =
      store.Mutate("s", {core::InstanceUpdate::SetCoi(evicted, 0, true)});
  bench::DieOnError(mutated.status(), "mutate");
  const std::vector<std::pair<int, int>> broken =
      mutated->snapshot.assignment->Pairs();
  core::SolverRunOptions options;
  options.extra["update_refine"] = "none";
  for (auto _ : state) {
    state.PauseTiming();
    auto snap = store.InstallAssignment("s", broken);
    bench::DieOnError(snap.status(), "reinstall");
    state.ResumeTiming();
    core::Assignment working = *snap->assignment;
    auto report = core::IncrementalResolve(*snap->instance, &working, options);
    bench::DieOnError(report.status(), "resolve");
    std::string text = service::ResolveReport(*report, working);
    std::vector<std::pair<int, int>> pairs = working.Pairs();
    auto installed = store.InstallAssignmentIfCurrent("s", snap->version,
                                                      std::move(working));
    bench::DieOnError(installed.status(), "CAS install");
    benchmark::DoNotOptimize(text);
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_StoreResolve)->Unit(benchmark::kMicrosecond);

}  // namespace
