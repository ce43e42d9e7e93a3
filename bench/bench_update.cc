// BM_IncrementalResolve: the online-update pitch in numbers. A solved
// 400-paper conference takes one mutation (a reviewer drops out, a late
// paper arrives, a paper's topics are corrected); the incremental path —
// InstanceUpdater::Apply + IncrementalResolve, which evicts/repairs only
// the affected groups — races a cold SolveCra("sdga") on the mutated
// instance. Args are {mode, op}: mode 0 = repair only (update_refine=
// none), 1 = repair + a 1 s SRA polish, 2 = cold SDGA re-solve; op 0 =
// remove_reviewer, 1 = add_paper, 2 = set_paper_topics. Recorded in
// bench/BASELINES.md (target: repair-only ≥3× over cold).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/wgrap.h"
#include "data/synthetic_dblp.h"

namespace {

using namespace wgrap;

core::InstanceParams OnlineParams() {
  core::InstanceParams params;
  params.group_size = 3;  // δr dynamic: ⌈400·3/200⌉ = 6
  return params;
}

// 400 papers × 200 reviewers, T = 100 at realistic sparsity — the scale
// BM_GainCacheVsRebuild records, now end-to-end.
const core::Instance& BaseInstance() {
  static const core::Instance* instance = [] {
    data::SyntheticDblpConfig config;
    config.num_topics = 100;
    config.topic_density = 0.05;
    config.seed = 91;
    auto dataset = data::GenerateReviewerPool(/*num_reviewers=*/200,
                                              /*num_papers=*/400, config);
    bench::DieOnError(dataset.status(), "online dataset");
    auto built = core::Instance::FromDataset(*dataset, OnlineParams());
    bench::DieOnError(built.status(), "online instance");
    return new core::Instance(*std::move(built));
  }();
  return *instance;
}

const core::Assignment& BaseAssignment() {
  static const core::Assignment* assignment = [] {
    auto solved =
        core::SolverRegistry::Default().SolveCra("sdga", BaseInstance());
    bench::DieOnError(solved.status(), "initial sdga solve");
    return new core::Assignment(*std::move(solved));
  }();
  return *assignment;
}

core::Assignment CloneOnto(const core::Assignment& base,
                           const core::Instance& instance) {
  core::Assignment clone(&instance);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r : base.GroupFor(p)) {
      bench::DieOnError(clone.AddUnchecked(p, r), "clone pair");
    }
  }
  return clone;
}

core::InstanceUpdate MakeOp(int op, int num_topics) {
  if (op == 0) return core::InstanceUpdate::RemoveReviewer(7);
  Rng rng(17);
  std::vector<double> topics(num_topics, 0.0);
  for (int t = 0; t < num_topics; ++t) {
    if (rng.NextDouble() < 0.05) topics[t] = rng.NextDouble();
  }
  topics[3] += 0.5;
  if (op == 1) return core::InstanceUpdate::AddPaper(std::move(topics));
  return core::InstanceUpdate::SetPaperTopics(11, std::move(topics));
}

void BM_IncrementalResolve(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int op = static_cast<int>(state.range(1));
  BaseAssignment();  // build the shared setup outside the timed loop
  const core::InstanceParams params = OnlineParams();
  core::SolverRunOptions options;
  options.extra["update_refine"] = mode == 1 ? "sra" : "none";
  if (mode == 1) options.time_limit_seconds = 1.0;
  int64_t repaired = 0;
  int64_t iterations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::Instance instance = BaseInstance();
    core::Assignment assignment = CloneOnto(BaseAssignment(), instance);
    state.ResumeTiming();
    core::InstanceUpdater updater(&instance, params);
    if (mode != 2) updater.TrackAssignment(&assignment);
    auto report = updater.Apply(MakeOp(op, instance.num_topics()));
    bench::DieOnError(report.status(), "apply");
    if (mode == 2) {
      auto solved = core::SolverRegistry::Default().SolveCra("sdga", instance);
      bench::DieOnError(solved.status(), "cold sdga");
      benchmark::DoNotOptimize(solved->TotalScore());
    } else {
      auto resolve = core::IncrementalResolve(instance, &assignment, options);
      bench::DieOnError(resolve.status(), "incremental resolve");
      repaired += resolve->repaired_papers;
      benchmark::DoNotOptimize(assignment.TotalScore());
    }
    ++iterations;
  }
  if (mode != 2 && iterations > 0) {
    state.counters["repaired"] =
        static_cast<double>(repaired) / static_cast<double>(iterations);
  }
}
BENCHMARK(BM_IncrementalResolve)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({2, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace
