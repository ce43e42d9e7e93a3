// Telemetry subsystem tests: sharded counter/histogram correctness under
// concurrent writers (the merge-at-scrape contract), histogram bucket and
// quantile math, Prometheus rendering, the kill switch's zero-registration
// guarantee, the tracer's deterministic span-tree shape, the stage
// pipeline's child spans, and BBA's per-query work counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/cra.h"
#include "core/jra.h"
#include "data/synthetic_dblp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wgrap::obs {
namespace {

TEST(ObsCounterTest, ConcurrentAddsMergeExactly) {
  Registry registry(/*enabled=*/true);
  Counter* counter = registry.GetCounter("c");
  ASSERT_NE(counter, nullptr);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Relaxed per-shard adds merged at read time must still be exact — no
  // update may be lost to a torn or overwritten cell.
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kAddsPerThread);
}

TEST(ObsHistogramTest, ConcurrentObservationsMergeExactly) {
  Registry registry(/*enabled=*/true);
  Histogram* histogram = registry.GetHistogram("h", {1.0, 2.0, 4.0});
  ASSERT_NE(histogram, nullptr);
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (int i = 0; i < kObsPerThread; ++i) {
        histogram->Observe(0.5 * (t % 4));  // 0, 0.5, 1, 1.5 across threads
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram->Count(), int64_t{kThreads} * kObsPerThread);
  const std::vector<int64_t> buckets = histogram->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + the +Inf catch-all
  // 0, 0.5 and 1 land in le=1 (inclusive upper edge); 1.5 in le=2.
  EXPECT_EQ(buckets[0], int64_t{6} * kObsPerThread);
  EXPECT_EQ(buckets[1], int64_t{2} * kObsPerThread);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 0);
  // Sum is nanounit-exact: each of the four values observed by two
  // threads, 2×(0+0.5+1+1.5)×5000 = 30000.
  EXPECT_DOUBLE_EQ(histogram->Sum(), 30000.0);
}

TEST(ObsHistogramTest, QuantileInterpolatesWithinBuckets) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) histogram.Observe(0.5);   // bucket (0, 1]
  for (int i = 0; i < 100; ++i) histogram.Observe(1.5);   // bucket (1, 2]
  EXPECT_EQ(histogram.Count(), 200);
  // p25 falls midway through the first bucket, p75 midway through the
  // second; the estimate must stay inside each bucket's edges.
  EXPECT_GT(histogram.Quantile(0.25), 0.0);
  EXPECT_LE(histogram.Quantile(0.25), 1.0);
  EXPECT_GT(histogram.Quantile(0.75), 1.0);
  EXPECT_LE(histogram.Quantile(0.75), 2.0);
  // Everything in the +Inf bucket reports the largest finite bound.
  Histogram overflow({1.0});
  overflow.Observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.5), 1.0);
}

TEST(ObsRegistryTest, HandlesAreStableAndRenderSorted) {
  Registry registry(/*enabled=*/true);
  Counter* first = registry.GetCounter("zeta");
  Counter* again = registry.GetCounter("zeta");
  EXPECT_EQ(first, again);
  registry.GetGauge("alpha")->Set(7);
  first->Add(3);
  const std::string page = registry.RenderPrometheus();
  // Sorted by name: alpha before zeta.
  EXPECT_LT(page.find("alpha"), page.find("zeta"));
  EXPECT_NE(page.find("alpha 7"), std::string::npos);
  EXPECT_NE(page.find("zeta 3"), std::string::npos);
}

TEST(ObsRegistryTest, DisabledRegistryRegistersNothing) {
  Registry registry(/*enabled=*/false);
  // The kill switch contract: every lookup is a nullptr (call sites branch
  // away), nothing is allocated, and the scrape page stays empty.
  EXPECT_EQ(registry.GetCounter("c"), nullptr);
  EXPECT_EQ(registry.GetGauge("g"), nullptr);
  EXPECT_EQ(registry.GetHistogram("h"), nullptr);
  EXPECT_TRUE(registry.Names().empty());
  EXPECT_TRUE(registry.RenderPrometheus().empty());
}

// The span tree's *shape* (names, parents, depths, order) is a pure
// function of the code path — only durations vary run to run. Two
// identical traversals must produce identical shapes.
std::vector<std::string> ShapeOf(const Tracer& tracer) {
  std::vector<std::string> shape;
  for (const SpanRecord& span : tracer.spans()) {
    shape.push_back(span.name + "/" + std::to_string(span.parent) + "/" +
                    std::to_string(span.depth));
  }
  return shape;
}

void FakeSolve() {
  ScopedSpan solve("solve");
  for (int stage = 0; stage < 3; ++stage) {
    ScopedSpan inner("stage");
  }
}

// With telemetry killed (WGRAP_OBS=0) ScopedTracerAttach attaches nothing
// by design, so the trace tests below assert that kill-switch contract
// instead: no span is recorded, and the chrome JSON of the empty tracer is
// a well-formed empty event list.
constexpr char kEmptyChromeJson[] = "{\"traceEvents\":[]}\n";

TEST(ObsTraceTest, SpanTreeShapeIsDeterministic) {
  Tracer first;
  {
    ScopedTracerAttach attach(&first);
    FakeSolve();
  }
  Tracer second;
  {
    ScopedTracerAttach attach(&second);
    FakeSolve();
  }
  if (!Enabled()) {
    EXPECT_TRUE(first.spans().empty());
    EXPECT_TRUE(second.spans().empty());
    return;
  }
  ASSERT_EQ(first.spans().size(), 4u);  // solve + 3 stages, DFS preorder
  EXPECT_EQ(first.spans()[0].name, "solve");
  EXPECT_EQ(first.spans()[0].parent, -1);
  EXPECT_EQ(first.spans()[0].depth, 0);
  EXPECT_EQ(first.spans()[1].name, "stage");
  EXPECT_EQ(first.spans()[1].parent, 0);
  EXPECT_EQ(first.spans()[1].depth, 1);
  EXPECT_EQ(ShapeOf(first), ShapeOf(second));
  for (const SpanRecord& span : first.spans()) {
    EXPECT_GE(span.duration_ns, 0);
  }
}

TEST(ObsTraceTest, SpansAreNoOpsWithoutAnAmbientTracer) {
  // Worker threads never attach a tracer; their spans must vanish without
  // touching anyone else's tree.
  EXPECT_EQ(AmbientTracer(), nullptr);
  { ScopedSpan orphan("orphan"); }
  Tracer tracer;
  {
    ScopedTracerAttach attach(&tracer);
    std::thread worker([] {
      EXPECT_EQ(AmbientTracer(), nullptr);  // thread_local, not inherited
      ScopedSpan span("worker");
    });
    worker.join();
    ScopedSpan span("main");
  }
  if (!Enabled()) {
    EXPECT_TRUE(tracer.spans().empty());
    return;
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].name, "main");
}

TEST(ObsTraceTest, ChromeJsonIsWellFormed) {
  Tracer tracer;
  {
    ScopedTracerAttach attach(&tracer);
    FakeSolve();
  }
  const std::string json = TraceToChromeJson(tracer);
  if (!Enabled()) {
    EXPECT_TRUE(tracer.spans().empty());
    EXPECT_EQ(json, kEmptyChromeJson);
    return;
  }
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// SDGA's stages and SRA's rounds explain their time with child spans:
// `profit_refresh` (the GainCache refresh) and `lap_solve` (the in-place
// JV) under every `sdga_stage` and under `sra`, and `cap_relax_retry`
// around a stage's retry with the relaxed cap. δp = 3 ∤ δr = 4 and paper i
// conflicts with strong reviewer i, so the capped third stage is
// infeasible and only the retry completes it. No name has a dot, so the
// benchmark books them to core.
TEST(ObsTraceTest, StageSpansNestUnderSdgaStageAndSra) {
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r1", {1.0, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"r2", {0.0, 1.0, 0.0}, 1});
  dataset.reviewers.push_back({"r3", {0.0, 0.0, 1.0}, 1});
  dataset.reviewers.push_back({"r4", {0.05, 0.05, 0.05}, 1});
  dataset.reviewers.push_back({"r5", {0.5, 0.5, 0.5}, 1});
  for (const char* title : {"p1", "p2", "p3"}) {
    dataset.papers.push_back({title, {1.0, 1.0, 1.0}, "V"});
  }
  core::InstanceParams params;
  params.group_size = 3;
  params.reviewer_workload = 4;
  auto instance = core::Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  // Reviewer r5 conflicts with every paper, so it only widens the rows.
  for (int p = 0; p < 3; ++p) {
    instance->AddConflict(p, p);
    instance->AddConflict(4, p);
  }
  Tracer tracer;
  {
    ScopedTracerAttach attach(&tracer);
    auto sdga = core::SolveCraSdga(*instance);
    ASSERT_TRUE(sdga.ok()) << sdga.status().ToString();
    core::SraOptions sra;
    sra.convergence_window = 2;
    ASSERT_TRUE(core::RefineSra(*instance, *sdga, sra).ok());
  }
  if (!Enabled()) {
    EXPECT_TRUE(tracer.spans().empty());
    return;
  }
  const std::vector<std::string> stage = {
      "sdga_stage/0/1", "profit_refresh/-/2", "lap_solve/-/2"};
  std::vector<std::string> expected = {"sdga/-1/0"};
  for (int k = 0; k < 3; ++k) {
    expected.insert(expected.end(), stage.begin(), stage.end());
  }
  expected.insert(expected.end(), {"cap_relax_retry/-/2",
                                   "profit_refresh/-/3", "lap_solve/-/3"});
  std::vector<std::string> shape;
  const std::vector<SpanRecord>& spans = tracer.spans();
  int sra_root = -1;
  int sra_children = 0;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    const SpanRecord& span = spans[i];
    if (span.name == "sra") {
      sra_root = i;
      EXPECT_EQ(span.depth, 0);
      continue;
    }
    if (sra_root >= 0) {
      // Every SRA completion is one refresh and one solve, right under sra.
      EXPECT_EQ(span.parent, sra_root) << span.name;
      EXPECT_EQ(span.name, sra_children % 2 == 0 ? "profit_refresh"
                                                 : "lap_solve");
      ++sra_children;
      continue;
    }
    // Parents of the children are checked by name, depth by number.
    const std::string parent =
        span.parent < 0 ? "-1"
        : span.depth == 1 ? std::to_string(span.parent)
                          : "-";
    shape.push_back(span.name + "/" + parent + "/" +
                    std::to_string(span.depth));
    if (span.depth >= 2) {
      EXPECT_EQ(spans[span.parent].name,
                span.depth == 3 ? "cap_relax_retry" : "sdga_stage");
    }
  }
  EXPECT_EQ(shape, expected);
  ASSERT_GE(sra_root, 0);
  EXPECT_GT(sra_children, 0);
  EXPECT_EQ(sra_children % 2, 0);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.name.find('.'), std::string::npos) << span.name;
  }
}

// BBA adds its node and Definition 8 gain-evaluation counts once per
// query. The node counter matches the nodes the results report; the
// per-stage gain memo keeps evaluations within T per node (one per cursor
// is the unmemoized cost). CI reruns this test under WGRAP_OBS=0, where
// the counters do not exist and the results must hash to the same pinned
// digest: telemetry never changes an answer.
TEST(ObsBbaCountersTest, CountNodesAndGainEvaluationsPerQuery) {
  data::SyntheticDblpConfig config;
  config.seed = 7;
  auto dataset = data::GenerateReviewerPool(60, 6, config);
  ASSERT_TRUE(dataset.ok());
  core::InstanceParams params;
  params.group_size = 3;
  params.reviewer_workload = 6;
  auto instance = core::Instance::FromDataset(*dataset, params);
  ASSERT_TRUE(instance.ok());

  Registry& registry = Registry::Global();
  Counter* nodes = registry.GetCounter("wgrap_jra_bba_nodes_total");
  Counter* gain_evals = registry.GetCounter("wgrap_jra_bba_gain_evals_total");
  const int64_t nodes_before = nodes ? nodes->Value() : 0;
  const int64_t evals_before = gain_evals ? gain_evals->Value() : 0;
  int64_t reported_nodes = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  auto fold = [&digest](uint64_t value) {
    digest = (digest ^ value) * 0x100000001b3ULL;
  };
  for (int p = 0; p < instance->num_papers(); ++p) {
    auto top3 = core::SolveJraBbaTopK(*instance, p, 3);
    ASSERT_TRUE(top3.ok()) << top3.status().ToString();
    reported_nodes += (*top3)[0].nodes_explored;
    for (const core::JraResult& result : *top3) {
      for (int r : result.group) fold(static_cast<uint64_t>(r));
      uint64_t bits = 0;
      std::memcpy(&bits, &result.score, sizeof(bits));
      fold(bits);
    }
  }
  EXPECT_EQ(digest, 1652576152188270364ULL) << "digest " << digest;
  EXPECT_GT(reported_nodes, 0);
  if (!registry.enabled()) {
    EXPECT_EQ(nodes, nullptr);
    EXPECT_EQ(gain_evals, nullptr);
    return;
  }
  ASSERT_NE(nodes, nullptr);
  ASSERT_NE(gain_evals, nullptr);
  EXPECT_EQ(nodes->Value() - nodes_before, reported_nodes);
  const int64_t evals = gain_evals->Value() - evals_before;
  EXPECT_GT(evals, 0);
  EXPECT_LE(evals, instance->num_topics() * reported_nodes);
}

}  // namespace
}  // namespace wgrap::obs
