// End-to-end conference pipeline, exercising every layer of the library the
// way Sec. 2.4 + Sec. 4 + Sec. 5 compose them:
//
//   publication corpus -> ATM (Gibbs) -> reviewer topic vectors
//   submission abstracts -> EM against fitted topics -> paper vectors
//   WGRAP instance -> every registered CRA solver -> program assignment
//   metrics + case study report
//
//   build/examples/conference_assignment
#include <cstdio>

#include "wgrap.h"

int main() {
  using namespace wgrap;

  // Full-fidelity dataset: corpus sampled from the ATM generative story,
  // reviewer vectors from a fitted Author-Topic Model, paper vectors from
  // EM inference (DB'08 scaled down by 5 to keep the example quick).
  std::printf("fitting ATM on the reviewers' publication corpus...\n");
  data::SyntheticDblpConfig config;
  config.num_topics = 15;
  auto dataset = data::GenerateDatasetViaAtm(data::Area::kDatabases, 2008,
                                             config, /*scale_divisor=*/5);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %d submissions, %d PC members, T=%d topics\n",
              dataset->num_papers(), dataset->num_reviewers(),
              dataset->num_topics);

  core::InstanceParams params;
  params.group_size = 3;
  auto instance = core::Instance::FromDataset(*dataset, params);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  std::printf("minimal balanced workload dr = %d\n\n",
              instance->reviewer_workload());

  // Compare the paper's line-up on this instance: every feasible CRA
  // solver in the registry, dispatched by name.
  auto ideal = core::BuildIdealAssignment(*instance);
  if (!ideal.ok()) return 1;
  const auto& registry = core::SolverRegistry::Default();
  core::SolverRunOptions options;
  options.time_limit_seconds = 10.0;
  std::printf("%-12s %10s %12s %10s\n", "method", "score", "optimality",
              "lowest");
  Result<core::Assignment> champion = Status::Internal("no solver ran");
  for (const auto* solver : registry.List(core::SolverFamily::kCra)) {
    if (!solver->produces_feasible) continue;  // skip the RRAP diagnostic
    if (!solver->cra) continue;  // sra and ls only refine an assignment
    auto result = registry.SolveCra(solver->name, *instance, options);
    if (!result.ok()) {
      // A baseline blowing its budget shouldn't kill the comparison table.
      std::printf("%-12s failed: %s\n", solver->name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-12s %10.3f %11.1f%% %10.3f\n", solver->name.c_str(),
                result->TotalScore(),
                100.0 * core::OptimalityRatio(*result, *ideal),
                core::LowestCoverage(*result));
    if (solver->name == "sdga-sra") champion = std::move(result);
  }
  if (!champion.ok()) {
    std::fprintf(stderr, "no sdga-sra result for the case study: %s\n",
                 champion.status().ToString().c_str());
    return 1;
  }

  // Case study on the first submission, as in Figs. 19-20.
  auto report = core::BuildCaseStudy(*instance, *champion, *dataset,
                                     /*paper=*/0, /*top_k=*/5);
  if (!report.ok()) {
    std::fprintf(stderr, "case study: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s",
              core::FormatCaseStudy(*report, "SDGA-SRA case study").c_str());
  return 0;
}
