#include "bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace wgrap::bench {

void DieOnError(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "FATAL [%s]: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

ConferenceSetup MakeConference(data::Area area, int year, int group_size,
                               core::ScoringFunction scoring,
                               bool scale_by_h_index) {
  data::SyntheticDblpConfig config;
  auto dataset = data::GenerateConferenceDataset(area, year, config);
  DieOnError(dataset.status(), "GenerateConferenceDataset");
  if (scale_by_h_index) data::ScaleReviewersByHIndex(&*dataset);
  core::InstanceParams params;
  params.group_size = group_size;
  params.scoring = scoring;
  auto instance = core::Instance::FromDataset(*dataset, params);
  DieOnError(instance.status(), "Instance::FromDataset");
  return ConferenceSetup{std::move(dataset).value(),
                         std::move(instance).value()};
}

core::Instance MakeJraPool(int num_reviewers, int group_size, uint64_t seed) {
  data::SyntheticDblpConfig config;
  config.seed = seed;
  auto dataset = data::GenerateReviewerPool(num_reviewers, /*num_papers=*/20,
                                            config);
  DieOnError(dataset.status(), "GenerateReviewerPool");
  core::InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = num_reviewers;  // workload is moot for JRA
  auto instance = core::Instance::FromDataset(*dataset, params);
  DieOnError(instance.status(), "Instance::FromDataset");
  return std::move(instance).value();
}

std::vector<CraMethod> PaperCraMethods(int num_threads) {
  return {
      {"SM",
       [](const core::Instance& instance, double) {
         return core::SolveCraStableMatching(instance);
       }},
      {"ILP",
       [](const core::Instance& instance, double) {
         return core::SolveCraIlpArap(instance);
       }},
      {"BRGG",
       [num_threads](const core::Instance& instance, double) {
         core::CraOptions cra;
         cra.num_threads = num_threads;
         return core::SolveCraBrgg(instance, cra);
       }},
      {"Greedy",
       [](const core::Instance& instance, double) {
         return core::SolveCraGreedy(instance);
       }},
      {"SDGA",
       [num_threads](const core::Instance& instance, double) {
         core::SdgaOptions sdga;
         sdga.num_threads = num_threads;
         return core::SolveCraSdga(instance, sdga);
       }},
      {"SDGA-SRA",
       [num_threads](const core::Instance& instance,
                     double budget_seconds) {
         core::SdgaOptions sdga;
         sdga.num_threads = num_threads;
         core::SraOptions sra;
         sra.time_limit_seconds = budget_seconds;
         sra.num_threads = num_threads;
         return core::SolveCraSdgaSra(instance, sdga, sra);
       }},
  };
}

std::string DatasetLabel(data::Area area, int year) {
  return data::AreaCode(area) + StrFormat("%02d", year % 100);
}

std::string FormatSeconds(double seconds) {
  return StrFormat("%.1f", seconds);
}

}  // namespace wgrap::bench
