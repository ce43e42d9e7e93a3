// Shared plumbing for the per-figure bench harnesses: instance
// construction from the synthetic DBLP datasets, the CRA method registry
// used across Sec. 5.2 experiments, and timing helpers.
#ifndef WGRAP_BENCH_BENCH_UTIL_H_
#define WGRAP_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "core/wgrap.h"
#include "data/synthetic_dblp.h"

namespace wgrap::bench {

/// Builds the (area, year) conference instance at Table 3 scale with the
/// paper's minimal workload δr = ⌈P·δp/R⌉ (Sec. 5.2 default).
struct ConferenceSetup {
  data::RapDataset dataset;
  core::Instance instance;
};
ConferenceSetup MakeConference(
    data::Area area, int year, int group_size,
    core::ScoringFunction scoring = core::ScoringFunction::kWeightedCoverage,
    bool scale_by_h_index = false);

/// Builds a JRA pool instance of `num_reviewers` candidates.
core::Instance MakeJraPool(int num_reviewers, int group_size,
                           uint64_t seed = 42);

/// A named CRA method. `budget_seconds` bounds anytime components (SRA);
/// construction-only methods ignore it.
struct CraMethod {
  std::string name;
  std::function<Result<core::Assignment>(const core::Instance&,
                                         double budget_seconds)> run;
};

/// The Sec. 5.2 line-up: SM, ILP, BRGG, Greedy, SDGA, SDGA-SRA.
/// `num_threads` feeds the parallel hot paths of BRGG/SDGA/SDGA-SRA
/// (results are bit-identical for any value; see CraOptions::num_threads).
/// `stage_lap` selects the stage engine of SDGA/SDGA-SRA (hungarian, the
/// library default, or mcf); ILP runs its library default. `gains` picks
/// the stage-profit maintenance mode of SDGA/SDGA-SRA (rebuild vs the
/// delta-maintained GainCache — identical output, different wall-clock).
std::vector<CraMethod> PaperCraMethods(
    int num_threads = 1,
    core::LapBackend stage_lap = core::LapBackend::kHungarian,
    core::GainMode gains = core::GainMode::kIncremental);

/// Aborts with a message when a Result-carrying expression failed.
void DieOnError(const Status& status, const std::string& what);

/// "DB08", "DM09", "T08" labels.
std::string DatasetLabel(data::Area area, int year);

/// Formats seconds like the paper's tables ("0.1", "46.3").
std::string FormatSeconds(double seconds);

}  // namespace wgrap::bench

#endif  // WGRAP_BENCH_BENCH_UTIL_H_
