// Ablation (DESIGN.md §5): the per-stage workload confinement ⌈δr/δp⌉
// that SDGA's approximation proof relies on — disabling it lets early
// stages exhaust the strongest reviewers.
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/metrics.h"

int main() {
  using namespace wgrap;
  std::printf("=== Ablation: SDGA stage confinement ===\n\n");
  TablePrinter table({"dataset", "confined", "unconfined"});
  for (data::Area area : {data::Area::kDatabases, data::Area::kDataMining}) {
    auto setup = bench::MakeConference(area, 2008, /*group_size=*/3);
    auto ideal = core::BuildIdealAssignment(setup.instance);
    bench::DieOnError(ideal.status(), "ideal");

    auto run = [&](core::SdgaOptions options) {
      Stopwatch watch;
      auto assignment = core::SolveCraSdga(setup.instance, options);
      bench::DieOnError(assignment.status(), "SDGA");
      return StrFormat("%.2f%% in %.1fs",
                       100.0 * core::OptimalityRatio(*assignment, *ideal),
                       watch.ElapsedSeconds());
    };
    core::SdgaOptions unconfined;
    unconfined.confine_stage_workload = false;
    table.AddRow({bench::DatasetLabel(area, 2008), run(core::SdgaOptions()),
                  run(unconfined)});
  }
  table.Print();
  std::printf("\nExpected: confinement >= unconfined quality (it reserves "
              "experts for tail stages, Sec. 4.2 example).\n");
  return 0;
}
