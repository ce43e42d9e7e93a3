// Ablation (DESIGN.md §5): how much of BBA's speed comes from the cursor
// upper bound (Eq. 3), the submodular completion bound, and the
// marginal-gain branching order (Definition 8)? Runs full BBA, Algorithm 1
// as published (Eq. 3 only), and the on/off combinations of bounding (both
// bounds) and gain branching over growing R, and reports nodes/time.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"

int main() {
  using namespace wgrap;
  std::printf("=== Ablation: BBA bounding & gain-ordered branching "
              "(dp = 3, avg of 3 papers) ===\n\n");
  TablePrinter table({"R", "full BBA", "Eq. 3 only (Alg. 1)", "no bounding",
                      "no gain order", "neither"});
  struct Variant {
    bool bounding;
    bool gain;
    bool completion;
  };
  const Variant variants[] = {{true, true, true},
                              {true, true, false},
                              {false, true, false},
                              {true, false, true},
                              {false, false, false}};
  for (int r : {50, 100, 200}) {
    core::Instance instance = bench::MakeJraPool(r, 3);
    std::vector<std::string> row = {std::to_string(r)};
    std::vector<core::JraResult> reference(3);  // full BBA, per paper
    for (const Variant& v : variants) {
      core::BbaOptions options;
      options.use_bounding = v.bounding;
      options.use_gain_branching = v.gain;
      options.use_completion_bound = v.completion;
      options.time_limit_seconds = 15.0;
      double seconds = 0.0;
      int64_t nodes = 0;
      bool capped = false;
      for (int p = 0; p < 3; ++p) {
        auto result = core::SolveJraBba(instance, p, options);
        bench::DieOnError(result.status(), "BBA variant");
        seconds += result->seconds;
        nodes += result->nodes_explored;
        capped |= !result->proven_optimal;
        if (&v == &variants[0]) {
          reference[p] = *result;
          continue;
        }
        if (!result->proven_optimal) continue;
        if (result->score + 1e-9 < reference[p].score ||
            reference[p].score + 1e-9 < result->score) {
          std::fprintf(stderr, "ablated BBA lost optimality!\n");
          return 1;
        }
        // Algorithm 1 branches as full BBA does and the completion bound
        // cuts only groups that could not win, so the answer is the same.
        if (v.bounding && v.gain &&
            (result->score != reference[p].score ||
             result->group != reference[p].group)) {
          std::fprintf(stderr, "Eq. 3 only changed the answer!\n");
          return 1;
        }
      }
      row.push_back(StrFormat("%.3fs / %lld nodes%s", seconds / 3,
                              static_cast<long long>(nodes / 3),
                              capped ? " (capped)" : ""));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\nExpected: bounding dominates, and the completion bound "
              "cuts Algorithm 1's nodes further; gain ordering mainly helps "
              "bounding find a strong incumbent early.\n");
  return 0;
}
