// Best Reviewer Group Greedy (BRGG) — the strawman discussed at the start of
// Sec. 4.2 and evaluated in Sec. 5.2: at each iteration, compute for every
// unassigned paper the best group of δp reviewers constructible from the
// remaining capacity (greedy marginal-gain construction, since the exact
// per-paper problem is already NP-hard), then commit the highest-scoring
// (group, paper) pair in full. Early papers get excellent groups; late
// papers are left with depleted experts — the behaviour Figs. 10/11 show.
#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/repair.h"

namespace wgrap::core {

namespace {

struct CachedGroup {
  std::vector<int> reviewers;
  double score = -1.0;
  bool valid = false;
};

// Greedily builds a δp-group for `paper` from reviewers with remaining
// capacity, maximizing marginal gain at each pick. This loop over all R
// candidates per pick is BRGG's dominant cost; with CSR topic views each
// gain is O(nnz(r)) instead of O(T) (Instance::MarginalGain).
CachedGroup BuildGreedyGroup(const Instance& instance, int paper,
                             const std::vector<int>& remaining_capacity) {
  std::vector<double> group_vec(instance.num_topics(), 0.0);
  std::vector<char> in_group(instance.num_reviewers(), 0);
  CachedGroup out;
  out.score = 0.0;
  for (int pick = 0; pick < instance.group_size(); ++pick) {
    int best = -1;
    double best_gain = -1.0;
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      if (in_group[r] || remaining_capacity[r] <= 0 ||
          instance.IsConflict(r, paper)) {
        continue;
      }
      const double gain = instance.MarginalGain(group_vec.data(), r, paper) +
                          instance.BidBonus(r, paper);
      if (gain > best_gain) {
        best_gain = gain;
        best = r;
      }
    }
    if (best < 0) {  // not enough capacity left for a full group
      out.score = -1.0;
      out.reviewers.clear();
      return out;
    }
    in_group[best] = 1;
    out.reviewers.push_back(best);
    out.score += best_gain;
    instance.FoldReviewer(best, group_vec.data());
  }
  out.valid = true;
  return out;
}

}  // namespace

Result<Assignment> SolveCraBrgg(const Instance& instance,
                                const CraOptions& options) {
  Deadline deadline(options.time_limit_seconds);
  Assignment assignment(&instance);
  const int P = instance.num_papers();

  std::vector<int> remaining(instance.num_reviewers(),
                             instance.reviewer_workload());
  std::vector<CachedGroup> cache(P);
  std::vector<char> done(P, 0);
  ThreadPool pool(options.num_threads);
  std::vector<int> stale;  // papers whose cached group must be rebuilt

  bool stranded = false;
  for (int committed = 0; committed < P && !stranded; ++committed) {
    if (deadline.Expired()) {
      return Status::ResourceExhausted("BRGG time limit");
    }
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "BRGG"));
    // Rebuild stale groups in parallel: BuildGreedyGroup reads only the
    // frozen capacities, and each paper writes its own cache slot — the
    // JRA-style subproblems of a round are independent.
    stale.clear();
    for (int p = 0; p < P; ++p) {
      if (!done[p] && !cache[p].valid) stale.push_back(p);
    }
    pool.ParallelFor(0, static_cast<int64_t>(stale.size()), /*grain=*/4,
                     [&](int64_t i) {
                       const int p = stale[i];
                       cache[p] = BuildGreedyGroup(instance, p, remaining);
                     });
    int best_paper = -1;
    for (int p = 0; p < P; ++p) {
      if (done[p]) continue;
      if (!cache[p].valid) {
        // Remaining capacity cannot field a full distinct group for p:
        // stop whole-group commits and finish via swap repair below.
        stranded = true;
        break;
      }
      if (best_paper < 0 || cache[p].score > cache[best_paper].score) {
        best_paper = p;
      }
    }
    if (stranded) break;
    WGRAP_CHECK(best_paper >= 0);
    for (int r : cache[best_paper].reviewers) {
      WGRAP_RETURN_IF_ERROR(assignment.Add(best_paper, r));
      if (--remaining[r] == 0) {
        // Saturated reviewer: every cached group using r is now stale.
        for (int p = 0; p < P; ++p) {
          if (done[p] || !cache[p].valid) continue;
          const auto& g = cache[p].reviewers;
          if (std::find(g.begin(), g.end(), r) != g.end()) {
            cache[p].valid = false;
          }
        }
      }
    }
    done[best_paper] = 1;
  }
  // Tail papers that whole-group commits could not serve are completed by
  // best-marginal-gain additions plus one-step swaps.
  WGRAP_RETURN_IF_ERROR(CompleteWithSwapRepair(instance, &assignment));
  WGRAP_RETURN_IF_ERROR(assignment.ValidateComplete());
  return assignment;
}

}  // namespace wgrap::core
