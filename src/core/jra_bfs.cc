// Brute Force Search for JRA: enumerates every δp-combination of reviewers
// in lexicographic order. Exponential, but exact — the ground-truth oracle
// for BBA/ILP/CP tests and the BFS baseline of Fig. 9/14.
#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/jra.h"

namespace wgrap::core {

double ScoreGroup(const Instance& instance, int paper,
                  const std::vector<int>& group) {
  GroupFold fold(instance);
  for (int r : group) fold.Add(r);
  return fold.Score(paper);
}

Result<JraResult> SolveJraBruteForce(const Instance& instance, int paper,
                                     const JraOptions& options) {
  if (paper < 0 || paper >= instance.num_papers()) {
    return Status::OutOfRange("paper id out of range");
  }
  const int R = instance.num_reviewers();
  const int k = instance.group_size();
  WGRAP_CHECK(k <= R);

  // Pre-filter conflicted reviewers.
  std::vector<int> candidates;
  for (int r = 0; r < R; ++r) {
    if (!instance.IsConflict(r, paper)) candidates.push_back(r);
  }
  const int n = static_cast<int>(candidates.size());
  if (n < k) return Status::Infeasible("fewer eligible reviewers than δp");

  Stopwatch watch;
  Deadline deadline(options.time_limit_seconds);
  JraResult best;
  best.score = -1.0;

  // Incremental prefix maxima: combo[i] is an index into `candidates`;
  // prefix_max[i] is the group vector over combo[0..i-1].
  const int T = instance.num_topics();
  std::vector<int> combo(k);
  Matrix prefix_max(k + 1, T, 0.0);
  const double* pv = instance.PaperVector(paper);
  const double mass = instance.PaperMass(paper);

  // Recursive enumeration with explicit stack semantics via plain recursion.
  struct Enumerator {
    const Instance& instance;
    const std::vector<int>& candidates;
    const double* pv;
    double mass;
    int k, n, T;
    std::vector<int>& combo;
    Matrix& prefix_max;
    JraResult& best;
    const Deadline& deadline;
    const JraOptions& options;
    int64_t nodes = 0;
    bool aborted = false;

    void Recurse(int depth, int from) {
      if (aborted) return;
      if (depth == k) {
        ++nodes;
        const double score =
            ScoreVectors(instance.scoring(), prefix_max.Row(k), pv, T, mass);
        if (score > best.score) {
          best.score = score;
          best.group.clear();
          for (int i : combo) best.group.push_back(candidates[i]);
        }
        if ((nodes & 0xfff) == 0 &&
            (deadline.Expired() || IsCancelled(options.cancel) ||
             (options.max_nodes > 0 && nodes >= options.max_nodes))) {
          aborted = true;
        }
        return;
      }
      for (int i = from; i <= n - (k - depth); ++i) {
        combo[depth] = i;
        const double* rv = instance.ReviewerVector(candidates[i]);
        const double* prev = prefix_max.Row(depth);
        double* next = prefix_max.Row(depth + 1);
        for (int t = 0; t < T; ++t) next[t] = std::max(prev[t], rv[t]);
        Recurse(depth + 1, i + 1);
        if (aborted) return;
      }
    }
  };

  Enumerator enumerator{instance, candidates, pv,        mass,
                        k,        n,          T,         combo,
                        prefix_max, best,     deadline,  options};
  enumerator.Recurse(0, 0);
  // A cancelled caller wants no result at all, unlike a budget abort which
  // still reports the (non-proven) best-so-far group.
  WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "BFS"));

  best.nodes_explored = enumerator.nodes;
  best.proven_optimal = !enumerator.aborted;
  best.seconds = watch.ElapsedSeconds();
  if (best.group.empty()) {
    return Status::ResourceExhausted("BFS aborted before any group");
  }
  std::sort(best.group.begin(), best.group.end());
  return best;
}

}  // namespace wgrap::core
