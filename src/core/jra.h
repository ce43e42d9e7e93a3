// Journal Reviewer Assignment (Definition 6): find the δp-subset of
// reviewers maximizing c(g→, p→) for a single paper. NP-hard (Lemma 1);
// four solvers are provided, mirroring Sec. 3 / Sec. 5.1 of the paper:
//
//   SolveJraBruteForce — enumerate all C(R, δp) groups (the BFS baseline).
//   SolveJraBba        — the paper's Branch-and-Bound Algorithm (Alg. 1).
//   SolveJraBbaTopK    — BBA returning the k best groups (Fig. 15).
//   SolveJraIlp        — MIP formulation on the lp/ simplex + B&B solver.
//   SolveJraCp         — generic CP search (the CPLEX-CP comparison).
#ifndef WGRAP_CORE_JRA_H_
#define WGRAP_CORE_JRA_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/instance.h"

namespace wgrap::core {

struct JraOptions {
  double time_limit_seconds = 0.0;  // 0 = unlimited
  int64_t max_nodes = 0;            // 0 = unlimited (BFS: group evaluations)
  /// Cooperative cancellation, polled alongside the time/node budget;
  /// solvers abort with kCancelled. Null = never cancelled.
  CancelToken cancel;
};

struct JraResult {
  std::vector<int> group;  // reviewer ids, size δp
  double score = 0.0;      // c(g→, p→)
  int64_t nodes_explored = 0;
  bool proven_optimal = true;
  double seconds = 0.0;
};

/// BBA-specific switches (for the ablation study). Every combination
/// finds an optimal group; use_completion_bound changes no answer at all
/// (groups and score bits), only how many nodes a query visits.
struct BbaOptions : JraOptions {
  /// Use the cursor upper bound (Eq. 3) to prune. Off = exhaustive
  /// backtracking in cursor order (the completion bound is off too).
  bool use_bounding = true;
  /// Pick the max-marginal-gain cursor reviewer when branching
  /// (Definition 8). Off = first non-nil cursor.
  bool use_gain_branching = true;
  /// With use_bounding, also prune with the submodular completion bound
  /// c(S) + the δp − |S| largest Δ(r | S) over unblocked r, once the
  /// result heap is full. Off (with the other two on) = Algorithm 1
  /// exactly, node for node. A library field only, for the ablation
  /// bench; no registry knob sets it.
  bool use_completion_bound = true;
};

/// Exhaustive enumeration of all C(R, δp) groups — O(C(R, δp) · T), only
/// affordable at sanity-check scale (the Fig. 9 "BFS" curve).
/// Contract for all JRA solvers: `paper` must be in [0, P); COI reviewers
/// never appear in the result; `group` has exactly δp distinct ids and
/// `score` equals ScoreGroup(instance, paper, group). On time/node budget
/// exhaustion they return kResourceExhausted rather than a suboptimal
/// group.
Result<JraResult> SolveJraBruteForce(const Instance& instance, int paper,
                                     const JraOptions& options = {});

/// The paper's Branch-and-Bound Algorithm (Algorithm 1, Sec. 3): cursor
/// branching in max-marginal-gain order (Definition 8), pruned by the
/// smaller of the Eq. 3 coverage upper bound and the submodular
/// completion bound (BbaOptions::use_completion_bound). Exact; worst case
/// exponential but orders of magnitude faster than BFS in practice
/// (Fig. 9). Costs: the T sorted lists are instance state
/// (Instance::TopicRanking), so a query pays O(R) set-up (blocking its
/// COI reviewers) and no sort. Each descent into a stage computes the
/// stage's Definition 8 gain row over all R reviewers in one topic-major
/// pass (Instance::GainRow). A node takes the argmax over its stage's
/// cached cursor gains and scores the Eq. 3 bound in O(T). It refills
/// only the cursors that moved: all T when the stage was just entered,
/// otherwise the ones that pointed at the stage's last branch; a refill
/// advances the cursor and reads its gain off the row. The completion
/// bound, tried once the heap is full and Eq. 3 did not prune, costs O(δp)
/// plus an O(R) rescan of the row on its first use after the descent and
/// whenever one of the stage's top δp − s gains was blocked since.
Result<JraResult> SolveJraBba(const Instance& instance, int paper,
                              const BbaOptions& options = {});

/// Top-k variant: `bsf` becomes a size-k heap (Sec. 3, final remark).
/// Results are sorted by score, best first. Nothing is pruned until the
/// heap holds k groups, so the solver registry caps k at kMaxJraTopK
/// (core/registry.h).
Result<std::vector<JraResult>> SolveJraBbaTopK(const Instance& instance,
                                               int paper, int k,
                                               const BbaOptions& options = {});

/// Mixed-integer formulation of JRA solved with the in-repo lp/ simplex +
/// branch-and-bound (the paper's CPLEX-ILP comparison point). Exact but
/// the slowest of the four on most instances (Fig. 9).
Result<JraResult> SolveJraIlp(const Instance& instance, int paper,
                              const JraOptions& options = {});

/// Constraint-programming search over the cp/ select-k substrate (the
/// paper's CPLEX-CP comparison point). Exact, but prunes with a generic
/// best-remaining-reviewer bound that is far looser than BBA's Eq. 3
/// cursor bound — reproducing the Fig. 9 gap between CP and BBA.
Result<JraResult> SolveJraCp(const Instance& instance, int paper,
                             const JraOptions& options = {});

/// Scores an explicit reviewer group against a paper (test helper and the
/// shared evaluation path of all JRA solvers).
double ScoreGroup(const Instance& instance, int paper,
                  const std::vector<int>& group);

}  // namespace wgrap::core

#endif  // WGRAP_CORE_JRA_H_
