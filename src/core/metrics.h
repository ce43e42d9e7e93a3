// Evaluation metrics of Sec. 5: the ideal assignment AI, the optimality
// ratio c(A)/c(AI), the superiority ratio, the lowest coverage score
// (Table 7), and the closed-form approximation-ratio curves of Fig. 7.
#ifndef WGRAP_CORE_METRICS_H_
#define WGRAP_CORE_METRICS_H_

#include <optional>

#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"

namespace wgrap::core {

/// The ideal assignment AI of Sec. 5.2: each paper independently gets the
/// best δp reviewers disregarding workloads (built greedily, like the
/// evaluation in the paper; exact per-paper optimization is NP-hard).
/// c(AI) >= c(O), so c(A)/c(AI) lower-bounds the true optimality ratio.
/// Runs AddIdealPicks for every paper.
Result<Assignment> BuildIdealAssignment(const Instance& instance);

/// One paper's share of AI — the per-paper body of BuildIdealAssignment:
/// adds to `ideal` (which must hold no pair of `paper` yet) the δp
/// reviewers BuildIdealAssignment picks for `paper`, in pick order, and
/// writes each pick's marginal gain to gains[0..δp). Each pick is one
/// gain row (Assignment::MarginalGainRow's bits, against the group of the
/// picks so far) and an argmax over the reviewers that are neither picked
/// nor COIs: the first strictly larger gain wins, so a tie goes to the
/// lowest reviewer index. kInfeasible when fewer than δp
/// reviewers are eligible. The picks depend only on the paper's topics,
/// mass, COIs and bids and on the reviewer matrix, so one paper can be
/// re-derived without the others; folding all papers' gains left to
/// right from 0.0 in (paper, pick) order gives
/// BuildIdealAssignment(instance)->TotalScore() bit for bit.
Status AddIdealPicks(int paper, Assignment* ideal, double* gains);

/// c(AI), or nullopt when AI is infeasible (some paper has fewer than δp
/// eligible reviewers) — bit-identical to
/// BuildIdealAssignment(instance)->TotalScore(), or to its failure. Reads
/// the instance's c(AI) memo (core/instance.h): under the memo's mutex it
/// re-derives, with AddIdealPicks's greedy on one T-wide group vector and
/// one R-wide row, only the papers whose rows are stale (every paper on
/// first use, the papers a mutation moved after it), keeping each row's
/// picks and gains, then folds all P×δp pick gains left to right from 0.0
/// in (paper, pick) order. Safe to call concurrently on one instance and
/// on copies sharing its memo. Counts the re-derived papers into
/// wgrap_ideal_papers_refreshed_total.
std::optional<double> IdealScore(const Instance& instance);

/// c(A) / c(AI). `ideal` must come from BuildIdealAssignment on the same
/// instance.
double OptimalityRatio(const Assignment& assignment, const Assignment& ideal);
/// Same, from c(AI) itself (e.g. a fold of AddIdealPicks gains); requires
/// ideal_score > 0.
double OptimalityRatio(const Assignment& assignment, double ideal_score);

/// Superiority of X over Y (Sec. 5.2): fraction of papers whose group in X
/// scores >= (resp. ==) their group in Y.
struct Superiority {
  double better_or_equal = 0.0;  // the bar height in Fig. 11
  double tie = 0.0;              // the dark-grey portion
};
Superiority SuperiorityRatio(const Assignment& x, const Assignment& y);

/// min_p c(g→, p→) — the worst-reviewed paper (Table 7).
double LowestCoverage(const Assignment& assignment);

/// Closed forms plotted in Fig. 7.
double SdgaRatioIntegral(int group_size);  // 1 - (1 - 1/δp)^δp
double SdgaRatioGeneral(int group_size);   // 1 - (1 - 1/δp)^(δp-1)

}  // namespace wgrap::core

#endif  // WGRAP_CORE_METRICS_H_
