// Plain local-search refinement — the "LS" baseline of Fig. 12. Proposes
// random swap moves (exchange the papers of two assigned reviewers) and
// replace moves (swap an assigned reviewer for an idle one) and accepts any
// strict improvement; terminates on a proposal-stall threshold or the time
// budget. As the paper observes, this gets stuck in local maxima that the
// stochastic refinement escapes.
//
// Trajectory: proposals are drawn in fixed-size batches against the
// round-start assignment — proposal j of round k draws from the (k·B + j)
// Rng stream — and every valid one is scored against that same state with
// Assignment::ScoreWithReplacement before any is applied. The first
// improving proposal (by index) is then applied with the usual
// mutate-verify-rollback step; a rolled-back one counts as a stall and the
// next is judged by its round-start score. The walk is sequential:
// num_threads is ignored, and the output depends only on the seed.
//
// Sparse topics: the scores and the apply step both go through the
// instance's scoring primitives, which run the CSR kernels when the
// instance carries sparse views, so estimate and apply never diverge.
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/cra.h"

namespace wgrap::core {

namespace {

// Proposals drawn per round. A fixed constant, so the proposal stream is
// identical on every machine.
constexpr int kProposalBatch = 64;

struct Proposal {
  bool is_swap = false;
  // Swap: r1 reviews p2 instead of p1 and vice versa. Replace: `out` leaves
  // p1's group, `in` joins it (r2/p2 unused).
  int p1 = -1, r1 = -1;
  int p2 = -1, r2 = -1;
  bool valid = false;
  double gain = 0.0;
};

// Draws proposal j of round `round` from its own stream: RNG choices and
// validity checks only, no scoring. Mirrors the draw sequence of the
// original sequential sampler.
Proposal DrawProposal(const Assignment& assignment, uint64_t seed,
                      int64_t round, int64_t j) {
  const Instance& instance = assignment.instance();
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  Rng rng = Rng::ForStream(seed,
                           static_cast<uint64_t>(round) * kProposalBatch + j);
  Proposal proposal;
  if (P >= 2 && rng.NextDouble() < 0.5) {
    // Swap move: r1 reviews p2 instead of p1, r2 reviews p1 instead of p2.
    proposal.is_swap = true;
    proposal.p1 = static_cast<int>(rng.NextBounded(P));
    proposal.p2 = static_cast<int>(rng.NextBounded(P - 1));
    if (proposal.p2 >= proposal.p1) ++proposal.p2;
    const auto& g1 = assignment.GroupFor(proposal.p1);
    const auto& g2 = assignment.GroupFor(proposal.p2);
    proposal.r1 = g1[rng.NextBounded(g1.size())];
    proposal.r2 = g2[rng.NextBounded(g2.size())];
    if (proposal.r1 == proposal.r2 ||
        assignment.Contains(proposal.p1, proposal.r2) ||
        assignment.Contains(proposal.p2, proposal.r1) ||
        instance.IsConflict(proposal.r2, proposal.p1) ||
        instance.IsConflict(proposal.r1, proposal.p2)) {
      return proposal;  // invalid
    }
    proposal.valid = true;
  } else {
    // Replace move: bring in a reviewer with spare workload.
    proposal.p1 = static_cast<int>(rng.NextBounded(P));
    const auto& group = assignment.GroupFor(proposal.p1);
    proposal.r1 = group[rng.NextBounded(group.size())];  // out
    proposal.r2 = static_cast<int>(rng.NextBounded(R));  // in
    if (proposal.r2 == proposal.r1 ||
        assignment.LoadOf(proposal.r2) >=
            instance.reviewer_workload() ||
        assignment.Contains(proposal.p1, proposal.r2) ||
        instance.IsConflict(proposal.r2, proposal.p1)) {
      return proposal;  // invalid
    }
    proposal.valid = true;
  }
  return proposal;
}

// The score change a valid proposal would make to `assignment`.
double ScoreProposal(const Assignment& assignment, const Proposal& proposal) {
  if (proposal.is_swap) {
    return assignment.ScoreWithReplacement(proposal.p1, proposal.r1,
                                           proposal.r2) +
           assignment.ScoreWithReplacement(proposal.p2, proposal.r2,
                                           proposal.r1) -
           assignment.PaperScore(proposal.p1) -
           assignment.PaperScore(proposal.p2);
  }
  return assignment.ScoreWithReplacement(proposal.p1, proposal.r1,
                                         proposal.r2) -
         assignment.PaperScore(proposal.p1);
}

// Applies "remove (p1, r1); add (p1, r2)" if it improves the total score
// under the assignment's own incremental arithmetic. Returns true when the
// move was kept.
Status ApplyReplace(Assignment* assignment, const Proposal& proposal,
                    bool* kept) {
  const double before = assignment->TotalScore();
  WGRAP_RETURN_IF_ERROR(assignment->Remove(proposal.p1, proposal.r1));
  WGRAP_RETURN_IF_ERROR(assignment->Add(proposal.p1, proposal.r2));
  if (assignment->TotalScore() > before + 1e-12) {
    *kept = true;
    return Status::OK();
  }
  WGRAP_RETURN_IF_ERROR(assignment->Remove(proposal.p1, proposal.r2));
  WGRAP_RETURN_IF_ERROR(assignment->Add(proposal.p1, proposal.r1));
  *kept = false;
  return Status::OK();
}

// Swap counterpart of ApplyReplace. Loads are unchanged by a swap, so the
// four ops cannot fail on workload.
Status ApplySwap(Assignment* assignment, const Proposal& proposal,
                 bool* kept) {
  const double before = assignment->TotalScore();
  WGRAP_RETURN_IF_ERROR(assignment->Remove(proposal.p1, proposal.r1));
  WGRAP_RETURN_IF_ERROR(assignment->Remove(proposal.p2, proposal.r2));
  WGRAP_RETURN_IF_ERROR(assignment->Add(proposal.p1, proposal.r2));
  WGRAP_RETURN_IF_ERROR(assignment->Add(proposal.p2, proposal.r1));
  if (assignment->TotalScore() > before + 1e-12) {
    *kept = true;
    return Status::OK();
  }
  WGRAP_RETURN_IF_ERROR(assignment->Remove(proposal.p1, proposal.r2));
  WGRAP_RETURN_IF_ERROR(assignment->Remove(proposal.p2, proposal.r1));
  WGRAP_RETURN_IF_ERROR(assignment->Add(proposal.p1, proposal.r1));
  WGRAP_RETURN_IF_ERROR(assignment->Add(proposal.p2, proposal.r2));
  *kept = false;
  return Status::OK();
}

}  // namespace

Result<Assignment> RefineLocalSearch(const Instance& instance,
                                     const Assignment& initial,
                                     const LocalSearchOptions& options) {
  (void)instance;  // bound to `initial`; kept for API symmetry with RefineSra
  WGRAP_RETURN_IF_ERROR(initial.ValidateComplete());
  Stopwatch watch;
  Deadline deadline(options.time_limit_seconds);

  Assignment current = initial;
  if (options.trace) {
    options.trace(watch.ElapsedSeconds(), current.TotalScore());
  }
  if (options.progress) {
    options.progress(ProgressFrame{"ls", 0, current.TotalScore()});
  }
  int64_t stall = 0;
  std::vector<Proposal> batch(kProposalBatch);
  for (int64_t round = 0;
       stall < options.max_stall_proposals && !deadline.Expired(); ++round) {
    // Deadline expiry returns the best assignment so far (anytime contract);
    // cancellation means the caller no longer wants any result.
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "local search"));
    // Draw and score the whole batch against the round-start state before
    // any apply: a rollback can reorder a group, and with bids a group's
    // score sums in group order, so a later proposal keeps the score it had
    // at the start of the round.
    for (int j = 0; j < kProposalBatch; ++j) {
      batch[j] = DrawProposal(current, options.seed, round, j);
      if (batch[j].valid) batch[j].gain = ScoreProposal(current, batch[j]);
    }
    // Accept the first improving proposal by index.
    bool improved = false;
    for (int j = 0;
         j < kProposalBatch && stall < options.max_stall_proposals; ++j) {
      const Proposal& proposal = batch[j];
      if (!proposal.valid || proposal.gain <= 1e-12) {
        ++stall;
        continue;
      }
      bool kept = false;
      WGRAP_RETURN_IF_ERROR(proposal.is_swap
                                ? ApplySwap(&current, proposal, &kept)
                                : ApplyReplace(&current, proposal, &kept));
      if (!kept) {  // the estimate cleared the tolerance, the apply did not
        ++stall;
        continue;
      }
      improved = true;
      stall = 0;
      break;  // proposals after j were scored against the old assignment
    }
    if (improved && options.trace) {
      options.trace(watch.ElapsedSeconds(), current.TotalScore());
    }
    // Only improving proposals are ever kept, so the score is monotone.
    if (improved && options.progress) {
      options.progress(ProgressFrame{"ls", round + 1,
                                     current.TotalScore()});
    }
  }
  WGRAP_RETURN_IF_ERROR(current.ValidateComplete());
  return current;
}

}  // namespace wgrap::core
