// Plain local-search refinement — the "LS" baseline of Fig. 12. Proposes
// random swap moves (exchange the papers of two assigned reviewers) and
// replace moves (swap an assigned reviewer for an idle one) and accepts any
// strict improvement; terminates on a proposal-stall threshold or the time
// budget. As the paper observes, this gets stuck in local maxima that the
// stochastic refinement escapes.
//
// Parallelism: proposals are generated and scored in fixed-size batches
// against the frozen assignment — proposal j of round k draws from the
// (k·B + j) Rng stream and its gain is evaluated read-only, so the batch
// fans out across threads. The first improving proposal (by index) is then
// applied with the usual mutate-verify-rollback step, which preserves both
// the hill-climbing contract and bit-identical trajectories at any thread
// count.
//
// Sparse topics: gain estimation runs through
// Assignment::ScoreWithReplacement, which folds the candidate group with
// the sparse dense-accumulator kernel when the instance carries sparse
// views (O(δp·nnz) per proposal instead of O(δp·T)); the apply step uses
// the same dispatch inside Add/Remove, so estimate and apply still never
// diverge.
//
// Incremental gains (options.gains == GainMode::kIncremental, default):
// replacement scores come from a ReplacementFoldCache of leave-one-out
// group folds (core/gain_cache.h) — bit-identical to
// ScoreWithReplacement, so the knob never changes a trajectory. The batch
// is then drawn first (RNG only), the folds of the touched papers are
// freshened in parallel, and scoring reads the frozen cache; papers
// touched by an applied move (kept or rolled back) are invalidated.
#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"

namespace wgrap::core {

namespace {

// Proposals evaluated per round. A fixed constant (never derived from the
// thread count) so the proposal stream is identical on every machine.
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
// validity checks only, no scoring — so the stream is identical whichever
// gain mode later scores it. Mirrors the draw sequence of the original
// sequential sampler.
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

// Scores a valid proposal against the frozen assignment: through the fold
// cache when given, else directly through ScoreWithReplacement — the same
// doubles either way (the cache's bit-identity contract).
double ScoreProposal(const Assignment& assignment, const Proposal& proposal,
                     const ReplacementFoldCache* folds) {
  const auto replaced = [&](int paper, int drop, int add) {
    return folds != nullptr ? folds->Score(paper, drop, add)
                            : assignment.ScoreWithReplacement(paper, drop, add);
  };
  if (proposal.is_swap) {
    return replaced(proposal.p1, proposal.r1, proposal.r2) +
           replaced(proposal.p2, proposal.r2, proposal.r1) -
           assignment.PaperScore(proposal.p1) -
           assignment.PaperScore(proposal.p2);
  }
  return replaced(proposal.p1, proposal.r1, proposal.r2) -
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
  ThreadPool pool(options.num_threads);

  Assignment current = initial;
  if (options.trace) {
    options.trace(watch.ElapsedSeconds(), current.TotalScore());
  }
  if (options.progress) {
    options.progress(ProgressFrame{"ls", 0, current.TotalScore()});
  }
  int64_t stall = 0;
  std::vector<Proposal> batch(kProposalBatch);
  const bool use_folds = options.gains == GainMode::kIncremental;
  ReplacementFoldCache folds(&initial.instance());
  std::vector<int> touched;  // papers a batch's valid proposals read
  // With workers available, a whole batch is generated and scored up
  // front in parallel; at one thread, proposals are generated lazily
  // inside the accept loop so nothing past the first improving index is
  // ever scored (fold mode scores the batch up front at any thread count
  // — each score is cheap once the folds exist). All variants walk the
  // same per-index streams and produce the same doubles, so the
  // trajectory is identical across thread counts and gain modes.
  const bool parallel = pool.num_threads() > 1;
  for (int64_t round = 0;
       stall < options.max_stall_proposals && !deadline.Expired(); ++round) {
    // Deadline expiry returns the best assignment so far (anytime contract);
    // cancellation means the caller no longer wants any result.
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "local search"));
    if (use_folds) {
      // Draw first (RNG only), freshen the folds the batch needs, then
      // score against the frozen cache.
      touched.clear();
      for (int j = 0; j < kProposalBatch; ++j) {
        batch[j] = DrawProposal(current, options.seed, round, j);
        if (!batch[j].valid) continue;
        touched.push_back(batch[j].p1);
        if (batch[j].is_swap) touched.push_back(batch[j].p2);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      folds.Prepare(current, touched, &pool);
      pool.ParallelFor(0, kProposalBatch, /*grain=*/8, [&](int64_t j) {
        if (batch[j].valid) {
          batch[j].gain = ScoreProposal(current, batch[j], &folds);
        }
      });
    } else if (parallel) {
      pool.ParallelFor(0, kProposalBatch, /*grain=*/8, [&](int64_t j) {
        batch[j] = DrawProposal(current, options.seed, round, j);
        if (batch[j].valid) {
          batch[j].gain = ScoreProposal(current, batch[j], nullptr);
        }
      });
    }
    // Accept the first improving proposal by index — the same trajectory a
    // sequential walker over this proposal stream would take.
    bool improved = false;
    for (int j = 0;
         j < kProposalBatch && stall < options.max_stall_proposals; ++j) {
      Proposal proposal;
      if (use_folds || parallel) {
        proposal = batch[j];
      } else {
        proposal = DrawProposal(current, options.seed, round, j);
        if (proposal.valid) {
          proposal.gain = ScoreProposal(current, proposal, nullptr);
        }
      }
      if (!proposal.valid || proposal.gain <= 1e-12) {
        ++stall;
        continue;
      }
      bool kept = false;
      WGRAP_RETURN_IF_ERROR(proposal.is_swap
                                ? ApplySwap(&current, proposal, &kept)
                                : ApplyReplace(&current, proposal, &kept));
      // Even a rolled-back apply can permute a group, and with bids the
      // per-paper score sums in group order — drop the folds either way.
      folds.Invalidate(proposal.p1);
      if (proposal.is_swap) folds.Invalidate(proposal.p2);
      if (!kept) {  // read-only estimate disagreed at the tolerance edge
        ++stall;
        continue;
      }
      improved = true;
      stall = 0;
      break;  // proposals after j were scored against a stale assignment
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
