// Stochastic Refinement Algorithm (SRA) — Algorithm 3 / Sec. 4.4.
//
// Each round removes exactly one reviewer from every paper — sampled with
// probability proportional to 1 - P(r|p), where P(r|p) is the data-driven
// suitability model of Eq. 9 with the exponential decay and 1/R floor of
// Eq. 10 — and completes the assignment with one Stage-WGRAP linear
// assignment (the same machinery as SDGA's stages). The best assignment
// seen is kept; the process stops after ω rounds without improvement.
//
// Parallelism: victim sampling is independent across papers, so each
// (round, paper) draws from its own Rng stream split off options.seed and
// papers are processed in parallel; removals are then applied in paper
// order. Results are bit-identical for any num_threads.
//
// Suitability model: the Eq. 9 denominators (one total per reviewer, an
// O(PR) pass once per refinement) are kept; the numerators are recomputed
// for each paper's δp members when the round samples, so no P×R matrix
// lives across rounds. Both go through Instance::PairUtility, which
// dispatches to the bit-identical sparse kernels when the instance carries
// sparse views, and the completion step re-scores marginal gains through
// the instance's row kernel — so SRA needs no sparse code of its own.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wgrap::core {

// Defined in cra_sdga.cc: the SDGA stage pipeline, here completing the
// freed slots; `cache` persists the row-maintained profits across rounds.
Status SolveStageAssignment(const Instance& instance,
                            const std::vector<int>& capacity,
                            ThreadPool* pool, GainCache* cache,
                            Assignment* assignment);

Result<Assignment> RefineSra(const Instance& instance,
                             const Assignment& initial,
                             const SraOptions& options) {
  obs::ScopedSpan solve_span("sra");
  if (options.convergence_window <= 0) {
    return Status::InvalidArgument("convergence_window must be > 0");
  }
  // The vestigial engine and gain-mode fields (core/cra.h) accept one
  // value each.
  if (options.backend != LapBackend::kHungarian) {
    return Status::InvalidArgument(
        "option 'lap': SDGA/SRA stages run on 'hungarian' only");
  }
  if (options.gains != GainMode::kIncremental) {
    return Status::InvalidArgument(
        "option 'gains': SDGA/SRA stages run on 'incremental' only");
  }
  WGRAP_RETURN_IF_ERROR(initial.ValidateComplete());

  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  Stopwatch watch;
  Deadline deadline(options.time_limit_seconds);
  ThreadPool pool(options.num_threads);
  // One cache across all refinement rounds. The next completion step
  // re-scores, one row pass each, only the papers whose group vector the
  // round's removal (and the last re-add) moved.
  GainCache gain_cache(&instance);

  // Per-reviewer totals Σ_p' c(r→, p'→), the TF-IDF-style denominator of
  // Eq. 9, each summed in ascending paper order.
  std::vector<double> reviewer_total(R, 0.0);
  pool.ParallelFor(0, R, /*grain=*/16, [&](int64_t r) {
    double total = 0.0;
    for (int p = 0; p < P; ++p) {
      total += instance.PairUtility(static_cast<int>(r), p);
    }
    reviewer_total[r] = total;
  });

  Assignment current = initial;
  Assignment best = initial;
  if (options.trace) options.trace(watch.ElapsedSeconds(), best.TotalScore());
  if (options.progress) {
    options.progress(ProgressFrame{"sra", 0, best.TotalScore()});
  }

  int rounds_without_improvement = 0;
  int64_t rounds_run = 0;
  std::vector<int> victims(P);  // reviewer removed from each paper
  for (int iteration = 0;
       iteration < options.max_iterations &&
       rounds_without_improvement < options.convergence_window &&
       !deadline.Expired();
       ++iteration) {
    // Deadline expiry returns the best assignment so far (anytime contract);
    // cancellation means the caller no longer wants any result.
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "SRA"));
    const double decay = std::exp(-options.decay_lambda * iteration);
    // Removal phase: drop one reviewer per paper, favouring low P(r|p).
    // Victim choice per paper reads only the frozen `current`, so papers
    // run in parallel, each on its own (iteration, paper) stream.
    {
      obs::ScopedSpan sample_span("sra_sample");
      pool.ParallelForChunks(
          0, P, /*grain=*/16, [&](int64_t chunk_begin, int64_t chunk_end) {
            std::vector<double> removal_weight;
            for (int64_t pi = chunk_begin; pi < chunk_end; ++pi) {
              const int p = static_cast<int>(pi);
              Rng rng = Rng::ForStream(
                  options.seed, static_cast<uint64_t>(iteration) * P + p);
              const std::vector<int>& group = current.GroupFor(p);
              removal_weight.resize(group.size());
              double total = 0.0;
              for (size_t i = 0; i < group.size(); ++i) {
                const int r = group[i];
                double suitability;
                if (options.uniform_probability) {
                  suitability = 1.0 / R;
                } else {
                  const double data_term =
                      reviewer_total[r] > 0.0
                          ? decay * instance.PairUtility(r, p) /
                                reviewer_total[r]
                          : 0.0;
                  suitability = std::max(1.0 / R, data_term);  // Eq. 10
                }
                removal_weight[i] = std::max(0.0, 1.0 - suitability);
                total += removal_weight[i];
              }
              int victim;
              if (total <= 0.0) {
                victim = static_cast<int>(rng.NextBounded(group.size()));
              } else {
                victim = rng.SampleDiscrete(removal_weight);
                WGRAP_CHECK(victim >= 0);
              }
              victims[p] = group[victim];
            }
          });
      for (int p = 0; p < P; ++p) {
        WGRAP_RETURN_IF_ERROR(current.Remove(p, victims[p]));
        gain_cache.Note(p);
      }
    }
    // Completion phase: one Stage-WGRAP linear assignment over the freed
    // slots (capacity = remaining workload, always feasible because every
    // removal freed exactly one unit).
    std::vector<int> capacity(R);
    for (int r = 0; r < R; ++r) {
      capacity[r] = instance.reviewer_workload() - current.LoadOf(r);
    }
    WGRAP_RETURN_IF_ERROR(
        SolveStageAssignment(instance, capacity, &pool, &gain_cache, &current));
    if (current.TotalScore() > best.TotalScore() + 1e-12) {
      best = current;
      rounds_without_improvement = 0;
      // Improvement frames only: the frame count stays deterministic (a
      // pure function of the seeded trajectory) and the stream monotone.
      if (options.progress) {
        options.progress(ProgressFrame{"sra", iteration + 1,
                                       best.TotalScore()});
      }
    } else {
      ++rounds_without_improvement;
    }
    if (options.trace) {
      options.trace(watch.ElapsedSeconds(), best.TotalScore());
    }
    ++rounds_run;
  }
  static obs::Counter* const rounds_total =
      obs::Registry::Global().GetCounter("wgrap_sra_rounds_total");
  if (rounds_total && rounds_run > 0) rounds_total->Add(rounds_run);
  gain_cache.ReportCounters();
  WGRAP_RETURN_IF_ERROR(best.ValidateComplete());
  return best;
}

}  // namespace wgrap::core
