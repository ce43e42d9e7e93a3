// Incremental marginal-gain engine: keeps the SDGA/SRA stage program
// (gain(A[p], r, p) of Definition 8 for every pair, as the JV's int64
// cost) alive across stage commits instead of rebuilding all P×R entries
// per stage. It is the only profit source of the stage pipeline
// (cra_sdga.cc, and the SRA completions of cra_sra.cc).
//
// Why whole-row recompute is exact (the contract everything here rests
// on): gain(A[p], r, p) reads the assignment only through paper p's group
// vector g→. So a row whose g→ equals its snapshot holds exactly the
// values a per-pair rebuild would compute, and a row whose g→ moved is
// re-scored in one topic-major pass by Assignment::MarginalGainRow, which
// reproduces MarginalGain bit for bit for every reviewer: for the topics
// core::TopicCanGain admits, in ascending order, it adds each reviewer's
// term into its slot — the per-pair kernels' operations in the same
// order, give or take terms that are exactly +0.0. It reads the
// instance's reviewer index (Instance::ReviewerTopicIndex; the cache owns
// no index of its own): a light topic by walking its CSC column, a heavy
// one by a vector kernel over its dense column. The tests/gain_cache_test.cc
// oracle runs SDGA on per-pair profits and compares with memcmp, and
// tests/assignment_test.cc pins the row kernel against MarginalGain.
//
// The storage is the stage integer program itself. A row pass computes
// the bit-exact doubles into a per-thread scratch row and stores each cell
// as la::JvCost(gain) = kJvCostOrigin - ScaleTransportProfit(gain), the
// form the stage JV reads in place (la::SolveCapacitatedRows): a COI is
// la::kJvNoEdge, folded into the same loop, and an out-of-range gain
// la::kJvBadProfit, which the JV rejects if a stage could use it. The
// rounding happens once per pass, from the exact doubles, so the integers
// are exact too; maintenance in the rounded domain could not be arithmetic
// (llround is not additive), which is why a moved row is re-scored whole.
// No stage copies, masks or scales a cell: it passes CostRow(p) and the
// paper's current reviewers (the excluded agents) to the JV.
//
// Cost: a Refresh costs O(T) per noted paper to diff its group vector,
// plus one row pass per paper whose vector moved — fanned over the
// ThreadPool, papers independent. A row pass is O(T + R) plus, per
// admitted topic, degree(t) scattered adds for a light column or R/4
// contiguous vector steps (AVX2; R scalar adds on the scalar backend) for
// a heavy one. A column is heavy from a quarter of the reviewers up
// (sparse::TopicIndex::kHeavyColumnDivisor), where the contiguous pass
// beats the id walk; every DB08 column is heavy, no sparse_p400 column
// is. A per-pair rebuild would pay R kernels of O(T) (or O(nnz(r))) per
// row instead. SDGA stages and SRA rounds change nearly every paper's
// group, so what the cache saves is the rows of papers whose group did not
// move, and the row pass's skip of covered topics (g_t ≥ p_t under c and
// cP), which the per-pair kernels re-test for every reviewer. Memory: P×R
// int64 plus the P×T group snapshot.
#ifndef WGRAP_CORE_GAIN_CACHE_H_
#define WGRAP_CORE_GAIN_CACHE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"

namespace wgrap {
class ThreadPool;
}  // namespace wgrap

namespace wgrap::core {

/// Delta-maintained stage cost rows, re-scored row by row over the
/// instance's topic-inverted reviewer index.
///
/// Usage protocol (cra_sdga.cc / cra_sra.cc):
///   GainCache cache(&instance);
///   loop {
///     cache.Refresh(assignment, pool);     // first call = full build
///     ... solve the stage on CostRow(p) rows, then for every commit:
///     assignment.Add(p, r);  cache.Note(p);      // or
///     assignment.Remove(p, r); cache.Note(p);
///   }
/// Every mutation of the tracked assignment between Refresh calls must be
/// noted — an unnoted change makes cached entries silently stale. The
/// instance must not change for the cache's lifetime: a cache lives inside
/// one solve, and online updates (core/update.h) run between solves. Not
/// thread-safe; one cache per solver loop, mutated only between parallel
/// regions (Refresh itself fans out internally, touched papers are row-
/// disjoint).
class GainCache {
 public:
  /// ScaledGain's value for conflict-of-interest pairs, and for gains
  /// outside the scalable range: neither has a scaled representation.
  static constexpr int64_t kConflictSentinel =
      std::numeric_limits<int64_t>::min();
  static constexpr int64_t kOutOfRangeSentinel = kConflictSentinel + 1;

  /// No gains are computed until the first Refresh.
  explicit GainCache(const Instance* instance);

  /// Records a committed Add or Remove at `paper` on the tracked
  /// assignment. O(1); the work happens at the next Refresh.
  ///
  /// The note keeps only the paper: Refresh never replays the operation,
  /// it diffs the paper's group vector against the snapshot. Neither the
  /// direction nor the reviewer adds information, so a remove-then-re-add
  /// epoch refreshes back to the bit-identical cache without re-scoring
  /// the row (regression test: tests/gain_cache_test.cc
  /// NoteDirectionIsIrrelevant).
  void Note(int paper) { pending_.push_back(paper); }

  /// First call: full gain build against `assignment`, one row pass per
  /// paper. Later calls: diffs the group vectors of noted papers against
  /// the snapshot and re-scores the whole row of each paper whose vector
  /// moved — all on `pool`, bit-identical at any thread count.
  /// Out-of-range or non-finite gains are stored as la::kJvBadProfit and
  /// rejected later by the JV, if a stage can use them.
  void Refresh(const Assignment& assignment, ThreadPool* pool);

  /// Paper `paper`'s row of R la::JvCost cells, read in place by the stage
  /// JV: la::kJvNoEdge on COI pairs. Members and exhausted reviewers are
  /// not masked here; the JV excludes them. Valid until the next Refresh;
  /// requires a Refresh with no notes pending.
  const int64_t* CostRow(int paper) const {
    WGRAP_CHECK_MSG(initialized_ && pending_.empty(),
                    "CostRow requires a Refresh with no notes pending");
    return &costs_[static_cast<size_t>(paper) * num_reviewers_];
  }

  /// The entry's value in the stage integer program — the 1e9-scaled
  /// int64 profit, kJvCostOrigin - the stored cost — or kConflictSentinel
  /// on COI pairs (kOutOfRangeSentinel on out-of-range gains). Test and
  /// diagnostics hook; requires a Refresh.
  int64_t ScaledGain(int paper, int reviewer) const;

  /// A probe and test helper, not a solver step: emits the masked stage
  /// profit matrix for `papers` (one row per paper, in order) as doubles —
  /// kTransportForbidden where capacity[r] <= 0, (r, p) is a COI, or r
  /// already reviews p, and ScaledGain / 1e9 elsewhere (+inf for an
  /// out-of-range gain). ScaleTransportProfit maps each emitted value back
  /// to ScaledGain exactly (|s| <= 1e15), so a profit-matrix engine solves
  /// the stage's integer program. `stage_profit` is resized to
  /// papers.size() × R. Requires a Refresh with no notes pending. Leaves
  /// once the benchmark's stage probe reads CostRow instead.
  void AssembleStageProfit(const std::vector<int>& papers,
                           const std::vector<int>& capacity,
                           const Assignment& assignment, ThreadPool* pool,
                           Matrix* stage_profit) const;

  /// Entries re-scored by Refresh patches (excludes the initial build):
  /// R per re-scored row, COI entries included — the invalidation tests
  /// and BM_GainCacheVsRebuild read this.
  int64_t patched_entries() const { return patched_entries_; }
  /// Completed full builds (1 after the first Refresh).
  int64_t full_builds() const { return full_builds_; }
  /// Adds patched_entries() and full_builds() to the solve telemetry
  /// counters wgrap_gain_cache_{patched_cells,full_builds}_total.
  void ReportCounters() const;

 private:
  void Initialize(const Assignment& assignment, ThreadPool* pool);
  /// Re-scores costs_ row `paper` against `assignment`.
  void ScoreRow(const Assignment& assignment, int paper);

  const Instance* instance_;
  const int num_reviewers_;
  /// P×R la::JvCost cells; the snapshot holds the group vectors they were
  /// last scored against (the diff base for moved rows).
  std::vector<int64_t> costs_;
  Matrix group_snapshot_;  // P×T
  std::vector<int> pending_;  // noted papers
  bool initialized_ = false;
  int64_t patched_entries_ = 0;
  int64_t full_builds_ = 0;
};

}  // namespace wgrap::core

#endif  // WGRAP_CORE_GAIN_CACHE_H_
