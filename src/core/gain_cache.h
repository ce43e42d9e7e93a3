// Incremental marginal-gain engine: keeps the SDGA/SRA stage profit matrix
// (gain(A[p], r, p) of Definition 8 for every pair) alive across stage
// commits instead of rebuilding all P×R entries per stage, and caches the
// local-search group folds behind ScoreWithReplacement. Selected by
// GainMode (core/cra.h) / the registry knob `gains=rebuild|incremental`.
//
// Why whole-row recompute is exact (the contract everything here rests
// on): gain(A[p], r, p) reads the assignment only through paper p's group
// vector g→. So a row whose g→ equals its snapshot holds exactly the
// doubles a full rebuild would compute, and a row whose g→ moved is
// re-scored in one topic-major pass by Assignment::MarginalGainRow, which
// reproduces MarginalGain bit for bit for every reviewer: it walks the
// columns of the instance's CSC reviewer index (Instance::
// ReviewerTopicIndex; the cache owns no index of its own) for the topics
// core::TopicCanGain admits, in ascending order, and adds each reviewer's
// term into its slot — the per-pair kernels' operations in the same
// order, minus terms that are exactly +0.0. That is why
// `gains=incremental` equals `gains=rebuild` exactly — same scores, same
// assignments, at any thread count (tests/gain_cache_test.cc;
// tests/assignment_test.cc pins the row kernel against MarginalGain with
// memcmp).
//
// The int64 domain: what the cache maintains exactly is the stage integer
// program — the 1e9-scaled int64 profits (la::ScaleTransportProfit) both
// stage engines optimize (min-cost flow scales its inputs; the stage
// Hungarian quantizes to the same grid — cra_sdga.cc — so there is
// exactly one integer program per stage in both gain modes).
// Maintenance in the rounded domain cannot be arithmetic (llround is not
// additive — llround(a+b) ≠ llround(a)+llround(b)), so the cache keeps
// the pre-quantization doubles, whose bit-exactness (above) makes the
// derived integers exact: an entry is stored as the identical double the
// rebuild would produce, hence scales to the identical int64. Storing the
// doubles rather than the integers also keeps assembly a straight masked
// copy (no per-entry division back out of the fixed point) — the int64
// view is exposed through ScaledGain() and pinned by the equivalence
// tests.
//
// Cost: a Refresh costs O(T) per noted paper to diff its group vector,
// plus one row pass, O(T + Σ_{admitted t} degree(t) + R), per paper whose
// vector moved — fanned over the ThreadPool, papers independent — plus an
// O(rows × R) assembly copy. The rebuild pays R per-pair kernels of
// O(T) (or O(nnz(r))) per row instead. SDGA stages and SRA rounds change
// nearly every paper's group, so what the cache still saves is the rows
// of papers whose group did not move, and the row pass's skip of covered
// topics (g_t ≥ p_t under c and cP), which the per-pair kernels re-test
// for every reviewer.
#ifndef WGRAP_CORE_GAIN_CACHE_H_
#define WGRAP_CORE_GAIN_CACHE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"

namespace wgrap {
class ThreadPool;
}  // namespace wgrap

namespace wgrap::core {

/// Delta-maintained stage profit matrix, re-scored row by row over the
/// instance's topic-inverted reviewer index.
///
/// Usage protocol (cra_sdga.cc / cra_sra.cc):
///   GainCache cache(&instance);
///   loop {
///     cache.Refresh(assignment, pool);     // first call = full build
///     cache.AssembleStageProfit(...);      // mask + emit LAP matrix
///     ... solve stage, then for every commit:
///     assignment.Add(p, r);  cache.NoteAdd(p, r);      // or
///     assignment.Remove(p, r); cache.NoteRemove(p, r);
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
  /// ScaledGain's value for conflict-of-interest pairs (stored as the
  /// forbidden profit marker, which has no scaled representation).
  static constexpr int64_t kConflictSentinel =
      std::numeric_limits<int64_t>::min();

  /// No gains are computed until the first Refresh.
  explicit GainCache(const Instance* instance);

  bool initialized() const { return initialized_; }

  /// Records a committed Add/Remove on the tracked assignment. O(1); the
  /// work happens at the next Refresh.
  ///
  /// Both directions deliberately funnel into the same note, which keeps
  /// only the paper: Refresh never replays the operation, it diffs the
  /// paper's group vector against the snapshot. Neither the direction nor
  /// the reviewer adds information, so a remove-then-re-add epoch
  /// refreshes back to the bit-identical cache without re-scoring the row
  /// (regression test: tests/gain_cache_test.cc
  /// NoteDirectionIsIrrelevant).
  void NoteAdd(int paper, int /*reviewer*/) { Note(paper); }
  void NoteRemove(int paper, int /*reviewer*/) { Note(paper); }

  /// First call: full gain build against `assignment`, one row pass per
  /// paper (exactly the entries a stage rebuild would compute). Later
  /// calls: diffs the group vectors of noted papers against the snapshot
  /// and re-scores the whole row of each paper whose vector moved — all
  /// on `pool`, bit-identical at any thread count. Out-of-range or
  /// non-finite gains are stored as-is and rejected later by the LAP,
  /// exactly like the rebuild path.
  void Refresh(const Assignment& assignment, ThreadPool* pool);

  /// Emits the LAP profit matrix for `papers` (one row per paper, in
  /// order): kTransportForbidden where capacity[r] <= 0, (r, p) is a COI,
  /// or r already reviews p — the same mask the rebuild path applies —
  /// and the cached gain (the rebuild's exact double) elsewhere.
  /// `stage_profit` is resized to papers.size() × R. Requires a Refresh
  /// with no notes pending.
  void AssembleStageProfit(const std::vector<int>& papers,
                           const std::vector<int>& capacity,
                           const Assignment& assignment, ThreadPool* pool,
                           Matrix* stage_profit) const;

  /// The cached gain double for (paper, reviewer); kTransportForbidden on
  /// COI pairs. Requires initialized().
  double Gain(int paper, int reviewer) const {
    return gains_[static_cast<size_t>(paper) * num_reviewers_ + reviewer];
  }

  /// The entry's value in the stage integer program — the 1e9-scaled
  /// int64 every LAP backend optimizes — or kConflictSentinel on COI
  /// pairs. Test and diagnostics hook; requires initialized().
  int64_t ScaledGain(int paper, int reviewer) const;

  /// Entries re-scored by Refresh patches (excludes the initial build):
  /// R per re-scored row, COI entries included — the invalidation tests
  /// and BM_GainCacheVsRebuild read this.
  int64_t patched_entries() const { return patched_entries_; }
  /// Completed full builds (1 after the first Refresh).
  int64_t full_builds() const { return full_builds_; }

 private:
  void Note(int paper) { pending_.push_back(paper); }
  void Initialize(const Assignment& assignment, ThreadPool* pool);
  /// Re-scores gains_ row `paper` against `assignment`.
  void ScoreRow(const Assignment& assignment, int paper);

  const Instance* instance_;
  const int num_reviewers_;
  /// P×R gain doubles; the snapshot holds the group vectors they were
  /// last scored against (the diff base for moved rows).
  std::vector<double> gains_;
  Matrix group_snapshot_;  // P×T
  std::vector<int> pending_;  // noted papers
  bool initialized_ = false;
  int64_t patched_entries_ = 0;
  int64_t full_builds_ = 0;
};

/// Local-search companion: caches, per paper, the δp "leave one member
/// out" group folds (GroupFold::Saved and bid sum), so a replacement score
/// folds one cached vector plus the incoming reviewer instead of
/// re-folding all δp members. Score() is bit-identical to Assignment::
/// ScoreWithReplacement — max-folding is exact and order-independent, the
/// cached bid partial sums keep the group's summation order, and both
/// score through the same GroupFold — so the `gains` knob never
/// changes a local-search trajectory (asserted in tests/gain_cache_test.cc).
///
/// Protocol (cra_local_search.cc): Prepare() the papers a proposal batch
/// touches (parallel, builds only stale entries), Score() read-only from
/// any thread, Invalidate() the papers mutated by an applied move — kept
/// or rolled back, since a rollback can reorder the group and with bids
/// the per-paper score is summed in group order.
class ReplacementFoldCache {
 public:
  explicit ReplacementFoldCache(const Instance* instance);

  /// Drops the cached folds of `paper`.
  void Invalidate(int paper) { papers_[paper].fresh = false; }

  /// (Re)builds folds for every stale paper in `papers`, in parallel.
  void Prepare(const Assignment& assignment, const std::vector<int>& papers,
               ThreadPool* pool);

  /// Score of `paper` with member `drop` replaced by `add`; requires a
  /// Prepare'd paper whose group still matches the build (drop must be a
  /// member). Safe to call concurrently after Prepare.
  double Score(int paper, int drop, int add) const;

 private:
  struct PaperFolds {
    bool fresh = false;
    std::vector<int> members;  // group order at build time
    // Per member i, the fold of the other members and their Σ bid bonus
    // (summed in group order, matching ScoreWithReplacement).
    std::vector<GroupFold::Saved> kept;
    std::vector<double> kept_bids;
  };

  const Instance* instance_;
  std::vector<PaperFolds> papers_;
};

}  // namespace wgrap::core

#endif  // WGRAP_CORE_GAIN_CACHE_H_
