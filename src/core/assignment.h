// A (possibly partial) WGRAP assignment A ⊆ P × R with incremental
// group-expertise maintenance: adding a reviewer updates the group
// max-vector (Definition 2) and cached coverage score in O(T) — or
// O(nnz) when the bound Instance carries CSR topic views. Every scoring
// path here goes through the Instance's primitives (MarginalGain,
// FoldReviewer, GroupFold), which pick the kernels.
#ifndef WGRAP_CORE_ASSIGNMENT_H_
#define WGRAP_CORE_ASSIGNMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/instance.h"

namespace wgrap::core {

/// Mutable assignment bound to an Instance (which must outlive it).
class Assignment {
 public:
  explicit Assignment(const Instance* instance);

  /// Builds the assignment holding `pairs` (paper, reviewer) on `instance`.
  /// Each pair gets AddUnchecked's checks in pair order — range, then
  /// duplicate, then COI — and the first failure is returned with
  /// AddUnchecked's code and message. Groups are placed in pair order, so
  /// GroupFor(p) lists p's reviewers as they appear in `pairs`. No gain is
  /// summed and no reviewer is folded per pair: one RecomputeAll derives
  /// the group vector and score of every paper with a pair, and the total,
  /// at the end, so the result is bitwise identical to AddUnchecked on
  /// each pair followed by RecomputeAll, with every row exact. O(|pairs|·δp)
  /// checks plus one RecomputeAll, against the replay's extra |pairs|
  /// marginal gains and folds.
  static Result<Assignment> FromPairs(
      const Instance* instance, const std::vector<std::pair<int, int>>& pairs);

  /// A copy of this assignment bound to `instance`, which must be a copy
  /// of instance() at the same state (same shape, topics and COIs): the
  /// groups, loads, group vectors, scores and stale-row flags are copied,
  /// not re-derived, so the result is bitwise this assignment. O(P·(δp +
  /// T)) copies, no fold or score. Checks the shape only; an `instance`
  /// at another revision makes the copy's next RecomputeAll a full pass.
  Assignment ReboundTo(const Instance* instance) const;

  const Instance& instance() const { return *instance_; }

  /// Reviewers currently assigned to paper p (unordered).
  const std::vector<int>& GroupFor(int paper) const {
    return groups_[paper];
  }
  /// Number of papers currently assigned to reviewer r.
  int LoadOf(int reviewer) const { return load_[reviewer]; }
  bool Contains(int paper, int reviewer) const;

  /// Total number of (r, p) pairs in A.
  int64_t size() const { return size_; }

  /// Every (paper, reviewer) pair, papers ascending and each group in
  /// order: FromPairs(&instance(), Pairs()) rebuilds this assignment.
  std::vector<std::pair<int, int>> Pairs() const;

  /// Group expertise vector g→ of paper p (element-wise max, Definition 2).
  const double* GroupVector(int paper) const { return group_vec_.Row(paper); }

  /// Cached c(g→, p→) for paper p (plus the per-pair bid bonuses when the
  /// instance carries bids — see Instance::SetBids).
  double PaperScore(int paper) const { return paper_score_[paper]; }

  /// Σ_p c(g→, p→) — the WGRAP objective (Definition 3).
  double TotalScore() const { return total_score_; }

  /// gain(A[p], r, p) per Definition 8 (+ bid bonus if bids are set);
  /// O(T) dense, O(nnz(r)) with sparse views — same bits either way.
  double MarginalGain(int paper, int reviewer) const;

  /// Writes MarginalGain(paper, r) into out[r] for every reviewer r (COI
  /// pairs included), bit for bit: Instance::GainRow against the paper's
  /// group vector (one topic-major pass, the same bits as the per-pair
  /// kernel), then BidBonus added per reviewer when bids are set. Without
  /// bids the bonus is 0.0 and adding it would change no bit (a gain is
  /// never -0.0), so that pass is skipped. O(T + Σ_{admitted light t}
  /// degree(t) + R·#{admitted heavy t} + R) against MarginalGain's R calls.
  void MarginalGainRow(int paper, double* out) const;

  /// Score of `paper` with `drop` replaced by `add` in its group, computed
  /// read-only with the same GroupFold the internal recompute uses — local
  /// search scores its proposals with it and applies them with Remove/Add,
  /// so the two must never diverge. Safe to call from several threads
  /// (GroupFold scratch is per thread). O(δp·T) dense, O(δp·nnz) sparse.
  double ScoreWithReplacement(int paper, int drop, int add) const;

  /// Adds (r, p). Fails on duplicates, COI, full group, or exhausted
  /// workload. O(T) on success. Like AddUnchecked, it adds the pair's gain
  /// to the paper's score, so the row goes stale: its score may differ in
  /// the last bits from the one RecomputeAll derives.
  Status Add(int paper, int reviewer);

  /// Adds (r, p) without capacity checks (used to build the *ideal*
  /// assignment AI of Sec. 5.2, which deliberately ignores workloads).
  /// Duplicate and COI checks still apply. Marks the row stale.
  Status AddUnchecked(int paper, int reviewer);

  /// Removes (r, p); re-derives p's group vector and score in O(δp·T),
  /// which leaves the row exact.
  Status Remove(int paper, int reviewer);

  /// OK iff every group has exactly δp reviewers, loads respect δr, and no
  /// COI pair is used.
  Status ValidateComplete() const;

  /// Leaves every cached group vector and paper score as a fresh
  /// derivation from the current groups would give, discarding whatever
  /// accumulation history produced them, and re-sums the total in paper
  /// order. Max-folding is order-independent, so two assignments with
  /// equal groups (per paper, in order) are bitwise identical after this
  /// call no matter how they were built — the normalization the update
  /// subsystem (core/update.h) relies on for its patched-vs-fresh
  /// mechanism equivalence.
  ///
  /// Only the stale rows are re-derived. A row goes stale when Add or
  /// AddUnchecked touches it; Remove, this call and the online updater's
  /// per-paper recomputes leave it exact, and the updater's paper surgery
  /// carries the flags with the rows. The flags hold for the instance
  /// revision the assignment last saw (Instance::revision()): construction,
  /// this call, and an InstanceUpdater tracking the assignment keep it in
  /// step. When the instance moved on without it (SetBids, AddConflict,
  /// an updater tracking another assignment) every row is re-derived.
  /// On an assignment built by FromPairs and then changed only by Remove
  /// and its updater, no row is stale and the call is one paper-order
  /// re-sum (the session store's publish relies on it).
  /// O(P + stale rows·δp·T); counts the re-derived rows into
  /// wgrap_assignment_rows_rederived_total (P on a full pass).
  void RecomputeAll();

 private:
  /// The online-update subsystem (core/update.h) performs id-remapping
  /// surgery on groups_/load_ when papers or reviewers are inserted or
  /// removed from the bound instance.
  friend class InstanceUpdater;

  /// AddUnchecked's checks: range, duplicate, COI, in that order.
  Status CheckAddable(int paper, int reviewer) const;
  /// Appends (r, p) to the group, load and size and marks the row
  /// stale; no score is touched.
  void Place(int paper, int reviewer);
  /// Re-derives p's group vector and score; the row is exact after.
  void RecomputePaper(int paper);

  // revision_ and stale_ sit beside groups_, which every update reads, so
  // keeping them costs an update no extra cache line of this object.
  const Instance* instance_;
  /// The instance revision the exact rows were derived for.
  uint64_t revision_ = 0;
  std::vector<std::vector<int>> groups_;
  /// Per paper, 1 when the row may differ from a fresh derivation.
  std::vector<uint8_t> stale_;
  std::vector<int> load_;
  Matrix group_vec_;  // P x T running max
  std::vector<double> paper_score_;
  double total_score_ = 0.0;
  int64_t size_ = 0;
};

}  // namespace wgrap::core

#endif  // WGRAP_CORE_ASSIGNMENT_H_
