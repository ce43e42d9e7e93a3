// Sparse kernels for the four scoring functions of Table 5, bit-identical
// to the dense loops in core/scoring.cc.
//
// Why bit-identical is achievable at all: every dense scoring loop is a
// left-to-right sum of per-topic contributions f(r[t], p[t]) over
// t = 0..T-1, and for all four choices of f in Table 5 the contribution is
// exactly 0.0 whenever both operands are 0.0 (and for the topics a sparse
// walk skips, at least the operand that *would* decide the branch is 0 —
// see the per-kernel notes). Since adding +0.0 to any finite double is the
// identity, skipping those topics and adding the surviving contributions
// in the same ascending-topic order reproduces the dense result bit for
// bit. That equivalence is the contract the solvers rely on: an Instance
// carrying sparse views must produce the same scores and assignments as
// the dense path, at any thread count (asserted in tests/sparse_test.cc
// and tests/determinism_test.cc).
//
// Consumers: core::Instance only. Its scoring primitives (PairScore,
// MarginalGain, FoldReviewer and GroupFold, core/instance.h) pick these
// kernels or the dense ones; every solver, the Assignment, the gain
// caches and the metrics call those primitives and never this header.
//
// Dependency note: this header uses core/scoring.h only for the
// ScoringFunction enum and the inline TopicContribution — header-only, so
// wgrap_sparse does not link wgrap_core and the library DAG stays acyclic
// (core links sparse, not the other way around).
#ifndef WGRAP_SPARSE_SPARSE_SCORING_H_
#define WGRAP_SPARSE_SPARSE_SCORING_H_

#include <vector>

#include "core/scoring.h"
#include "sparse/sparse_matrix.h"

namespace wgrap::sparse {

/// c(r→, p→) of Definition 1 / Eq. 1 over two sparse views: a sorted merge
/// of the two supports, accumulating TopicContribution in ascending topic
/// order. Topics outside the union have r[t] = p[t] = 0 and contribute
/// exactly 0 for all four scoring functions, so the result equals
/// core::ScoreVectors on the expanded vectors bit for bit.
/// O(nnz(r) + nnz(p)) instead of O(T).
double ScoreSparse(core::ScoringFunction f, const SparseVector& expertise,
                   const SparseVector& paper, double paper_mass);

/// Marginal gain of Definition 8 against a dense group accumulator (the
/// element-wise max of Definition 2, as maintained by core::Assignment).
/// The dense loop only touches topics with reviewer[t] > group[t], which —
/// because group maxima are nonnegative — implies reviewer[t] > 0, i.e.
/// the reviewer's support. Walking that support in ascending order makes
/// this bit-identical to core::MarginalGainVectors at O(nnz(r)) per call.
/// `group` and `paper` are dense length-`reviewer.dim` arrays.
double MarginalGainSparse(core::ScoringFunction f, const double* group,
                          const SparseVector& reviewer, const double* paper,
                          double paper_mass);

/// dense[t] = max(dense[t], v[t]) over v's support — the Definition 2
/// running-max update behind core::Instance::FoldReviewer. Only v's
/// support can raise the max, so the untouched entries of `dense` are
/// left alone.
inline void MaxInto(const SparseVector& v, double* dense) {
  for (int k = 0; k < v.nnz; ++k) {
    if (v.values[k] > dense[v.ids[k]]) dense[v.ids[k]] = v.values[k];
  }
}

/// Dense-accumulator variant for group vectors (Definition 2): folds member
/// rows into a dense max-accumulator while tracking the touched topic ids,
/// then scores against a paper by merging the *sorted* group support with
/// the paper support — again adding contributions in ascending topic order,
/// so Score() is bit-identical to core::ScoreVectors on the accumulated
/// dense group vector. Reusable: Reset() clears only the touched entries,
/// so a warm accumulator costs O(Σ nnz) per group, not O(T).
///
/// Not thread-safe; use one accumulator per thread — core::GroupFold
/// borrows the ThreadLocalGroupAccumulator() instance below.
class SparseGroupAccumulator {
 public:
  /// Prepares for a new group over `num_topics` topics.
  void Reset(int num_topics);

  /// acc[t] = max(acc[t], v[t]) over v's support.
  void Fold(const SparseVector& v);

  /// c(g→, p→) of the accumulated group against `paper`;
  /// `paper_mass` = Σ_t paper[t] > 0.
  double Score(core::ScoringFunction f, const SparseVector& paper,
               double paper_mass);

  /// Value at topic t (0 when untouched).
  double ValueAt(int t) const { return acc_[t]; }

  /// The touched topic ids in ascending order (sorting lazily, like
  /// Score). The reference is invalidated by Reset/Fold — callers that
  /// persist the support (core::GroupFold::Save) must copy.
  const std::vector<int>& SortedTouched();

 private:
  std::vector<double> acc_;  // dense, zeros outside touched_
  std::vector<int> touched_;  // unique touched ids; sorted lazily by Score
  bool sorted_ = true;
};

/// The per-thread warm accumulator behind core::GroupFold. Callers must
/// Reset() before use and must not hold it across calls into other
/// scoring code — it is scratch, not state.
SparseGroupAccumulator& ThreadLocalGroupAccumulator();

}  // namespace wgrap::sparse

#endif  // WGRAP_SPARSE_SPARSE_SCORING_H_
