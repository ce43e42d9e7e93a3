// A WGRAP problem instance (Definition 3): reviewer and paper topic
// matrices, the group-size constraint δp, the reviewer workload δr, the
// scoring function, and conflicts of interest. Instances are immutable
// after construction apart from COI registration and bids, both setup-time
// calls — and the typed online-update path of core/update.h
// (InstanceUpdater), which patches an instance in place to the exact state
// FromDataset would build from the mutated inputs, topic kernel included.
//
// The c(AI) memo is the one thing a const Instance fills. The Sec. 5.2
// ideal assignment AI is a per-paper greedy, so its per-paper picks are a
// function of the instance alone; core::IdealScore (core/metrics.h)
// derives the rows it lacks on first use and keeps them here. It is
// thread-safe (its own mutex), shared by every copy at the same state
// (copies share one memo object, as they share the topic views), and
// detached on mutation: each mutator (InstanceUpdater ops, AddConflict,
// SetBids) first clones a memo another copy still holds, then marks only
// the papers it moved stale, or starts an empty memo. FromDataset starts
// it empty and derives nothing.
//
// The representation contract: the Instance alone decides how topic
// vectors are read. The dense matrices are always present; the CSC
// reviewer index (ReviewerTopicIndex) and the per-topic reviewer ranking
// (TopicRanking, Algorithm 1's sorted lists) are always present and always
// current; the CSR row views exist only when the instance runs the CSR
// kernels. The instance picks those from its data: the CSR kernels when
// fewer than a quarter of the reviewer index's topic columns are heavy
// (sparse::TopicIndex::kHeavyColumnDivisor), the dense ones otherwise
// (bench/BASELINES.md "Topic kernel density sweep" measures both sides).
// FromDataset applies the rule, and so does every reviewer-side
// InstanceUpdater op; paper-side ops cannot change it. Scoring code
// outside the Instance never branches on that choice: it calls PairScore,
// MarginalGain, FoldReviewer and GroupFold, which dispatch once to the
// dense kernels (core/scoring.h, simd/kernels.h) or to their bit-identical
// CSR twins (src/sparse/). Every result is the same double either way.
#ifndef WGRAP_CORE_INSTANCE_H_
#define WGRAP_CORE_INSTANCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/scoring.h"
#include "data/dataset.h"
#include "sparse/sparse_matrix.h"
#include "sparse/sparse_scoring.h"
#include "sparse/topic_index.h"

namespace wgrap::core {

struct InstanceParams {
  /// δp — reviewers per paper.
  int group_size = 3;
  /// δr — max papers per reviewer. 0 selects the paper's default, the
  /// minimum feasible workload ⌈P·δp/R⌉ (Sec. 5.2); negative values are
  /// rejected by FromDataset.
  int reviewer_workload = 0;
  ScoringFunction scoring = ScoringFunction::kWeightedCoverage;
  /// Ignored: the instance picks its topic kernel from the data. A
  /// vestige the benchmark harness still sets; ROADMAP item 4 deletes it
  /// after item 1 mends the harness.
  bool sparse_topics = false;
};

/// Immutable WGRAP instance over dense topic matrices.
class Instance {
 public:
  /// Validates the dataset and copies vectors into dense matrices. Fails if
  /// the dataset has no paper or no reviewer, or if R·δr < P·δp (not
  /// enough review capacity, Sec. 2.2 assumption).
  static Result<Instance> FromDataset(const data::RapDataset& dataset,
                                      const InstanceParams& params);

  int num_reviewers() const { return reviewers_.rows(); }
  int num_papers() const { return papers_.rows(); }
  int num_topics() const { return reviewers_.cols(); }
  int group_size() const { return group_size_; }
  int reviewer_workload() const { return reviewer_workload_; }
  ScoringFunction scoring() const { return scoring_; }

  const double* ReviewerVector(int r) const { return reviewers_.Row(r); }
  const double* PaperVector(int p) const { return papers_.Row(p); }
  /// The CSC topic → reviewers index that GainRow (the gain row pass)
  /// walks. Instance state: FromDataset builds it from the dense reviewer
  /// matrix and InstanceUpdater rebuilds it on every reviewer-side op, so
  /// it always matches ReviewerVector.
  const sparse::TopicIndex& ReviewerTopicIndex() const {
    return views_->reviewer_index;
  }
  /// The sorted list SL_t of Algorithm 1, stored sparsely: the reviewers
  /// with a nonzero value on topic t, value descending, ties to the lower
  /// id. SL_t goes on with every other reviewer (value 0) in id order,
  /// which is left implicit. It holds the CSC index's column t reordered,
  /// and like the index it is instance state: FromDataset builds it and
  /// InstanceUpdater rebuilds it on every reviewer-side op.
  struct RankedList {
    const int* ids;
    int size;
  };
  RankedList TopicRanking(int t) const {
    const sparse::TopicIndex& index = views_->reviewer_index;
    return {views_->ranking.data() + index.ColumnBegin(t),
            index.ColumnNnz(t)};
  }
  /// Σ_t p→[t], the normalization denominator of Eq. 1.
  double PaperMass(int p) const { return paper_mass_[p]; }

  /// Kernel overrides for tests and benches that compare the twins; no
  /// product code calls them. BuildSparseTopics builds the CSR views and
  /// switches the scoring primitives below to the sparse kernels
  /// (src/sparse/), bit-identical to the dense loops but O(nnz) instead of
  /// O(T) per score; DropSparseTopics returns to the dense kernels. Both
  /// are idempotent setup calls: make them before handing the instance
  /// to concurrent solvers. The next reviewer-side InstanceUpdater op
  /// re-picks the kernel from the data. The process-wide override is the
  /// WGRAP_SPARSE_TOPICS environment variable, read at every pick:
  /// "0"/"off"/"false"/"no" forces the dense kernels, any other non-empty
  /// value the CSR ones (CI reruns suites under both), unset or empty lets
  /// the data decide.
  void BuildSparseTopics();
  void DropSparseTopics();
  /// True when the instance runs the CSR kernels.
  bool has_sparse_topics() const { return csr_; }

  /// CSR row views; only valid when has_sparse_topics().
  sparse::SparseVector ReviewerSparse(int r) const {
    return views_->reviewers.Row(r);
  }
  sparse::SparseVector PaperSparse(int p) const {
    return views_->papers.Row(p);
  }

  /// c(r→, p→) for a single reviewer (Definition 1).
  double PairScore(int r, int p) const {
    if (has_sparse_topics()) {
      return sparse::ScoreSparse(scoring_, ReviewerSparse(r), PaperSparse(p),
                                 paper_mass_[p]);
    }
    return ScoreVectors(scoring_, ReviewerVector(r), PaperVector(p),
                        num_topics(), paper_mass_[p]);
  }

  /// gain(g→, r, p) of Definition 8 against the dense group max-vector
  /// `group` (length T), without the bid bonus. O(T) dense, O(nnz(r))
  /// with CSR views (the dense loop only touches topics where r exceeds
  /// the group max, a subset of r's support).
  double MarginalGain(const double* group, int r, int p) const {
    if (has_sparse_topics()) {
      return sparse::MarginalGainSparse(scoring_, group, ReviewerSparse(r),
                                        PaperVector(p), paper_mass_[p]);
    }
    return MarginalGainVectors(scoring_, group, ReviewerVector(r),
                               PaperVector(p), num_topics(), paper_mass_[p]);
  }

  /// Writes MarginalGain(group, r, paper) into out[r] for every reviewer
  /// r (COI pairs included), bit for bit, in one topic-major pass: for
  /// each topic that TopicCanGain admits, in ascending order, it adds each
  /// reviewer's term into its slot, then divides by PaperMass. A light
  /// topic walks its column of ReviewerTopicIndex; a heavy one
  /// (TopicIndex::DenseColumn) runs simd::AddColumnGainTerms over all R
  /// reviewers, adding +0.0 where the walk would skip. Per reviewer these
  /// are the per-pair kernels' operations in the same order, plus or minus
  /// terms that are exactly +0.0. O(T + Σ_{admitted light t} degree(t) +
  /// R·#{admitted heavy t} + R) against MarginalGain's R calls; the heavy
  /// terms are 4-wide vector steps over contiguous memory. The one gain
  /// row kernel: Assignment::MarginalGainRow (the GainCache refresh, the
  /// ideal assignment) and BBA's per-stage rows call it.
  void GainRow(const double* group, int paper, double* out) const;

  /// group[t] = max(group[t], r[t]) for every topic — the Definition 2
  /// running max. With CSR views only r's support is visited.
  void FoldReviewer(int r, double* group) const {
    if (has_sparse_topics()) {
      sparse::MaxInto(ReviewerSparse(r), group);
    } else {
      const double* v = ReviewerVector(r);
      for (int t = 0; t < num_topics(); ++t) {
        group[t] = std::max(group[t], v[t]);
      }
    }
  }

  /// Registers a conflict of interest; (r, p) then never appears in any
  /// solver's output (Sec. 4.3 "Supporting COIs"). Marks the paper's c(AI)
  /// memo row stale.
  void AddConflict(int reviewer, int paper);

  /// Installs reviewer bids (the paper's Sec. 6 future-work extension).
  /// `bids` is P x R with entries in [0, 1] (willingness to review);
  /// `weight` trades off coverage vs preference. The objective becomes
  ///   Σ_p [ c(g→, p→) + weight · Σ_{r∈A[p]} bid(p, r) / δp ],
  /// whose bid term is modular, so it stays submodular and every CRA
  /// guarantee (Theorems 1-2) carries over. CRA solvers honour bids via
  /// Assignment scoring; JRA solvers optimize pure coverage. Starts an
  /// empty c(AI) memo.
  Status SetBids(Matrix bids, double weight);

  bool has_bids() const { return bid_weight_ > 0.0; }
  double bid_weight() const { return bid_weight_; }

  /// Per-slot utility bonus of assigning r to p (0 without bids).
  double BidBonus(int reviewer, int paper) const {
    return has_bids() ? bid_weight_ * bids_(paper, reviewer) / group_size_
                      : 0.0;
  }

  /// c(r→, p→) plus the bid bonus — the pair utility used by the
  /// pair-centric baselines (SM, ILP-ARAP) and the SRA probability model.
  double PairUtility(int reviewer, int paper) const {
    return PairScore(reviewer, paper) + BidBonus(reviewer, paper);
  }
  bool IsConflict(int reviewer, int paper) const {
    // Packed bitset (64 pairs per word, 8× smaller than the former
    // byte-per-pair map); word/bit extraction only, no branches — this
    // sits on every solver's profit-masking hot path.
    const size_t bit =
        static_cast<size_t>(paper) * num_reviewers() + reviewer;
    return ((conflicts_[bit >> 6] >> (bit & 63)) & uint64_t{1}) != 0;
  }

  /// The paper's default minimum workload ⌈P·δp/R⌉ for this instance size.
  static int MinimalWorkload(int num_papers, int num_reviewers,
                             int group_size);

  /// The workload rule of one instance shape, applied by FromDataset and
  /// by every InstanceUpdater op that changes P or R: δr is
  /// params.reviewer_workload when > 0, else MinimalWorkload. Returns δr,
  /// or kInvalidArgument when δp > R ("group_size exceeds reviewer
  /// count") or R·δr < P·δp ("not enough review capacity").
  static Result<int> Workload(int num_papers, int num_reviewers,
                              const InstanceParams& params);

 private:
  /// The online-update subsystem (core/update.h) patches the private state
  /// directly; its contract is that the patched instance is bitwise equal
  /// to a FromDataset rebuild from the mutated ground truth
  /// (tests/update_equivalence_test.cc).
  friend class InstanceUpdater;
  friend std::optional<double> IdealScore(const Instance& instance);

  Instance() = default;

  /// The c(AI) memo: per paper, the gains of AI's δp picks and the row's
  /// state. Rows and gains are empty until IdealScore sizes them (every
  /// row stale), then P and P×δp long; gains are valid on kFeasible rows.
  struct IdealMemo {
    enum class Row : uint8_t { kStale, kFeasible, kInfeasible };
    std::mutex mutex;  // guards the rows and gains
    std::vector<Row> rows;
    std::vector<double> gains;
  };

  /// The memo's rows for `paper` go stale (AddConflict, set_coi, set_bid,
  /// set_paper_topics). A memo another copy shares is cloned first.
  void MarkIdealStale(int paper);
  /// An empty memo in place of the current one, in O(1): every other
  /// mutation, which may move any paper's picks or shift paper ids.
  void ResetIdealMemo() { ideal_ = std::make_shared<IdealMemo>(); }

  /// Derived read-only views of the topic matrices: the CSC reviewer
  /// index and the topic rankings always, the CSR rows of both matrices
  /// when csr_ (empty else).
  struct TopicViews {
    sparse::TopicIndex reviewer_index;
    /// The index's entries by (value desc, id asc) within each column.
    std::vector<int> ranking;
    sparse::SparseTopicMatrix reviewers;
    sparse::SparseTopicMatrix papers;
  };

  /// Replaces views_, re-deriving from the dense matrices the reviewer
  /// side (index, rankings, and CSR rows under the CSR kernels) if
  /// `reviewers_moved`, the paper CSR rows if `papers_moved`, and any part
  /// the current views lack; the rest is carried over. The dispatch
  /// becomes `csr` when given; otherwise the kernel the data picks when
  /// the reviewer side moved (the rule in the header comment), else it
  /// stays.
  void ResetViews(std::optional<bool> csr, bool reviewers_moved,
                  bool papers_moved);
  /// After InstanceUpdater moved one side of the dense matrices:
  /// re-derives the views that side feeds, and on the reviewer side
  /// re-picks the kernel as FromDataset would. False when there is none
  /// (the paper side of a dense-kernel instance).
  bool RefreshTopicViews(bool reviewer_side) {
    if (!reviewer_side && !has_sparse_topics()) return false;
    ResetViews(std::nullopt, reviewer_side, !reviewer_side);
    return true;
  }

  Matrix reviewers_;  // R x T
  Matrix papers_;     // P x T
  /// Shared so Instance copies stay cheap to make and the views
  /// immutable; a mutation swaps in a new bundle. Never null once built.
  std::shared_ptr<const TopicViews> views_;
  /// The one dispatch flag: CSR kernels when set, dense ones otherwise.
  bool csr_ = false;
  Matrix bids_;       // P x R when has_bids()
  double bid_weight_ = 0.0;
  std::vector<double> paper_mass_;
  /// P×R conflict bitset, row-major by paper, 64 pairs per word.
  std::vector<uint64_t> conflicts_;
  int group_size_ = 0;
  int reviewer_workload_ = 0;
  ScoringFunction scoring_ = ScoringFunction::kWeightedCoverage;
  /// Shared by copies at the same state; never written while shared
  /// except by IdealScore, under the memo's mutex.
  std::shared_ptr<IdealMemo> ideal_ = std::make_shared<IdealMemo>();
};

/// A Definition 2 group vector folded from scratch (ScoreGroup, an
/// Assignment's replacement scores): the dense T-vector,
/// or the CSR accumulator when the instance carries CSR views — the
/// caller never knows which. Score() is bit-identical to
/// core::ScoreVectors on the dense group vector either way. A GroupFold
/// borrows this thread's scratch: keep at most one alive per thread, and
/// only within a call.
class GroupFold {
 public:
  /// Starts the empty group (all-zero vector).
  explicit GroupFold(const Instance& instance);

  /// Folds reviewer r's topic vector in.
  void Add(int reviewer);
  /// c(g→, p→) of the folded group against `paper`.
  double Score(int paper) const;

 private:
  const Instance& instance_;
  std::vector<double>* dense_ = nullptr;               // dense instances
  sparse::SparseGroupAccumulator* accumulator_ = nullptr;  // CSR views
};

}  // namespace wgrap::core

#endif  // WGRAP_CORE_INSTANCE_H_
