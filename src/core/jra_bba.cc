// Branch-and-Bound Algorithm (BBA) for JRA — Algorithm 1 of the paper.
//
// The search tree has δp stages; stage s chooses the s-th group member.
// T sorted lists SL_t order reviewers by their expertise on topic t; each
// stage keeps T cursors into the lists, always pointing at the best not-yet
// -visited ("feasible", Definition 7) reviewer per topic. Branching picks
// the cursor reviewer with maximum marginal gain (Definition 8); bounding
// prunes a stage when the cursor-derived upper bound (Eq. 3) cannot beat
// the best-so-far group. Cursor sets are cloned downwards (Π^{s+1} ← Π^s)
// and visited marks are reset on backtracking, so every group is examined
// at most once.
//
// The sorted lists depend on the reviewers alone, so they are instance
// state (Instance::TopicRanking, kept current by InstanceUpdater), not
// per-query work: a query only blocks its COI reviewers, which the cursors
// then skip like visited ones. The instance keeps each list's nonzero
// part; a cursor that runs past it walks the zero tail (every reviewer
// with value 0 on the topic, in id order) straight off the dense matrix.
//
// Each stage keeps three T-wide rows as of its last node: the cursor
// reviewer per topic, the Eq. 3 ub entry max(prefix[t], that reviewer's
// value on t), and that reviewer's Definition 8 gain. A stage entered by
// descent refills all T. A revisited stage (after a Report there, or a
// backtrack from the stage below) has the same prefix and a blocked set
// that differs only by its last branch, since deeper marks are cleared on
// the way back up, so only the cursors that pointed at that branch move
// and only those are refilled. The argmax then runs over the cached gains
// in topic order (strict >, so the first maximum in topic order wins) and
// the bound scores the whole ub row, so nodes, groups and score bits do
// not depend on which cursors were refilled.
//
// A gain is O(T) dense or O(nnz(r)) on CSR views (Instance::MarginalGain,
// bit-identical either way). It depends only on the stage's prefix vector,
// which stays fixed from the descent into the stage until the backtrack
// out of it, so gains are also memoized per (stage, reviewer) under a
// stage epoch: a refill re-evaluates a reviewer only after the prefix
// changed. A node thus costs O(T) for the argmax and the bound plus the
// refills, each an amortized cursor step and at most one gain. The Eq. 3
// bound stays dense: its ub row is assembled from one cursor per topic,
// so it has no useful sparsity to exploit.
#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/jra.h"
#include "obs/metrics.h"

namespace wgrap::core {

namespace {

// Shared search engine for best-1 and top-k.
class BbaSearch {
 public:
  // The gain a nil cursor holds: below the argmax's -1.0 start, so a nil
  // cursor is never taken.
  static constexpr double kNoGain = -std::numeric_limits<double>::infinity();

  BbaSearch(const Instance& instance, int paper, int k_best,
            const BbaOptions& options)
      : instance_(instance), paper_(paper), k_best_(k_best),
        options_(options), T_(instance.num_topics()),
        R_(instance.num_reviewers()), k_(instance.group_size()),
        deadline_(options.time_limit_seconds) {}

  Status Run() {
    // COI reviewers are blocked for the whole query: their count is never
    // decremented, so no cursor ever stops on them.
    blocked_.assign(R_, 0);
    int eligible = R_;
    for (int r = 0; r < R_; ++r) {
      if (instance_.IsConflict(r, paper_)) {
        blocked_[r] = 1;
        --eligible;
      }
    }
    if (eligible < k_) {
      return Status::Infeasible("fewer eligible reviewers than δp");
    }

    lists_.resize(T_);
    for (int t = 0; t < T_; ++t) lists_[t] = instance_.TopicRanking(t);
    marked_.assign(k_, {});
    cursors_.assign(static_cast<size_t>(k_) * T_, 0);
    cursor_reviewer_.assign(static_cast<size_t>(k_) * T_, -1);
    cursor_ub_.assign(static_cast<size_t>(k_) * T_, 0.0);
    cursor_gain_.assign(static_cast<size_t>(k_) * T_, kNoGain);
    stage_vec_ = Matrix(k_ + 1, T_, 0.0);
    memo_gain_.assign(static_cast<size_t>(k_) * R_, 0.0);
    memo_epoch_.assign(static_cast<size_t>(k_) * R_, 0);
    stage_epoch_.assign(k_, 0);
    stage_epoch_[0] = ++epochs_;  // stage 0's prefix is the empty group

    const double* pv = instance_.PaperVector(paper_);
    const double mass = instance_.PaperMass(paper_);

    int s = 0;  // 0-based stage: the group currently has s members
    bool descended = true;  // stage s was just entered from s - 1 (or start)
    while (s >= 0) {
      const Status polled = CheckNotCancelled(options_.cancel, "BBA");
      if (!polled.ok()) {
        RecordWork();
        return polled;
      }
      if (deadline_.Expired() ||
          (options_.max_nodes > 0 && nodes_ >= options_.max_nodes)) {
        aborted_ = true;
        break;
      }
      ++nodes_;
      // Bring the stage's cursor rows up to date. Entered by descent, every
      // cursor is new. Revisited (after a Report here or a backtrack from
      // s + 1), the only change since the stage's last node is that its
      // last branch is now blocked — deeper marks were cleared and the
      // prefix is the same — so only the cursors on that reviewer move.
      const double* prefix = stage_vec_.Row(s);
      const size_t row = static_cast<size_t>(s) * T_;
      int* reviewer = &cursor_reviewer_[row];
      if (descended) {
        for (int t = 0; t < T_; ++t) Refill(s, t, prefix);
        descended = false;
      } else {
        const int moved = marked_[s].back();
        for (int t = 0; t < T_; ++t) {
          if (reviewer[t] == moved) Refill(s, t, prefix);
        }
      }
      // Branch on the first maximum gain in topic order (a nil cursor
      // holds kNoGain, which never wins), or on the first non-nil cursor
      // in the ablation.
      int branch = -1;
      if (options_.use_gain_branching) {
        const double* gain = &cursor_gain_[row];
        double branch_gain = -1.0;
        for (int t = 0; t < T_; ++t) {
          if (gain[t] > branch_gain) {
            branch_gain = gain[t];
            branch = reviewer[t];
          }
        }
      } else {
        for (int t = 0; t < T_ && branch < 0; ++t) branch = reviewer[t];
      }
      bool prune = branch < 0;
      if (!prune && options_.use_bounding) {
        const double bound = ScoreVectors(instance_.scoring(),
                                          &cursor_ub_[row], pv, T_, mass);
        prune = bound <= Threshold();
      }
      if (prune) {
        // Backtrack: reset this stage's visited marks (Alg. 1 line 9-10).
        for (int r : marked_[s]) --blocked_[r];
        marked_[s].clear();
        --s;
        continue;
      }
      // Branch (Alg. 1 line 12): take `branch` as the stage-s member.
      blocked_[branch]++;
      marked_[s].push_back(branch);
      // The next stage's prefix maxima: this stage's, raised by the
      // branch reviewer. A new prefix voids that stage's memoized gains.
      std::copy(prefix, prefix + T_, stage_vec_.Row(s + 1));
      instance_.FoldReviewer(branch, stage_vec_.Row(s + 1));
      if (s + 1 < k_) stage_epoch_[s + 1] = ++epochs_;
      chosen_.resize(s);
      chosen_.push_back(branch);
      if (s + 1 == k_) {
        // Complete group: report and stay at this stage (line 13-15); the
        // cursors skip `branch` from now on because it is marked visited.
        const double score = ScoreVectors(instance_.scoring(),
                                          stage_vec_.Row(k_), pv, T_, mass);
        Report(score);
      } else {
        // Descend: clone cursors (line 19) and move to the next stage.
        std::copy_n(&cursors_[row], T_, &cursors_[row + T_]);
        ++s;
        descended = true;
      }
    }
    RecordWork();
    if (results_.empty()) {
      return aborted_ ? Status::ResourceExhausted("BBA aborted before a group")
                      : Status::Infeasible("no feasible group");
    }
    return Status::OK();
  }

  /// Heap contents sorted best-first.
  std::vector<JraResult> TakeResults() {
    std::vector<JraResult> out;
    while (!results_.empty()) {
      out.push_back(results_.top());
      results_.pop();
    }
    std::reverse(out.begin(), out.end());
    for (auto& r : out) {
      r.nodes_explored = nodes_;
      r.proven_optimal = !aborted_;
    }
    return out;
  }

 private:
  struct ByScoreDesc {
    bool operator()(const JraResult& a, const JraResult& b) const {
      return a.score > b.score;  // min-heap on score
    }
  };

  // Advances cursor (stage, t) past blocked reviewers lazily and returns
  // the reviewer it points at, or -1 when exhausted (nil). Positions below
  // the ranking's size index its nonzero entries; position size + r is
  // reviewer r in SL_t's implicit zero tail (value 0 on t, id order).
  int CursorAdvance(int stage, int t) {
    int& pos = cursors_[static_cast<size_t>(stage) * T_ + t];
    const Instance::RankedList ranked = lists_[t];
    const int size = ranked.size;
    while (pos < size && blocked_[ranked.ids[pos]] > 0) ++pos;
    if (pos < size) return ranked.ids[pos];
    int r = pos - size;
    while (r < R_ &&
           (blocked_[r] > 0 || instance_.ReviewerVector(r)[t] != 0.0)) {
      ++r;
    }
    pos = size + r;
    return r < R_ ? r : -1;
  }

  // Re-advances cursor (stage, t) and re-derives its row entries: the
  // reviewer, ub = max(prefix[t], that reviewer's value on t) as the Eq. 3
  // bound takes it, and the reviewer's memoized stage gain (kNoGain on a
  // nil cursor, or when gain branching is off).
  void Refill(int stage, int t, const double* prefix) {
    ++cursor_moves_;
    const size_t i = static_cast<size_t>(stage) * T_ + t;
    const int r = CursorAdvance(stage, t);
    cursor_reviewer_[i] = r;
    if (r < 0) {
      cursor_ub_[i] = prefix[t];
      cursor_gain_[i] = kNoGain;
      return;
    }
    const double v = instance_.ReviewerVector(r)[t];
    cursor_ub_[i] = v > prefix[t] ? v : prefix[t];
    cursor_gain_[i] =
        options_.use_gain_branching ? StageGain(stage, prefix, r) : kNoGain;
  }

  // gain(stage prefix, r, p) of Definition 8, evaluated once per stage
  // epoch: the same double the kernel returns, so branching is unchanged.
  double StageGain(int stage, const double* prefix, int r) {
    const size_t slot = static_cast<size_t>(stage) * R_ + r;
    if (memo_epoch_[slot] != stage_epoch_[stage]) {
      memo_gain_[slot] = instance_.MarginalGain(prefix, r, paper_);
      memo_epoch_[slot] = stage_epoch_[stage];
      ++gain_evals_;
    }
    return memo_gain_[slot];
  }

  // One add per query, from the locals (never per node).
  void RecordWork() const {
    static obs::Counter* const nodes =
        obs::Registry::Global().GetCounter("wgrap_jra_bba_nodes_total");
    static obs::Counter* const gain_evals =
        obs::Registry::Global().GetCounter("wgrap_jra_bba_gain_evals_total");
    static obs::Counter* const cursor_moves =
        obs::Registry::Global().GetCounter("wgrap_jra_bba_cursor_moves_total");
    if (nodes) nodes->Add(nodes_);
    if (gain_evals) gain_evals->Add(gain_evals_);
    if (cursor_moves) cursor_moves->Add(cursor_moves_);
  }

  double Threshold() const {
    if (static_cast<int>(results_.size()) < k_best_) return -1.0;
    return results_.top().score;
  }

  void Report(double score) {
    if (static_cast<int>(results_.size()) == k_best_ &&
        score <= results_.top().score) {
      return;
    }
    JraResult result;
    result.score = score;
    result.group = chosen_;
    std::sort(result.group.begin(), result.group.end());
    results_.push(std::move(result));
    if (static_cast<int>(results_.size()) > k_best_) results_.pop();
  }

  const Instance& instance_;
  const int paper_;
  const int k_best_;
  const BbaOptions& options_;
  const int T_;
  const int R_;
  const int k_;
  Deadline deadline_;

  std::vector<Instance::RankedList> lists_;  // SL_t, instance-owned
  std::vector<int> blocked_;             // visited (or COI) count per reviewer
  std::vector<std::vector<int>> marked_; // per-stage visited lists
  std::vector<int> cursors_;             // k x T positions into SL_t
  // Per stage, per topic, as of the stage's last node: the cursor
  // reviewer (-1 = nil), the Eq. 3 ub entry and the reviewer's gain.
  std::vector<int> cursor_reviewer_;     // k x T
  std::vector<double> cursor_ub_;        // k x T
  std::vector<double> cursor_gain_;      // k x T
  Matrix stage_vec_;                     // (k+1) x T prefix group maxima
  std::vector<double> memo_gain_;        // k x R memoized stage gains
  std::vector<uint64_t> memo_epoch_;     // k x R epoch each gain belongs to
  std::vector<uint64_t> stage_epoch_;    // current epoch of each prefix
  uint64_t epochs_ = 0;
  std::vector<int> chosen_;
  std::priority_queue<JraResult, std::vector<JraResult>, ByScoreDesc> results_;
  int64_t nodes_ = 0;
  int64_t gain_evals_ = 0;
  int64_t cursor_moves_ = 0;
  bool aborted_ = false;
};

}  // namespace

Result<JraResult> SolveJraBba(const Instance& instance, int paper,
                              const BbaOptions& options) {
  if (paper < 0 || paper >= instance.num_papers()) {
    return Status::OutOfRange("paper id out of range");
  }
  Stopwatch watch;
  BbaSearch search(instance, paper, /*k_best=*/1, options);
  WGRAP_RETURN_IF_ERROR(search.Run());
  JraResult result = search.TakeResults()[0];
  result.seconds = watch.ElapsedSeconds();
  return result;
}

Result<std::vector<JraResult>> SolveJraBbaTopK(const Instance& instance,
                                               int paper, int k,
                                               const BbaOptions& options) {
  if (paper < 0 || paper >= instance.num_papers()) {
    return Status::OutOfRange("paper id out of range");
  }
  if (k <= 0) return Status::InvalidArgument("k must be > 0");
  Stopwatch watch;
  BbaSearch search(instance, paper, k, options);
  WGRAP_RETURN_IF_ERROR(search.Run());
  auto results = search.TakeResults();
  const double seconds = watch.ElapsedSeconds();
  for (auto& r : results) r.seconds = seconds;
  return results;
}

}  // namespace wgrap::core
