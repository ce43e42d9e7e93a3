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
// A gain depends only on the stage's prefix vector, which stays fixed from
// the descent into the stage until the backtrack out of it. So each
// descent computes the stage's whole gain row, Δ(r | prefix) for all R
// reviewers, in one topic-major pass (Instance::GainRow, the same bits as
// the per-pair Instance::MarginalGain on dense and CSR views alike), and
// a refill reads its cursor's gain from the row. A node thus costs O(T)
// for the argmax and the Eq. 3 bound plus its refills, each an amortized
// cursor step; a descent adds the row pass. The Eq. 3 bound stays dense:
// its ub row is assembled from one cursor per topic, so it has no useful
// sparsity to exploit.
//
// The row also prices a second bound. All four scorings are monotone
// submodular (core/scoring.h), so every group the node can still reach,
// prefix S plus m = δp − s unblocked reviewers X, scores
//   c(S ∪ X) ≤ c(S) + Σ_{x∈X} Δ(x | S) ≤ c(S) + (the m largest Δ(r | S)
//                                               over unblocked r),
// the Nemhauser–Wolsey–Fisher completion bound. A node prunes on the
// smaller of the two: the completion bound is tried only when the heap is
// full and Eq. 3 did not prune. A subtree it cuts holds no group scoring
// above the heap's minimum, and Report admits only strict improvements
// while that minimum never falls, so none of its groups would ever have
// entered the heap: the answers (groups and score bits) are Algorithm 1's.
// Each stage keeps its top m unblocked (reviewer, gain) entries, taken
// lazily when the bound is first needed. Within the stage the blocked set
// only grows (by its own branches), so the entries stay the top m until
// one of them is blocked; only then is the row rescanned in O(R).
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
        options_(options),
        completion_bound_(options.use_bounding &&
                          options.use_completion_bound),
        T_(instance.num_topics()),
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
    const bool need_rows = options_.use_gain_branching || completion_bound_;
    rows_.assign(need_rows ? static_cast<size_t>(k_) * R_ : 0, 0.0);
    top_reviewer_.assign(static_cast<size_t>(k_) * k_, -1);
    top_gain_.assign(k_, 0.0);
    top_bound_.assign(k_, kNoGain);
    top_fresh_.assign(k_, 0);

    const double* pv = instance_.PaperVector(paper_);
    const double mass = instance_.PaperMass(paper_);
    SetSlack(mass);

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
        if (need_rows) {
          instance_.GainRow(prefix, paper_,
                            &rows_[static_cast<size_t>(s) * R_]);
          ++gain_rows_;
        }
        top_fresh_[s] = 0;
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
      if (!prune && completion_bound_ &&
          static_cast<int>(results_.size()) == k_best_) {
        prune = CompletionPrunes(s);
        completion_prunes_ += prune;
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
      // branch reviewer.
      std::copy(prefix, prefix + T_, stage_vec_.Row(s + 1));
      instance_.FoldReviewer(branch, stage_vec_.Row(s + 1));
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
  // bound takes it, and the reviewer's gain off the stage's row (kNoGain
  // on a nil cursor, or when gain branching is off).
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
    cursor_gain_[i] = options_.use_gain_branching
                          ? rows_[static_cast<size_t>(stage) * R_ + r]
                          : kNoGain;
  }

  // The float slack of the completion bound, per query. Write u = 2^-53
  // for the unit roundoff and B for the exact bound c(S) + Σ_i Δ(x_i | S)
  // of a node with m = δp − s ≤ δp members to go. Every value involved
  // is a sum of non-negative terms, and a sum of n such terms, in any
  // order, is within (n − 1)u of its exact value (to first order). So:
  //   - c(S) and any completion score c(S ∪ X) sum at most T terms and
  //     divide by the mass; under cD each term is a rounded product. Each
  //     is within (T + 1)u of its exact value, and both are at most B.
  //   - A gain Δ(r | S) sums at most T differences f(r_t) − f(g_t), each
  //     rounded once and each ≥ 0 (rounding is monotone), then divides:
  //     within (T + 1)u·Δ. Under cD the two products round before the
  //     subtraction, adding at most 3u·f(max(r_t, g_t)) per topic, which
  //     sums to 3u·(c(S) + Δ(r | S)) ≤ 3u·B.
  //   - The bound adds m + 1 values: m·u·B more.
  // The computed bound b is therefore at least B − (T + 1 + 4m)u·B, and a
  // computed completion score at most B + (T + 1)u·B: at most
  // b + (2T + 4δp + 2)u·B. The slack 4(T + δp + 2)u·b = 2(T + δp + 2)·ε·b
  // (ε = 2u, DBL_EPSILON) covers that with (2T + 6)u·b to spare for the
  // second-order terms, the gap between B and b, and the rounding of the
  // slack's own sum. Relative bounds miss only underflow: a cD product
  // below the normal range rounds with an absolute error up to half the
  // smallest subnormal (sums and differences of subnormals are exact).
  // There are at most 2T per value over m + 2 values, divided by the
  // mass, plus each division's own half: (δp + 2)(T / mass + 1) subnormals
  // bound them all.
  void SetSlack(double mass) {
    constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
    constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
    relative_slack_ = 2.0 * (T_ + k_ + 2) * kEpsilon;
    absolute_slack_ = (k_ + 2) * (T_ / mass + 1.0) * kSubnormal;
  }

  // Whether the completion bound of the node at `stage` proves that no
  // group below it beats the full heap's minimum. Rescans the stage's row
  // only when its top entries are stale: not yet taken since the descent,
  // or one of them blocked since.
  bool CompletionPrunes(int stage) {
    const int m = k_ - stage;
    const int* top = &top_reviewer_[static_cast<size_t>(stage) * k_];
    bool fresh = top_fresh_[stage] != 0;
    for (int i = 0; fresh && i < m; ++i) {
      fresh = top[i] < 0 || blocked_[top[i]] == 0;
    }
    if (!fresh) RescanTop(stage);
    const double bound = top_bound_[stage];
    if (bound == kNoGain) return true;  // fewer than m reviewers left
    return bound + relative_slack_ * bound + absolute_slack_ <= Threshold();
  }

  // Takes the stage's m = δp − stage largest gains over the unblocked
  // reviewers, gain descending (ties to the lower id), and the bound
  // c(prefix) + their sum, or kNoGain when fewer than m are unblocked.
  void RescanTop(int stage) {
    const int m = k_ - stage;
    int* ids = &top_reviewer_[static_cast<size_t>(stage) * k_];
    double* gains = top_gain_.data();
    const double* row = &rows_[static_cast<size_t>(stage) * R_];
    int count = 0;
    for (int r = 0; r < R_; ++r) {
      if (blocked_[r] > 0) continue;
      const double g = row[r];
      int i;
      if (count < m) {
        i = count++;
      } else if (g > gains[m - 1]) {
        i = m - 1;
      } else {
        continue;
      }
      for (; i > 0 && gains[i - 1] < g; --i) {
        gains[i] = gains[i - 1];
        ids[i] = ids[i - 1];
      }
      gains[i] = g;
      ids[i] = r;
    }
    std::fill(ids + count, ids + m, -1);
    top_fresh_[stage] = 1;
    if (count < m) {
      top_bound_[stage] = kNoGain;
      return;
    }
    double bound =
        ScoreVectors(instance_.scoring(), stage_vec_.Row(stage),
                     instance_.PaperVector(paper_), T_,
                     instance_.PaperMass(paper_));
    for (int i = 0; i < m; ++i) bound += gains[i];
    top_bound_[stage] = bound;
  }

  // One add per query, from the locals (never per node).
  void RecordWork() const {
    static obs::Counter* const nodes =
        obs::Registry::Global().GetCounter("wgrap_jra_bba_nodes_total");
    static obs::Counter* const gain_rows =
        obs::Registry::Global().GetCounter("wgrap_jra_bba_gain_rows_total");
    static obs::Counter* const cursor_moves =
        obs::Registry::Global().GetCounter("wgrap_jra_bba_cursor_moves_total");
    static obs::Counter* const completion_prunes =
        obs::Registry::Global().GetCounter(
            "wgrap_jra_bba_completion_prunes_total");
    if (nodes) nodes->Add(nodes_);
    if (gain_rows) gain_rows->Add(gain_rows_);
    if (cursor_moves) cursor_moves->Add(cursor_moves_);
    if (completion_prunes) completion_prunes->Add(completion_prunes_);
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
  const bool completion_bound_;  // prune on min(Eq. 3, completion bound)
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
  // Per stage, from its last descent: Δ(r | prefix) for every reviewer.
  std::vector<double> rows_;             // k x R
  // Per stage, its top m = δp − stage unblocked reviewers by gain (-1
  // past the unblocked count) and its completion bound; fresh = taken
  // since the descent.
  std::vector<int> top_reviewer_;        // k x k
  std::vector<double> top_bound_;        // k
  std::vector<char> top_fresh_;          // k
  std::vector<double> top_gain_;         // k, RescanTop's work buffer
  double relative_slack_ = 0.0;
  double absolute_slack_ = 0.0;
  std::vector<int> chosen_;
  std::priority_queue<JraResult, std::vector<JraResult>, ByScoreDesc> results_;
  int64_t nodes_ = 0;
  int64_t gain_rows_ = 0;
  int64_t cursor_moves_ = 0;
  int64_t completion_prunes_ = 0;
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
