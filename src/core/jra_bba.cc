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
// The per-node marginal-gain pass (the O(T²)-per-node hot loop: one
// Definition 8 gain per cursor reviewer) goes through Instance::
// MarginalGain, which is O(T·nnz) per node when the instance carries CSR
// topic views, with bit-identical scores. The Eq. 3 cursor bound itself
// stays dense: its ub vector is assembled from one cursor per topic, so
// it has no useful sparsity to exploit.
#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/jra.h"

namespace wgrap::core {

namespace {

// Shared search engine for best-1 and top-k.
class BbaSearch {
 public:
  BbaSearch(const Instance& instance, int paper, int k_best,
            const BbaOptions& options)
      : instance_(instance), paper_(paper), k_best_(k_best),
        options_(options), T_(instance.num_topics()),
        k_(instance.group_size()),
        deadline_(options.time_limit_seconds) {}

  Status Run() {
    // Eligible candidates (COI filtered out up front).
    for (int r = 0; r < instance_.num_reviewers(); ++r) {
      if (!instance_.IsConflict(r, paper_)) candidates_.push_back(r);
    }
    n_ = static_cast<int>(candidates_.size());
    if (n_ < k_) return Status::Infeasible("fewer eligible reviewers than δp");

    BuildSortedLists();
    blocked_.assign(n_, 0);
    marked_.assign(k_, {});
    cursors_ = Matrix(k_, T_, 0.0);
    stage_vec_ = Matrix(k_ + 1, T_, 0.0);

    const double* pv = instance_.PaperVector(paper_);
    const double mass = instance_.PaperMass(paper_);
    std::vector<double> ub(T_);

    int s = 0;  // 0-based stage: the group currently has s members
    while (s >= 0) {
      WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options_.cancel, "BBA"));
      if (deadline_.Expired() ||
          (options_.max_nodes > 0 && nodes_ >= options_.max_nodes)) {
        aborted_ = true;
        break;
      }
      ++nodes_;
      // Locate the branching reviewer among the stage's cursor reviewers
      // and compute the cursor upper bound in the same pass.
      int branch = -1;
      double branch_gain = -1.0;
      for (int t = 0; t < T_; ++t) ub[t] = stage_vec_(s, t);
      for (int t = 0; t < T_; ++t) {
        const int cand = CursorCandidate(s, t);
        if (cand < 0) continue;
        const double v = sl_val_[t][CursorPos(s, t)];
        if (v > ub[t]) ub[t] = v;
        if (!options_.use_gain_branching) {
          if (branch < 0) {  // ablation: first non-nil cursor wins
            branch = cand;
            branch_gain = 0.0;
          }
          continue;
        }
        const double gain = instance_.MarginalGain(
            stage_vec_.Row(s), candidates_[cand], paper_);
        if (gain > branch_gain) {
          branch_gain = gain;
          branch = cand;
        }
      }
      bool prune = branch < 0;
      if (!prune && options_.use_bounding) {
        const double bound =
            ScoreVectors(instance_.scoring(), ub.data(), pv, T_, mass);
        prune = bound <= Threshold();
      }
      if (prune) {
        // Backtrack: reset this stage's visited marks (Alg. 1 line 9-10).
        for (int cand : marked_[s]) --blocked_[cand];
        marked_[s].clear();
        --s;
        continue;
      }
      // Branch (Alg. 1 line 12): take `branch` as the stage-s member.
      blocked_[branch]++;
      marked_[s].push_back(branch);
      // The next stage's prefix maxima: this stage's, raised by the
      // branch reviewer.
      std::copy(stage_vec_.Row(s), stage_vec_.Row(s) + T_,
                stage_vec_.Row(s + 1));
      instance_.FoldReviewer(candidates_[branch], stage_vec_.Row(s + 1));
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
        for (int t = 0; t < T_; ++t) cursors_(s + 1, t) = cursors_(s, t);
        ++s;
      }
    }
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

  int64_t nodes() const { return nodes_; }

 private:
  struct ByScoreDesc {
    bool operator()(const JraResult& a, const JraResult& b) const {
      return a.score > b.score;  // min-heap on score
    }
  };

  void BuildSortedLists() {
    sl_cand_.assign(T_, std::vector<int>(n_));
    sl_val_.assign(T_, std::vector<double>(n_));
    std::vector<int> order(n_);
    for (int t = 0; t < T_; ++t) {
      for (int i = 0; i < n_; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const double va = instance_.ReviewerVector(candidates_[a])[t];
        const double vb = instance_.ReviewerVector(candidates_[b])[t];
        if (va != vb) return va > vb;
        return a < b;
      });
      for (int i = 0; i < n_; ++i) {
        sl_cand_[t][i] = order[i];
        sl_val_[t][i] = instance_.ReviewerVector(candidates_[order[i]])[t];
      }
    }
  }

  int CursorPos(int stage, int t) const {
    return static_cast<int>(cursors_(stage, t));
  }

  // Advances cursor (stage, t) past visited reviewers lazily and returns the
  // candidate it points at, or -1 when exhausted (nil).
  int CursorCandidate(int stage, int t) {
    int pos = CursorPos(stage, t);
    while (pos < n_ && blocked_[sl_cand_[t][pos]] > 0) ++pos;
    cursors_(stage, t) = pos;
    return pos < n_ ? sl_cand_[t][pos] : -1;
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
    for (int cand : chosen_) result.group.push_back(candidates_[cand]);
    std::sort(result.group.begin(), result.group.end());
    results_.push(std::move(result));
    if (static_cast<int>(results_.size()) > k_best_) results_.pop();
  }

  const Instance& instance_;
  const int paper_;
  const int k_best_;
  const BbaOptions& options_;
  const int T_;
  const int k_;
  Deadline deadline_;

  std::vector<int> candidates_;
  int n_ = 0;
  std::vector<std::vector<int>> sl_cand_;   // T x n candidate ids
  std::vector<std::vector<double>> sl_val_; // T x n sorted values
  std::vector<int> blocked_;                // visited count per candidate
  std::vector<std::vector<int>> marked_;    // per-stage visited lists
  Matrix cursors_;                          // k x T positions
  Matrix stage_vec_;                        // (k+1) x T prefix group maxima
  std::vector<int> chosen_;
  std::priority_queue<JraResult, std::vector<JraResult>, ByScoreDesc> results_;
  int64_t nodes_ = 0;
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
