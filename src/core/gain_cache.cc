#include "core/gain_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "la/transportation.h"

namespace wgrap::core {

namespace {

// Parallel-for grain for per-paper row work — matches the stage scoring
// loops in cra_sdga.cc so the chunking (and thus determinism reasoning)
// is the same.
constexpr int64_t kPaperGrain = 8;

}  // namespace

GainCache::GainCache(const Instance* instance)
    : instance_(instance), num_reviewers_(instance->num_reviewers()) {}

void GainCache::ScoreRow(const Assignment& assignment, int paper) {
  double* row = &gains_[static_cast<size_t>(paper) * num_reviewers_];
  assignment.MarginalGainRow(paper, row);
  // Conflicts hold the forbidden marker permanently.
  for (int r = 0; r < num_reviewers_; ++r) {
    if (instance_->IsConflict(r, paper)) row[r] = la::kTransportForbidden;
  }
}

void GainCache::Initialize(const Assignment& assignment, ThreadPool* pool) {
  const int P = instance_->num_papers();
  const int T = instance_->num_topics();
  gains_.assign(static_cast<size_t>(P) * num_reviewers_, 0.0);
  group_snapshot_ = Matrix(P, T);
  pool->ParallelFor(0, P, kPaperGrain, [&](int64_t p64) {
    const int p = static_cast<int>(p64);
    ScoreRow(assignment, p);
    const double* gv = assignment.GroupVector(p);
    std::copy(gv, gv + T, group_snapshot_.Row(p));
  });
  initialized_ = true;
  ++full_builds_;
}

void GainCache::Refresh(const Assignment& assignment, ThreadPool* pool) {
  if (!initialized_) {
    // Whatever was noted is subsumed by the full build.
    pending_.clear();
    Initialize(assignment, pool);
    return;
  }
  if (pending_.empty()) return;
  const int T = instance_->num_topics();
  // Each paper once: two workers must never re-score the same row.
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  // A row is re-scored only when the paper's group vector moved: every
  // gain of the row reads the group through that vector alone, so an
  // unchanged vector (e.g. a remove-then-re-add) keeps every bit.
  std::vector<uint8_t> rescored(pending_.size(), 0);
  pool->ParallelFor(0, static_cast<int64_t>(pending_.size()), kPaperGrain,
                    [&](int64_t i) {
                      const int p = pending_[i];
                      const double* now = assignment.GroupVector(p);
                      double* snap = group_snapshot_.Row(p);
                      if (std::equal(now, now + T, snap)) return;
                      std::copy(now, now + T, snap);
                      ScoreRow(assignment, p);
                      rescored[i] = 1;
                    });
  pending_.clear();
  for (uint8_t row : rescored) patched_entries_ += row * num_reviewers_;
}

void GainCache::AssembleStageProfit(const std::vector<int>& papers,
                                    const std::vector<int>& capacity,
                                    const Assignment& assignment,
                                    ThreadPool* pool,
                                    Matrix* stage_profit) const {
  WGRAP_CHECK_MSG(initialized_ && pending_.empty(),
                  "AssembleStageProfit requires a Refresh with no notes "
                  "pending");
  const int R = num_reviewers_;
  const int rows = static_cast<int>(papers.size());
  if (stage_profit->rows() != rows || stage_profit->cols() != R) {
    *stage_profit = Matrix(rows, R);
  }
  // Same mask as the rebuild loop in cra_sdga.cc, restated as a bulk row
  // copy plus sparse overwrites: conflicts already hold the forbidden
  // marker in storage, the (typically few) exhausted reviewers are listed
  // once, and the δp already-assigned reviewers are masked per row — no
  // per-entry branch or Contains lookup on the O(rows × R) path.
  std::vector<int> exhausted;
  for (int r = 0; r < R; ++r) {
    if (capacity[r] <= 0) exhausted.push_back(r);
  }
  pool->ParallelFor(0, rows, kPaperGrain, [&](int64_t i) {
    const int p = papers[i];
    double* out = stage_profit->Row(static_cast<int>(i));
    const double* row = &gains_[static_cast<size_t>(p) * R];
    std::copy(row, row + R, out);
    for (int r : exhausted) out[r] = la::kTransportForbidden;
    for (int member : assignment.GroupFor(p)) {
      out[member] = la::kTransportForbidden;
    }
  });
}

int64_t GainCache::ScaledGain(int paper, int reviewer) const {
  const double gain = Gain(paper, reviewer);
  if (gain <= la::kTransportForbidden / 2) return kConflictSentinel;
  return la::ScaleTransportProfit(gain);
}

ReplacementFoldCache::ReplacementFoldCache(const Instance* instance)
    : instance_(instance), papers_(instance->num_papers()) {}

void ReplacementFoldCache::Prepare(const Assignment& assignment,
                                   const std::vector<int>& papers,
                                   ThreadPool* pool) {
  std::vector<int> stale;
  for (int p : papers) {
    if (!papers_[p].fresh) stale.push_back(p);
  }
  if (stale.empty()) return;
  pool->ParallelFor(0, static_cast<int64_t>(stale.size()), /*grain=*/4,
                    [&](int64_t i) {
    const int p = stale[i];
    PaperFolds& folds = papers_[p];
    const std::vector<int>& group = assignment.GroupFor(p);
    const int n = static_cast<int>(group.size());
    folds.members = group;
    folds.kept.assign(n, {});
    folds.kept_bids.assign(n, 0.0);
    for (int skip = 0; skip < n; ++skip) {
      GroupFold fold(*instance_);
      for (int j = 0; j < n; ++j) {
        if (j == skip) continue;
        fold.Add(group[j]);
        folds.kept_bids[skip] += instance_->BidBonus(group[j], p);
      }
      folds.kept[skip] = fold.Save();
    }
    folds.fresh = true;
  });
}

double ReplacementFoldCache::Score(int paper, int drop, int add) const {
  const PaperFolds& folds = papers_[paper];
  WGRAP_CHECK_MSG(folds.fresh, "Score requires a Prepare'd paper");
  const auto it =
      std::find(folds.members.begin(), folds.members.end(), drop);
  WGRAP_CHECK_MSG(it != folds.members.end(), "drop is not a group member");
  const int skip = static_cast<int>(it - folds.members.begin());
  // Total the bids before adding them to the score: ScoreWithReplacement
  // accumulates all bid bonuses into one term and adds it to the score
  // once, and fp addition is not associative — (score + kept) + add_bid
  // would differ in the low bits.
  const double bids =
      folds.kept_bids[skip] + instance_->BidBonus(add, paper);
  // Folding the saved vector into an empty group reproduces it exactly
  // (the running max of non-negative weights from +0.0), so this is the
  // same fold ScoreWithReplacement makes.
  GroupFold fold(*instance_);
  fold.Add(folds.kept[skip]);
  fold.Add(add);
  return fold.Score(paper) + bids;
}

}  // namespace wgrap::core
