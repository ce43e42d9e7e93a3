#include "core/gain_cache.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "la/hungarian.h"
#include "obs/metrics.h"

namespace wgrap::core {

namespace {

// Parallel-for grain for per-paper row work.
constexpr int64_t kPaperGrain = 8;

}  // namespace

GainCache::GainCache(const Instance* instance)
    : instance_(instance), num_reviewers_(instance->num_reviewers()) {}

void GainCache::ScoreRow(const Assignment& assignment, int paper) {
  // The bit-exact doubles go to a per-thread scratch row; only their JV
  // costs are stored. Conflicts hold the no-edge marker permanently.
  thread_local std::vector<double> gains;
  gains.resize(num_reviewers_);
  assignment.MarginalGainRow(paper, gains.data());
  int64_t* row = &costs_[static_cast<size_t>(paper) * num_reviewers_];
  for (int r = 0; r < num_reviewers_; ++r) {
    row[r] = instance_->IsConflict(r, paper) ? la::kJvNoEdge
                                             : la::JvCost(gains[r]);
  }
}

void GainCache::Initialize(const Assignment& assignment, ThreadPool* pool) {
  const int P = instance_->num_papers();
  const int T = instance_->num_topics();
  costs_.assign(static_cast<size_t>(P) * num_reviewers_, 0);
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
  const int R = num_reviewers_;
  const int rows = static_cast<int>(papers.size());
  if (stage_profit->rows() != rows || stage_profit->cols() != R) {
    *stage_profit = Matrix(rows, R);
  }
  pool->ParallelFor(0, rows, kPaperGrain, [&](int64_t i) {
    const int p = papers[i];
    double* out = stage_profit->Row(static_cast<int>(i));
    const int64_t* row = CostRow(p);
    for (int r = 0; r < R; ++r) {
      const int64_t c = row[r];
      out[r] = capacity[r] <= 0 || c == la::kJvNoEdge
                   ? la::kTransportForbidden
               : c == la::kJvBadProfit
                   ? std::numeric_limits<double>::infinity()
                   : static_cast<double>(la::kJvCostOrigin - c) /
                         la::kTransportProfitScale;
    }
    for (int member : assignment.GroupFor(p)) {
      out[member] = la::kTransportForbidden;
    }
  });
}

int64_t GainCache::ScaledGain(int paper, int reviewer) const {
  const int64_t c = CostRow(paper)[reviewer];
  if (c == la::kJvNoEdge) return kConflictSentinel;
  if (c == la::kJvBadProfit) return kOutOfRangeSentinel;
  return la::kJvCostOrigin - c;
}

void GainCache::ReportCounters() const {
  static obs::Counter* const patched = obs::Registry::Global().GetCounter(
      "wgrap_gain_cache_patched_cells_total");
  if (patched) patched->Add(patched_entries_);
  static obs::Counter* const builds = obs::Registry::Global().GetCounter(
      "wgrap_gain_cache_full_builds_total");
  if (builds) builds->Add(full_builds_);
}

}  // namespace wgrap::core
