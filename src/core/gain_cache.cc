#include "core/gain_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "la/transportation.h"
#include "simd/kernels.h"
#include "sparse/sparse_scoring.h"

namespace wgrap::core {

namespace {

// Parallel-for grain for per-paper row work — matches the stage scoring
// loops in cra_sdga.cc so the chunking (and thus determinism reasoning)
// is the same.
constexpr int64_t kPaperGrain = 8;

}  // namespace

GainCache::GainCache(const Instance* instance)
    : instance_(instance),
      num_reviewers_(instance->num_reviewers()),
      reviewer_index_(
          instance->has_sparse_topics()
              ? sparse::TopicIndex::FromSparse(instance->ReviewerSparseMatrix())
              : sparse::TopicIndex::FromMatrix(instance->ReviewerMatrix())) {}

void GainCache::Initialize(const Assignment& assignment, ThreadPool* pool) {
  const int P = instance_->num_papers();
  const int R = num_reviewers_;
  const int T = instance_->num_topics();
  gains_.assign(static_cast<size_t>(P) * R, 0.0);
  group_snapshot_ = Matrix(P, T);
  // Exactly the entries a stage rebuild would compute, via the identical
  // kernels; conflicts hold the forbidden marker permanently.
  pool->ParallelFor(0, P, kPaperGrain, [&](int64_t p64) {
    const int p = static_cast<int>(p64);
    double* row = &gains_[static_cast<size_t>(p) * R];
    for (int r = 0; r < R; ++r) {
      row[r] = instance_->IsConflict(r, p) ? la::kTransportForbidden
                                           : assignment.MarginalGain(p, r);
    }
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
  // Group the notes by paper: [begin, end) ranges into the sorted,
  // deduplicated note list.
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  struct Touched {
    int paper;
    size_t begin;
    size_t end;
  };
  std::vector<Touched> touched;
  for (size_t i = 0; i < pending_.size();) {
    size_t j = i;
    while (j < pending_.size() && pending_[j].first == pending_[i].first) ++j;
    touched.push_back({pending_[i].first, i, j});
    i = j;
  }

  std::vector<int64_t> paper_patched(touched.size(), 0);
  pool->ParallelForChunks(
      0, static_cast<int64_t>(touched.size()), kPaperGrain,
      [&](int64_t chunk_begin, int64_t chunk_end) {
        // Per-worker scratch, reused across chunks and Refresh calls (the
        // steady-state patch is small, so per-chunk allocation would be a
        // visible fraction of it). `seen` is a reviewer stamp set cleared
        // via the candidate list after every paper — that invariant is
        // what lets it persist — so dedup costs O(collected), not a sort.
        static thread_local std::vector<int> changed_topics;
        static thread_local std::vector<double> changed_floor;
        static thread_local std::vector<int> candidates;
        static thread_local std::vector<uint8_t> seen;
        if (static_cast<int>(seen.size()) < num_reviewers_) {
          seen.assign(static_cast<size_t>(num_reviewers_), 0);
        }
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          const Touched& item = touched[i];
          const int p = item.paper;
          const double* now = assignment.GroupVector(p);
          double* snap = group_snapshot_.Row(p);
          // A changed topic invalidates reviewer r only when
          // r[t] > min(old max, new max): the Definition 8 per-topic term
          // is gated by the strict r[t] > g[t] test, so a reviewer at or
          // below both maxima contributed exactly 0.0 before and after.
          // `changed_floor` records that threshold per changed topic.
          changed_topics.clear();
          changed_floor.clear();
          const auto record_if_changed = [&](int t) {
            if (snap[t] != now[t]) {
              changed_topics.push_back(t);
              changed_floor.push_back(std::min(snap[t], now[t]));
              snap[t] = now[t];
            }
          };
          if (instance_->has_sparse_topics()) {
            // Every change sits inside a noted reviewer's support: an Add
            // raises the max only there, a Remove lowers it only where the
            // victim held the max. Diff just that union (snap is updated
            // as we go, so a topic shared by two noted reviewers cannot
            // be reported twice).
            for (size_t k = item.begin; k < item.end; ++k) {
              const sparse::SparseVector row =
                  instance_->ReviewerSparse(pending_[k].second);
              for (int e = 0; e < row.nnz; ++e) record_if_changed(row.ids[e]);
            }
          } else {
            for (int t = 0; t < T; ++t) record_if_changed(t);
          }
          if (changed_topics.empty()) continue;
          // Union the CSC columns of the changed topics, filtered to
          // reviewers above the per-topic floor — only their gains can
          // have moved.
          candidates.clear();
          for (size_t c = 0; c < changed_topics.size(); ++c) {
            const sparse::SparseVector column =
                reviewer_index_.Column(changed_topics[c]);
            const double floor = changed_floor[c];
            for (int k = 0; k < column.nnz; ++k) {
              if (column.values[k] <= floor) continue;
              const int r = column.ids[k];
              if (!seen[r]) {
                seen[r] = 1;
                candidates.push_back(r);
              }
            }
          }
          // Candidates stay in stamp insertion order (a merge of sorted
          // columns — already near-ascending; a tidy-up sort measurably
          // costs more than it buys). Patch values are order-independent,
          // so determinism is untouched.
          double* row = &gains_[static_cast<size_t>(p) * num_reviewers_];
          for (int r : candidates) {
            seen[r] = 0;  // reset the stamp set for the next paper
            if (instance_->IsConflict(r, p)) continue;
            row[r] = assignment.MarginalGain(p, r);
            ++paper_patched[i];
          }
        }
      });
  pending_.clear();
  for (int64_t count : paper_patched) patched_entries_ += count;
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
  const int T = instance_->num_topics();
  pool->ParallelFor(0, static_cast<int64_t>(stale.size()), /*grain=*/4,
                    [&](int64_t i) {
    const int p = stale[i];
    PaperFolds& folds = papers_[p];
    const std::vector<int>& group = assignment.GroupFor(p);
    const int n = static_cast<int>(group.size());
    folds.members = group;
    folds.fold_values.assign(n, {});
    folds.fold_ids.assign(n, {});
    folds.kept_bids.assign(n, 0.0);
    for (int skip = 0; skip < n; ++skip) {
      if (instance_->has_sparse_topics()) {
        sparse::SparseGroupAccumulator& acc =
            sparse::ThreadLocalGroupAccumulator();
        acc.Reset(T);
        for (int j = 0; j < n; ++j) {
          if (j == skip) continue;
          acc.Fold(instance_->ReviewerSparse(group[j]));
          folds.kept_bids[skip] += instance_->BidBonus(group[j], p);
        }
        const std::vector<int>& ids = acc.SortedTouched();
        folds.fold_ids[skip] = ids;
        folds.fold_values[skip].resize(ids.size());
        for (size_t k = 0; k < ids.size(); ++k) {
          folds.fold_values[skip][k] = acc.ValueAt(ids[k]);
        }
      } else {
        std::vector<double>& fold = folds.fold_values[skip];
        fold.assign(T, 0.0);
        for (int j = 0; j < n; ++j) {
          if (j == skip) continue;
          simd::MaxFold(fold.data(), instance_->ReviewerVector(group[j]), T);
          folds.kept_bids[skip] += instance_->BidBonus(group[j], p);
        }
      }
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
  const int T = instance_->num_topics();
  // Total the bids before adding them to the score: ScoreWithReplacement
  // accumulates all bid bonuses into one term and adds it to the score
  // once, and fp addition is not associative — (score + kept) + add_bid
  // would differ in the low bits.
  const double bids =
      folds.kept_bids[skip] + instance_->BidBonus(add, paper);
  if (instance_->has_sparse_topics()) {
    sparse::SparseGroupAccumulator& acc =
        sparse::ThreadLocalGroupAccumulator();
    acc.Reset(T);
    acc.Fold(sparse::SparseVector{
        folds.fold_ids[skip].data(), folds.fold_values[skip].data(),
        static_cast<int>(folds.fold_ids[skip].size()), T});
    acc.Fold(instance_->ReviewerSparse(add));
    return acc.Score(instance_->scoring(), instance_->PaperSparse(paper),
                     instance_->PaperMass(paper)) +
           bids;
  }
  static thread_local std::vector<double> gv;
  gv.assign(folds.fold_values[skip].begin(), folds.fold_values[skip].end());
  simd::MaxFold(gv.data(), instance_->ReviewerVector(add), T);
  return ScoreVectors(instance_->scoring(), gv.data(),
                      instance_->PaperVector(paper), T,
                      instance_->PaperMass(paper)) +
         bids;
}

}  // namespace wgrap::core
