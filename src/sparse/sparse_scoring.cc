#include "sparse/sparse_scoring.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"

namespace wgrap::sparse {

namespace {

// These merges stay FUSED and scalar on purpose. A split alternative —
// materialize the (r, p) pairs over the union, then reduce them with one
// vector ScoreSum — is byte-identical but measured 2–3× SLOWER than the
// loops below at every density (bench/BASELINES.md records the numbers):
// the compiler already turns these ternaries into conditional moves, so
// the "hard-to-predict merge branch" never exists, and the split pass
// adds a 2n-double store/reload the fused loop never pays.
//
// Sorted union merge of two supports, summing contrib(r_t, p_t) in
// ascending topic order. The contribution functor is a template parameter
// so the per-function branch stays outside the merge loop, mirroring the
// branch-free dense loops of core::ScoreVectors.
template <typename Contrib>
double MergeScore(const SparseVector& a, const SparseVector& b,
                  Contrib contrib) {
  constexpr int kEnd = std::numeric_limits<int>::max();
  double total = 0.0;
  int i = 0, j = 0;
  while (i < a.nnz || j < b.nnz) {
    const int ta = i < a.nnz ? a.ids[i] : kEnd;
    const int tb = j < b.nnz ? b.ids[j] : kEnd;
    if (ta < tb) {
      total += contrib(a.values[i], 0.0);
      ++i;
    } else if (tb < ta) {
      total += contrib(0.0, b.values[j]);
      ++j;
    } else {
      total += contrib(a.values[i], b.values[j]);
      ++i;
      ++j;
    }
  }
  return total;
}

// Same merge over a dense left operand restricted to the sorted support
// `ids` (the group accumulator path): left values are read from `acc`.
template <typename Contrib>
double MergeScoreDenseLeft(const std::vector<double>& acc,
                           const std::vector<int>& ids,
                           const SparseVector& paper, Contrib contrib) {
  constexpr int kEnd = std::numeric_limits<int>::max();
  double total = 0.0;
  size_t i = 0;
  int j = 0;
  while (i < ids.size() || j < paper.nnz) {
    const int ta = i < ids.size() ? ids[i] : kEnd;
    const int tb = j < paper.nnz ? paper.ids[j] : kEnd;
    if (ta < tb) {
      total += contrib(acc[ta], 0.0);
      ++i;
    } else if (tb < ta) {
      total += contrib(0.0, paper.values[j]);
      ++j;
    } else {
      total += contrib(acc[ta], paper.values[j]);
      ++i;
      ++j;
    }
  }
  return total;
}

// Dispatches f once, instantiating the merge with the matching Table 5
// contribution. `merge` is a callable taking the contribution functor.
// Each lambda calls core::TopicContribution — the single source of truth
// for the contribution formulas — with a compile-time-constant f, so the
// inner switch folds away and the merge loop stays branch-free like the
// dense loops of core::ScoreVectors. Distinct lambda types keep one fully
// inlined merge instantiation per scoring function.
template <typename Merge>
double DispatchScore(core::ScoringFunction f, Merge merge) {
  using core::ScoringFunction;
  using core::TopicContribution;
  switch (f) {
    case ScoringFunction::kWeightedCoverage:
      return merge([](double r, double p) {
        return TopicContribution(ScoringFunction::kWeightedCoverage, r, p);
      });
    case ScoringFunction::kReviewerCoverage:
      return merge([](double r, double p) {
        return TopicContribution(ScoringFunction::kReviewerCoverage, r, p);
      });
    case ScoringFunction::kPaperCoverage:
      return merge([](double r, double p) {
        return TopicContribution(ScoringFunction::kPaperCoverage, r, p);
      });
    case ScoringFunction::kDotProduct:
      return merge([](double r, double p) {
        return TopicContribution(ScoringFunction::kDotProduct, r, p);
      });
  }
  return 0.0;
}

}  // namespace

double ScoreSparse(core::ScoringFunction f, const SparseVector& expertise,
                   const SparseVector& paper, double paper_mass) {
  WGRAP_CHECK(paper_mass > 0.0);
  const double total = DispatchScore(f, [&](auto contrib) {
    return MergeScore(expertise, paper, contrib);
  });
  return total / paper_mass;
}

double MarginalGainSparse(core::ScoringFunction f, const double* group,
                          const SparseVector& reviewer, const double* paper,
                          double paper_mass) {
  WGRAP_CHECK(paper_mass > 0.0);
  double gain = 0.0;
  for (int k = 0; k < reviewer.nnz; ++k) {
    const int t = reviewer.ids[k];
    const double r = reviewer.values[k];
    if (r <= group[t]) continue;  // max unchanged at this topic
    gain += core::TopicContribution(f, r, paper[t]) -
            core::TopicContribution(f, group[t], paper[t]);
  }
  return gain / paper_mass;
}

void SparseGroupAccumulator::Reset(int num_topics) {
  if (static_cast<int>(acc_.size()) < num_topics) {
    acc_.assign(num_topics, 0.0);
  } else {
    for (int t : touched_) acc_[t] = 0.0;
  }
  touched_.clear();
  sorted_ = true;
}

void SparseGroupAccumulator::Fold(const SparseVector& v) {
  for (int k = 0; k < v.nnz; ++k) {
    const int t = v.ids[k];
    const double value = v.values[k];
    if (acc_[t] == 0.0) {  // CSR values are > 0, so 0 means untouched
      touched_.push_back(t);
      acc_[t] = value;
      sorted_ = false;
    } else if (value > acc_[t]) {
      acc_[t] = value;
    }
  }
}

double SparseGroupAccumulator::Score(core::ScoringFunction f,
                                     const SparseVector& paper,
                                     double paper_mass) {
  WGRAP_CHECK(paper_mass > 0.0);
  if (!sorted_) {
    std::sort(touched_.begin(), touched_.end());
    sorted_ = true;
  }
  const double total = DispatchScore(f, [&](auto contrib) {
    return MergeScoreDenseLeft(acc_, touched_, paper, contrib);
  });
  return total / paper_mass;
}

const std::vector<int>& SparseGroupAccumulator::SortedTouched() {
  if (!sorted_) {
    std::sort(touched_.begin(), touched_.end());
    sorted_ = true;
  }
  return touched_;
}

SparseGroupAccumulator& ThreadLocalGroupAccumulator() {
  static thread_local SparseGroupAccumulator accumulator;
  return accumulator;
}

}  // namespace wgrap::sparse
