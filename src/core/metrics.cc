#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace wgrap::core {

namespace {

// The greedy of AddIdealPicks on a bare T-wide group vector (all zero on
// entry) and an R-wide row buffer: writes up to δp picks and their gains
// and returns how many it made, fewer than δp when the eligible reviewers
// ran out. The row is Assignment::MarginalGainRow's, bit for bit: the
// instance's gain row against the group vector, plus the bid bonus per
// reviewer when bids are set. Folding a pick into the group is what
// AddUnchecked does to an assignment's row.
int PickIdeal(const Instance& instance, int paper, double* group,
              double* row, int* picks, double* gains) {
  const int R = instance.num_reviewers();
  const int dp = instance.group_size();
  for (int pick = 0; pick < dp; ++pick) {
    instance.GainRow(group, paper, row);
    if (instance.has_bids()) {
      for (int r = 0; r < R; ++r) row[r] += instance.BidBonus(r, paper);
    }
    int best = -1;
    double best_gain = -1.0;
    for (int r = 0; r < R; ++r) {
      if (row[r] > best_gain && !instance.IsConflict(r, paper) &&
          std::find(picks, picks + pick, r) == picks + pick) {
        best_gain = row[r];
        best = r;
      }
    }
    if (best < 0) return pick;
    instance.FoldReviewer(best, group);
    picks[pick] = best;
    gains[pick] = best_gain;
  }
  return dp;
}

}  // namespace

Result<Assignment> BuildIdealAssignment(const Instance& instance) {
  Assignment ideal(&instance);
  std::vector<double> gains(instance.group_size());
  for (int p = 0; p < instance.num_papers(); ++p) {
    WGRAP_RETURN_IF_ERROR(AddIdealPicks(p, &ideal, gains.data()));
  }
  return ideal;
}

Status AddIdealPicks(int paper, Assignment* ideal, double* gains) {
  const Instance& instance = ideal->instance();
  const int dp = instance.group_size();
  std::vector<double> group(instance.num_topics(), 0.0);
  std::vector<double> row(instance.num_reviewers());
  std::vector<int> picks(dp);
  const int picked =
      PickIdeal(instance, paper, group.data(), row.data(), picks.data(), gains);
  // AddUnchecked re-derives each pick's gain (MarginalGain, bit-identical
  // to the row) against the same group vector and adds it to the total, so
  // the recorded gains fold to the total's exact bits.
  for (int k = 0; k < picked; ++k) {
    WGRAP_RETURN_IF_ERROR(ideal->AddUnchecked(paper, picks[k]));
  }
  if (picked < dp) return Status::Infeasible("not enough eligible reviewers");
  return Status::OK();
}

std::optional<double> IdealScore(const Instance& instance) {
  static obs::Counter* const refreshed = obs::Registry::Global().GetCounter(
      "wgrap_ideal_papers_refreshed_total");
  using Row = Instance::IdealMemo::Row;
  Instance::IdealMemo& memo = *instance.ideal_;
  const int P = instance.num_papers();
  const int dp = instance.group_size();
  std::lock_guard<std::mutex> lock(memo.mutex);
  if (memo.rows.empty()) {
    memo.rows.assign(P, Row::kStale);
    memo.picks.assign(static_cast<size_t>(P) * dp, -1);
    memo.gains.assign(static_cast<size_t>(P) * dp, 0.0);
  }
  // One group vector and one row buffer, sized on the first stale row:
  // each paper's picks read only its own group, so the rows can be
  // re-derived in any subset.
  std::vector<double> group;
  std::vector<double> row;
  int64_t stale = 0;
  for (int p = 0; p < P; ++p) {
    if (memo.rows[p] != Row::kStale) continue;
    if (row.empty()) row.resize(instance.num_reviewers());
    group.assign(instance.num_topics(), 0.0);
    const size_t at = static_cast<size_t>(p) * dp;
    const int picked = PickIdeal(instance, p, group.data(), row.data(),
                                 &memo.picks[at], &memo.gains[at]);
    memo.rows[p] = picked == dp ? Row::kFeasible : Row::kInfeasible;
    ++stale;
  }
  if (refreshed != nullptr) refreshed->Add(stale);
  double total = 0.0;
  for (int p = 0; p < P; ++p) {
    if (memo.rows[p] == Row::kInfeasible) return std::nullopt;
    for (int k = 0; k < dp; ++k) {
      total += memo.gains[static_cast<size_t>(p) * dp + k];
    }
  }
  return total;
}

double OptimalityRatio(const Assignment& assignment, const Assignment& ideal) {
  return OptimalityRatio(assignment, ideal.TotalScore());
}

double OptimalityRatio(const Assignment& assignment, double ideal_score) {
  WGRAP_CHECK(ideal_score > 0.0);
  return assignment.TotalScore() / ideal_score;
}

Superiority SuperiorityRatio(const Assignment& x, const Assignment& y) {
  const int P = x.instance().num_papers();
  WGRAP_CHECK(P == y.instance().num_papers());
  constexpr double kEps = 1e-12;
  Superiority out;
  int better_or_equal = 0, ties = 0;
  for (int p = 0; p < P; ++p) {
    const double sx = x.PaperScore(p);
    const double sy = y.PaperScore(p);
    if (sx >= sy - kEps) ++better_or_equal;
    if (std::abs(sx - sy) <= kEps) ++ties;
  }
  out.better_or_equal = static_cast<double>(better_or_equal) / P;
  out.tie = static_cast<double>(ties) / P;
  return out;
}

double LowestCoverage(const Assignment& assignment) {
  double lowest = 1e300;
  for (int p = 0; p < assignment.instance().num_papers(); ++p) {
    lowest = std::min(lowest, assignment.PaperScore(p));
  }
  return lowest;
}

double SdgaRatioIntegral(int group_size) {
  WGRAP_CHECK(group_size >= 1);
  return 1.0 - std::pow(1.0 - 1.0 / group_size, group_size);
}

double SdgaRatioGeneral(int group_size) {
  WGRAP_CHECK(group_size >= 1);
  return 1.0 - std::pow(1.0 - 1.0 / group_size, group_size - 1);
}

}  // namespace wgrap::core
