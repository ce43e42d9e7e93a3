#include "core/assignment.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace wgrap::core {

Assignment::Assignment(const Instance* instance)
    : instance_(instance),
      revision_(instance->revision()),
      groups_(instance->num_papers()),
      stale_(instance->num_papers(), 0),
      load_(instance->num_reviewers(), 0),
      group_vec_(instance->num_papers(), instance->num_topics(), 0.0),
      paper_score_(instance->num_papers(), 0.0) {}

bool Assignment::Contains(int paper, int reviewer) const {
  const auto& group = groups_[paper];
  return std::find(group.begin(), group.end(), reviewer) != group.end();
}

std::vector<std::pair<int, int>> Assignment::Pairs() const {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(size_));
  for (int p = 0; p < instance_->num_papers(); ++p) {
    for (int r : groups_[p]) pairs.emplace_back(p, r);
  }
  return pairs;
}

double Assignment::MarginalGain(int paper, int reviewer) const {
  return instance_->MarginalGain(group_vec_.Row(paper), reviewer, paper) +
         instance_->BidBonus(reviewer, paper);
}

void Assignment::MarginalGainRow(int paper, double* out) const {
  instance_->GainRow(group_vec_.Row(paper), paper, out);
  if (!instance_->has_bids()) return;
  for (int r = 0; r < instance_->num_reviewers(); ++r) {
    out[r] += instance_->BidBonus(r, paper);
  }
}

Status Assignment::CheckAddable(int paper, int reviewer) const {
  if (paper < 0 || paper >= instance_->num_papers() || reviewer < 0 ||
      reviewer >= instance_->num_reviewers()) {
    return Status::OutOfRange("paper or reviewer id out of range");
  }
  if (Contains(paper, reviewer)) {
    return Status::FailedPrecondition("pair already assigned");
  }
  if (instance_->IsConflict(reviewer, paper)) {
    return Status::FailedPrecondition("conflict of interest");
  }
  return Status::OK();
}

void Assignment::Place(int paper, int reviewer) {
  stale_[paper] = 1;
  groups_[paper].push_back(reviewer);
  ++load_[reviewer];
  ++size_;
}

Status Assignment::AddUnchecked(int paper, int reviewer) {
  WGRAP_RETURN_IF_ERROR(CheckAddable(paper, reviewer));
  const double gain = MarginalGain(paper, reviewer);
  Place(paper, reviewer);
  instance_->FoldReviewer(reviewer, group_vec_.Row(paper));
  paper_score_[paper] += gain;
  total_score_ += gain;
  return Status::OK();
}

Result<Assignment> Assignment::FromPairs(
    const Instance* instance, const std::vector<std::pair<int, int>>& pairs) {
  Assignment assignment(instance);
  // Size every group once: growing them a push at a time would cost more
  // allocations than the rest of the build.
  std::vector<int> group_sizes(instance->num_papers(), 0);
  for (const auto& [paper, reviewer] : pairs) {
    if (paper >= 0 && paper < instance->num_papers()) ++group_sizes[paper];
  }
  for (int p = 0; p < instance->num_papers(); ++p) {
    assignment.groups_[p].reserve(group_sizes[p]);
  }
  for (const auto& [paper, reviewer] : pairs) {
    WGRAP_RETURN_IF_ERROR(assignment.CheckAddable(paper, reviewer));
    assignment.Place(paper, reviewer);
  }
  assignment.RecomputeAll();
  return assignment;
}

Assignment Assignment::ReboundTo(const Instance* instance) const {
  WGRAP_CHECK(instance->num_papers() == instance_->num_papers() &&
              instance->num_reviewers() == instance_->num_reviewers() &&
              instance->num_topics() == instance_->num_topics());
  Assignment copy = *this;
  copy.instance_ = instance;
  return copy;
}

Status Assignment::Add(int paper, int reviewer) {
  if (paper < 0 || paper >= instance_->num_papers() || reviewer < 0 ||
      reviewer >= instance_->num_reviewers()) {
    return Status::OutOfRange("paper or reviewer id out of range");
  }
  if (static_cast<int>(groups_[paper].size()) >= instance_->group_size()) {
    return Status::FailedPrecondition(
        StrFormat("paper %d already has %d reviewers", paper,
                  instance_->group_size()));
  }
  if (load_[reviewer] >= instance_->reviewer_workload()) {
    return Status::FailedPrecondition(
        StrFormat("reviewer %d is at full workload", reviewer));
  }
  return AddUnchecked(paper, reviewer);
}

Status Assignment::Remove(int paper, int reviewer) {
  if (paper < 0 || paper >= instance_->num_papers() || reviewer < 0 ||
      reviewer >= instance_->num_reviewers()) {
    return Status::OutOfRange("paper or reviewer id out of range");
  }
  auto& group = groups_[paper];
  auto it = std::find(group.begin(), group.end(), reviewer);
  if (it == group.end()) {
    return Status::NotFound("pair not in assignment");
  }
  group.erase(it);
  --load_[reviewer];
  --size_;
  RecomputePaper(paper);
  return Status::OK();
}

double Assignment::ScoreWithReplacement(int paper, int drop,
                                        int add) const {
  GroupFold fold(*instance_);
  double bids = 0.0;
  for (int r : groups_[paper]) {
    if (r == drop) continue;
    fold.Add(r);
    bids += instance_->BidBonus(r, paper);
  }
  fold.Add(add);
  bids += instance_->BidBonus(add, paper);
  return fold.Score(paper) + bids;
}

void Assignment::RecomputePaper(int paper) {
  double* gv = group_vec_.Row(paper);
  const int T = instance_->num_topics();
  std::fill(gv, gv + T, 0.0);
  for (int r : groups_[paper]) instance_->FoldReviewer(r, gv);
  const double old_score = paper_score_[paper];
  double score = 0.0;
  if (!groups_[paper].empty()) {
    // The row is dense and O(T) to clear anyway, so score it with the
    // dense kernel: by the CSR kernels' bit-identity contract that is the
    // same double GroupFold's CSR merge would give.
    score = ScoreVectors(instance_->scoring(), gv,
                         instance_->PaperVector(paper), T,
                         instance_->PaperMass(paper));
    for (int r : groups_[paper]) score += instance_->BidBonus(r, paper);
  }
  paper_score_[paper] = score;
  stale_[paper] = 0;
  total_score_ += paper_score_[paper] - old_score;
}

void Assignment::RecomputeAll() {
  static obs::Counter* const rederived = obs::Registry::Global().GetCounter(
      "wgrap_assignment_rows_rederived_total");
  // A row not marked stale is exact for the instance at revision_; if the
  // instance has moved on without this assignment, none can be trusted.
  const bool all = revision_ != instance_->revision();
  int64_t rows = 0;
  for (int p = 0; p < instance_->num_papers(); ++p) {
    if (!all && !stale_[p]) continue;
    RecomputePaper(p);
    ++rows;
  }
  revision_ = instance_->revision();
  if (rederived != nullptr) rederived->Add(rows);
  // RecomputePaper maintains the total by delta; re-sum in paper order so
  // the result is independent of the mutation history's accumulation order.
  total_score_ = 0.0;
  for (double s : paper_score_) total_score_ += s;
}

Status Assignment::ValidateComplete() const {
  for (int p = 0; p < instance_->num_papers(); ++p) {
    if (static_cast<int>(groups_[p].size()) != instance_->group_size()) {
      return Status::FailedPrecondition(
          StrFormat("paper %d has %zu reviewers, expected %d", p,
                    groups_[p].size(), instance_->group_size()));
    }
    for (int r : groups_[p]) {
      if (instance_->IsConflict(r, p)) {
        return Status::FailedPrecondition(
            StrFormat("conflicted pair (r=%d, p=%d) in assignment", r, p));
      }
    }
  }
  for (int r = 0; r < instance_->num_reviewers(); ++r) {
    if (load_[r] > instance_->reviewer_workload()) {
      return Status::FailedPrecondition(
          StrFormat("reviewer %d load %d exceeds workload %d", r, load_[r],
                    instance_->reviewer_workload()));
    }
  }
  return Status::OK();
}

}  // namespace wgrap::core
