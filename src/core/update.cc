#include "core/update.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "common/string_util.h"
#include "core/jra.h"
#include "core/repair.h"

namespace wgrap::core {

namespace {

// Matrix row/column surgery: Matrix is a flat allocation-once container,
// so shape changes are explicit copies. All O(rows × cols) — cheap next to
// the solve work the update path avoids.

Matrix WithRowAppended(const Matrix& m, const std::vector<double>& row) {
  Matrix out(m.rows() + 1, m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    const double* src = m.Row(i);
    std::copy(src, src + m.cols(), out.Row(i));
  }
  if (!row.empty()) std::copy(row.begin(), row.end(), out.Row(m.rows()));
  return out;
}

Matrix WithRowErased(const Matrix& m, int row) {
  Matrix out(m.rows() - 1, m.cols());
  for (int i = 0; i < out.rows(); ++i) {
    const double* src = m.Row(i < row ? i : i + 1);
    std::copy(src, src + m.cols(), out.Row(i));
  }
  return out;
}

Matrix WithColAppended(const Matrix& m) {
  Matrix out(m.rows(), m.cols() + 1, 0.0);
  for (int i = 0; i < m.rows(); ++i) {
    const double* src = m.Row(i);
    std::copy(src, src + m.cols(), out.Row(i));
  }
  return out;
}

Matrix WithColErased(const Matrix& m, int col) {
  Matrix out(m.rows(), m.cols() - 1);
  for (int i = 0; i < m.rows(); ++i) {
    const double* src = m.Row(i);
    double* dst = out.Row(i);
    std::copy(src, src + col, dst);
    std::copy(src + col + 1, src + m.cols(), dst + col);
  }
  return out;
}

// c(g→, p→) + bids of an explicit group — the leave-one-out loss metric of
// the deterministic overload-eviction rule.
double ScoreGroupWithBids(const Instance& instance, int paper,
                          const std::vector<int>& group) {
  if (group.empty()) return 0.0;
  double score = ScoreGroup(instance, paper, group);
  for (int r : group) score += instance.BidBonus(r, paper);
  return score;
}

}  // namespace

InstanceUpdate InstanceUpdate::AddPaper(std::vector<double> topics) {
  InstanceUpdate u;
  u.kind = Kind::kAddPaper;
  u.topics = std::move(topics);
  return u;
}

InstanceUpdate InstanceUpdate::RemovePaper(int paper) {
  InstanceUpdate u;
  u.kind = Kind::kRemovePaper;
  u.paper = paper;
  return u;
}

InstanceUpdate InstanceUpdate::AddReviewer(std::vector<double> topics) {
  InstanceUpdate u;
  u.kind = Kind::kAddReviewer;
  u.topics = std::move(topics);
  return u;
}

InstanceUpdate InstanceUpdate::RemoveReviewer(int reviewer) {
  InstanceUpdate u;
  u.kind = Kind::kRemoveReviewer;
  u.reviewer = reviewer;
  return u;
}

InstanceUpdate InstanceUpdate::SetCoi(int reviewer, int paper,
                                      bool conflicted) {
  InstanceUpdate u;
  u.kind = Kind::kSetCoi;
  u.reviewer = reviewer;
  u.paper = paper;
  u.conflicted = conflicted;
  return u;
}

InstanceUpdate InstanceUpdate::SetBid(int paper, int reviewer, double bid) {
  InstanceUpdate u;
  u.kind = Kind::kSetBid;
  u.paper = paper;
  u.reviewer = reviewer;
  u.value = bid;
  return u;
}

InstanceUpdate InstanceUpdate::SetPaperTopics(int paper,
                                              std::vector<double> topics) {
  InstanceUpdate u;
  u.kind = Kind::kSetPaperTopics;
  u.paper = paper;
  u.topics = std::move(topics);
  return u;
}

InstanceUpdate InstanceUpdate::SetReviewerTopics(int reviewer,
                                                 std::vector<double> topics) {
  InstanceUpdate u;
  u.kind = Kind::kSetReviewerTopics;
  u.reviewer = reviewer;
  u.topics = std::move(topics);
  return u;
}

std::string InstanceUpdate::ToString() const {
  std::ostringstream out;
  out.precision(17);
  auto put_topics = [&] {
    for (double w : topics) out << " " << w;
  };
  switch (kind) {
    case Kind::kAddPaper:
      out << "add_paper";
      put_topics();
      break;
    case Kind::kRemovePaper:
      out << "remove_paper " << paper;
      break;
    case Kind::kAddReviewer:
      out << "add_reviewer";
      put_topics();
      break;
    case Kind::kRemoveReviewer:
      out << "remove_reviewer " << reviewer;
      break;
    case Kind::kSetCoi:
      out << "set_coi " << reviewer << " " << paper << " "
          << (conflicted ? "on" : "off");
      break;
    case Kind::kSetBid:
      out << "set_bid " << paper << " " << reviewer << " " << value;
      break;
    case Kind::kSetPaperTopics:
      out << "set_paper_topics " << paper;
      put_topics();
      break;
    case Kind::kSetReviewerTopics:
      out << "set_reviewer_topics " << reviewer;
      put_topics();
      break;
  }
  return out.str();
}

InstanceUpdater::InstanceUpdater(Instance* instance,
                                 const InstanceParams& params)
    : instance_(instance), params_(params) {
  WGRAP_CHECK_MSG(params.group_size == instance->group_size(),
                  "InstanceUpdater params disagree with the instance's dp");
  WGRAP_CHECK_MSG(params.scoring == instance->scoring(),
                  "InstanceUpdater params disagree with the instance's "
                  "scoring function");
  WGRAP_CHECK_MSG(params.reviewer_workload == 0 ||
                      params.reviewer_workload ==
                          instance->reviewer_workload(),
                  "InstanceUpdater params disagree with the instance's dr");
}

Status InstanceUpdater::ValidateTopics(const std::vector<double>& topics,
                                       const char* what) const {
  // Mirrors data::RapDataset::Validate so a patched instance can never
  // hold a vector FromDataset would reject.
  if (static_cast<int>(topics.size()) != instance_->num_topics()) {
    return Status::InvalidArgument(
        StrFormat("%s has %zu topics, expected %d", what, topics.size(),
                  instance_->num_topics()));
  }
  double total = 0.0;
  for (double x : topics) {
    if (x < 0.0 || !std::isfinite(x)) {
      return Status::InvalidArgument(
          StrFormat("%s has a negative or non-finite weight", what));
    }
    total += x;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument(StrFormat("%s has zero mass", what));
  }
  return Status::OK();
}

void InstanceUpdater::RebuildTopicViews(bool reviewer_side) {
  static obs::Counter* const rebuilds = obs::Registry::Global().GetCounter(
      "wgrap_update_view_rebuilds_total");
  if (instance_->RefreshTopicViews(reviewer_side) && rebuilds) {
    rebuilds->Add();
  }
}

template <typename PaperMap, typename ReviewerMap>
void InstanceUpdater::RemapConflicts(int old_papers, int old_reviewers,
                                     PaperMap paper_map,
                                     ReviewerMap reviewer_map) {
  const int P = instance_->num_papers();
  const int R = instance_->num_reviewers();
  std::vector<uint64_t> repacked((static_cast<size_t>(P) * R + 63) / 64, 0);
  for (int p = 0; p < old_papers; ++p) {
    for (int r = 0; r < old_reviewers; ++r) {
      const size_t bit = static_cast<size_t>(p) * old_reviewers + r;
      if (((instance_->conflicts_[bit >> 6] >> (bit & 63)) & uint64_t{1}) ==
          0) {
        continue;
      }
      const int np = paper_map(p);
      const int nr = reviewer_map(r);
      if (np < 0 || nr < 0) continue;
      const size_t nbit = static_cast<size_t>(np) * R + nr;
      repacked[nbit >> 6] |= uint64_t{1} << (nbit & 63);
    }
  }
  instance_->conflicts_ = std::move(repacked);
}

void InstanceUpdater::EvictPair(int paper, int reviewer,
                                UpdateReport* report) {
  const Status st = assignment_->Remove(paper, reviewer);
  WGRAP_CHECK_MSG(st.ok(), "evicted pair must be present in the assignment");
  report->evicted.emplace_back(paper, reviewer);
}

void InstanceUpdater::RefreshWorkload(UpdateReport* report) {
  // Every op that reaches here either pre-checked the rule at its new
  // shape (add_paper, remove_reviewer) or cannot break it (fewer papers,
  // more reviewers).
  const Result<int> workload = Instance::Workload(
      instance_->num_papers(), instance_->num_reviewers(), params_);
  WGRAP_CHECK_MSG(workload.ok(), "a mutated instance broke the workload rule");
  const int dr = *workload;
  instance_->reviewer_workload_ = dr;
  if (assignment_ == nullptr) return;
  // A dynamic-δr decrease can leave reviewers overloaded; shed pairs
  // deterministically — smallest leave-one-out score loss first, ties to
  // the smaller paper id — so the survivors are the ones worth keeping and
  // repeated runs agree exactly.
  for (int r = 0; r < instance_->num_reviewers(); ++r) {
    while (assignment_->LoadOf(r) > dr) {
      int best_paper = -1;
      double best_loss = 0.0;
      for (int p = 0; p < instance_->num_papers(); ++p) {
        if (!assignment_->Contains(p, r)) continue;
        const std::vector<int>& group = assignment_->GroupFor(p);
        std::vector<int> kept;
        kept.reserve(group.size() - 1);
        for (int member : group) {
          if (member != r) kept.push_back(member);
        }
        const double loss = ScoreGroupWithBids(*instance_, p, group) -
                            ScoreGroupWithBids(*instance_, p, kept);
        if (best_paper < 0 || loss < best_loss) {
          best_paper = p;
          best_loss = loss;
        }
      }
      WGRAP_CHECK_MSG(best_paper >= 0, "overloaded reviewer with no pairs");
      EvictPair(best_paper, r, report);
    }
  }
}

Status InstanceUpdater::ApplyOne(const InstanceUpdate& u,
                                 UpdateReport* report) {
  const int P = instance_->num_papers();
  const int R = instance_->num_reviewers();
  switch (u.kind) {
    case InstanceUpdate::Kind::kAddPaper: {
      WGRAP_RETURN_IF_ERROR(ValidateTopics(u.topics, "new paper"));
      // The workload rule at the post-op shape: with a fixed δr a late
      // submission can genuinely not fit (dynamic δr grows to absorb it).
      WGRAP_RETURN_IF_ERROR(Instance::Workload(P + 1, R, params_).status());
      instance_->papers_ = WithRowAppended(instance_->papers_, u.topics);
      double mass = 0.0;
      for (double w : u.topics) mass += w;
      instance_->paper_mass_.push_back(mass);
      if (instance_->has_bids()) {
        instance_->bids_ = WithRowAppended(instance_->bids_, {});
      }
      // The bitset is paper-major, so a new last paper only extends it;
      // the tail bits of the old last word are already zero.
      instance_->conflicts_.resize(
          (static_cast<size_t>(P + 1) * R + 63) / 64, 0);
      RebuildTopicViews(/*reviewer_side=*/false);
      if (assignment_ != nullptr) {
        assignment_->groups_.emplace_back();
        assignment_->paper_score_.push_back(0.0);
        assignment_->group_vec_ =
            WithRowAppended(assignment_->group_vec_, {});
      }
      RefreshWorkload(report);  // δr can only grow here: no evictions
      return Status::OK();
    }
    case InstanceUpdate::Kind::kRemovePaper: {
      if (u.paper < 0 || u.paper >= P) {
        return Status::OutOfRange("paper id out of range");
      }
      if (P == 1) {  // FromDataset rejects a paperless instance too
        return Status::InvalidArgument("cannot remove the last paper");
      }
      if (assignment_ != nullptr) {
        const std::vector<int> group = assignment_->GroupFor(u.paper);
        for (int r : group) EvictPair(u.paper, r, report);
      }
      instance_->papers_ = WithRowErased(instance_->papers_, u.paper);
      instance_->paper_mass_.erase(instance_->paper_mass_.begin() + u.paper);
      if (instance_->has_bids()) {
        instance_->bids_ = WithRowErased(instance_->bids_, u.paper);
      }
      const int removed = u.paper;
      RemapConflicts(
          P, R,
          [removed](int p) { return p == removed ? -1 : (p < removed ? p : p - 1); },
          [](int r) { return r; });
      RebuildTopicViews(/*reviewer_side=*/false);
      if (assignment_ != nullptr) {
        assignment_->groups_.erase(assignment_->groups_.begin() + removed);
        assignment_->paper_score_.erase(assignment_->paper_score_.begin() +
                                        removed);
        assignment_->group_vec_ =
            WithRowErased(assignment_->group_vec_, removed);
      }
      RefreshWorkload(report);  // dynamic δr can shrink: may evict
      return Status::OK();
    }
    case InstanceUpdate::Kind::kAddReviewer: {
      WGRAP_RETURN_IF_ERROR(ValidateTopics(u.topics, "new reviewer"));
      instance_->reviewers_ = WithRowAppended(instance_->reviewers_, u.topics);
      if (instance_->has_bids()) {
        instance_->bids_ = WithColAppended(instance_->bids_);
      }
      // The bitset stride is R, so a reviewer-count change repacks it.
      RemapConflicts(
          P, R, [](int p) { return p; }, [](int r) { return r; });
      RebuildTopicViews(/*reviewer_side=*/true);
      if (assignment_ != nullptr) assignment_->load_.push_back(0);
      RefreshWorkload(report);  // dynamic δr can shrink: may evict
      return Status::OK();
    }
    case InstanceUpdate::Kind::kRemoveReviewer: {
      if (u.reviewer < 0 || u.reviewer >= R) {
        return Status::OutOfRange("reviewer id out of range");
      }
      WGRAP_RETURN_IF_ERROR(Instance::Workload(P, R - 1, params_).status());
      const int removed = u.reviewer;
      if (assignment_ != nullptr) {
        for (int p = 0; p < P; ++p) {
          if (assignment_->Contains(p, removed)) {
            EvictPair(p, removed, report);
          }
        }
      }
      instance_->reviewers_ = WithRowErased(instance_->reviewers_, removed);
      if (instance_->has_bids()) {
        instance_->bids_ = WithColErased(instance_->bids_, removed);
      }
      RemapConflicts(
          P, R, [](int p) { return p; },
          [removed](int r) { return r == removed ? -1 : (r < removed ? r : r - 1); });
      RebuildTopicViews(/*reviewer_side=*/true);
      if (assignment_ != nullptr) {
        assignment_->load_.erase(assignment_->load_.begin() + removed);
        for (auto& group : assignment_->groups_) {
          for (int& member : group) {
            if (member > removed) --member;
          }
        }
      }
      RefreshWorkload(report);  // dynamic δr can only grow: no evictions
      return Status::OK();
    }
    case InstanceUpdate::Kind::kSetCoi: {
      if (u.paper < 0 || u.paper >= P) {
        return Status::OutOfRange("paper id out of range");
      }
      if (u.reviewer < 0 || u.reviewer >= R) {
        return Status::OutOfRange("reviewer id out of range");
      }
      if (instance_->IsConflict(u.reviewer, u.paper) == u.conflicted) {
        return Status::OK();  // no-op flip
      }
      if (u.conflicted && assignment_ != nullptr &&
          assignment_->Contains(u.paper, u.reviewer)) {
        EvictPair(u.paper, u.reviewer, report);
      }
      const size_t bit = static_cast<size_t>(u.paper) * R + u.reviewer;
      if (u.conflicted) {
        instance_->conflicts_[bit >> 6] |= uint64_t{1} << (bit & 63);
      } else {
        instance_->conflicts_[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
      }
      return Status::OK();
    }
    case InstanceUpdate::Kind::kSetBid: {
      if (u.paper < 0 || u.paper >= P) {
        return Status::OutOfRange("paper id out of range");
      }
      if (u.reviewer < 0 || u.reviewer >= R) {
        return Status::OutOfRange("reviewer id out of range");
      }
      if (!instance_->has_bids()) {
        return Status::FailedPrecondition(
            "instance has no bid matrix; install one with Instance::SetBids "
            "before streaming bid updates");
      }
      if (u.value < 0.0 || u.value > 1.0 || !std::isfinite(u.value)) {
        return Status::InvalidArgument("bids must lie in [0, 1]");
      }
      instance_->bids_(u.paper, u.reviewer) = u.value;
      if (assignment_ != nullptr &&
          assignment_->Contains(u.paper, u.reviewer)) {
        assignment_->RecomputePaper(u.paper);
      }
      return Status::OK();
    }
    case InstanceUpdate::Kind::kSetPaperTopics: {
      if (u.paper < 0 || u.paper >= P) {
        return Status::OutOfRange("paper id out of range");
      }
      WGRAP_RETURN_IF_ERROR(ValidateTopics(u.topics, "paper"));
      std::copy(u.topics.begin(), u.topics.end(),
                instance_->papers_.Row(u.paper));
      double mass = 0.0;
      for (double w : u.topics) mass += w;
      instance_->paper_mass_[u.paper] = mass;
      RebuildTopicViews(/*reviewer_side=*/false);
      if (assignment_ != nullptr) assignment_->RecomputePaper(u.paper);
      return Status::OK();
    }
    case InstanceUpdate::Kind::kSetReviewerTopics: {
      if (u.reviewer < 0 || u.reviewer >= R) {
        return Status::OutOfRange("reviewer id out of range");
      }
      WGRAP_RETURN_IF_ERROR(ValidateTopics(u.topics, "reviewer"));
      std::copy(u.topics.begin(), u.topics.end(),
                instance_->reviewers_.Row(u.reviewer));
      RebuildTopicViews(/*reviewer_side=*/true);
      for (int p = 0; p < P; ++p) {
        if (assignment_ != nullptr && assignment_->Contains(p, u.reviewer)) {
          // The paper's group vector moved at topics of the reviewer's old
          // and new supports.
          assignment_->RecomputePaper(p);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled update kind");
}

void InstanceUpdater::MarkIdealStale(const InstanceUpdate& u) {
  switch (u.kind) {
    case InstanceUpdate::Kind::kSetCoi:
    case InstanceUpdate::Kind::kSetBid:
    case InstanceUpdate::Kind::kSetPaperTopics:
      instance_->MarkIdealStale(u.paper);
      return;
    default:
      instance_->ResetIdealMemo();
  }
}

Result<UpdateReport> InstanceUpdater::Apply(const InstanceUpdate& update) {
  UpdateReport report;
  WGRAP_RETURN_IF_ERROR(ApplyOne(update, &report));
  MarkIdealStale(update);
  report.applied = 1;
  return report;
}

Result<UpdateReport> InstanceUpdater::ApplyAll(
    const std::vector<InstanceUpdate>& updates) {
  UpdateReport report;
  for (const InstanceUpdate& u : updates) {
    WGRAP_RETURN_IF_ERROR(ApplyOne(u, &report));
    MarkIdealStale(u);
    ++report.applied;
  }
  static obs::Counter* const batches = obs::Registry::Global().GetCounter(
      "wgrap_update_batches_total");
  static obs::Histogram* const batch_ops = obs::Registry::Global().GetHistogram(
      "wgrap_update_batch_ops", obs::ExponentialBounds(1.0, 2.0, 12));
  if (batches) batches->Add();
  if (batch_ops) batch_ops->Observe(static_cast<double>(report.applied));
  return report;
}

Result<ResolveReport> IncrementalResolve(const Instance& instance,
                                         Assignment* assignment,
                                         const SolverRunOptions& options) {
  Stopwatch watch;
  obs::ScopedSpan resolve_span("incremental_resolve");
  // The resolve path declares its own schema (refiner pipeline knobs +
  // update_refine) and decodes eagerly — the same step as registry
  // dispatch, so a typo fails before any mutation-repair work.
  auto typed = DecodeKnobs("update", IncrementalResolveKnobSpecs(), options);
  WGRAP_RETURN_IF_ERROR(typed.status());
  ResolveReport report;
  // Normalize first: re-derive every cached score from the groups so the
  // numeric state is independent of the mutation history — this is what
  // makes a resolve on the patched state bit-identical to one on a fresh
  // clone of the same groups (tests/update_equivalence_test.cc).
  assignment->RecomputeAll();
  report.score_before = assignment->TotalScore();
  const int64_t pairs_before = assignment->size();
  for (int p = 0; p < instance.num_papers(); ++p) {
    if (static_cast<int>(assignment->GroupFor(p).size()) <
        instance.group_size()) {
      ++report.repaired_papers;
    }
  }
  WGRAP_RETURN_IF_ERROR(CompleteWithSwapRepair(instance, assignment));
  report.added_pairs = assignment->size() - pairs_before;
  static obs::Histogram* const repaired = obs::Registry::Global().GetHistogram(
      "wgrap_update_repaired_papers", obs::ExponentialBounds(1.0, 2.0, 12));
  if (repaired) repaired->Observe(static_cast<double>(report.repaired_papers));
  if (typed->update_refine != "none") {
    const SolverDescriptor* refiner =
        SolverRegistry::Default().Find(typed->update_refine);
    WGRAP_CHECK_MSG(refiner != nullptr && refiner->refine,
                    "built-in refiner missing");
    // The decoded options already hold the refiner's struct; knobs it does
    // not read (sra_* when refine=ls) are simply not looked at.
    auto refined = refiner->refine(instance, *assignment, *typed);
    WGRAP_RETURN_IF_ERROR(refined.status());
    *assignment = *std::move(refined);
  }
  report.score_after = assignment->TotalScore();
  report.seconds = watch.ElapsedSeconds();
  return report;
}

Result<std::vector<InstanceUpdate>> ParseMutationScript(
    const std::string& text) {
  std::vector<InstanceUpdate> updates;
  int lineno = 0;
  for (std::string_view line : StrSplit(text, '\n')) {
    ++lineno;
    line = line.substr(0, line.find('#'));
    const std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty()) continue;  // blank / comment-only line
    const std::string& op = tokens[0];
    const auto bad = [&](const std::string& why) {
      return Status::InvalidArgument(
          StrFormat("mutation script line %d: %s", lineno, why.c_str()));
    };
    // Every field is one whole token (common/string_util.h), and a line
    // holds exactly its op's fields; a topic vector is the rest of the line.
    const auto id_at = [&](size_t i, int* out) {
      return i < tokens.size() && ParseInt(tokens[i], out);
    };
    const auto topics_from = [&](size_t first, std::vector<double>* out) {
      if (first >= tokens.size()) return false;
      out->resize(tokens.size() - first);
      for (size_t i = first; i < tokens.size(); ++i) {
        if (!ParseDouble(tokens[i], &(*out)[i - first])) return false;
      }
      return true;
    };

    if (op == "add_paper" || op == "add_reviewer") {
      std::vector<double> topics;
      if (!topics_from(1, &topics)) {
        return bad(op + " needs a topic vector");
      }
      updates.push_back(op == "add_paper"
                            ? InstanceUpdate::AddPaper(std::move(topics))
                            : InstanceUpdate::AddReviewer(std::move(topics)));
    } else if (op == "remove_paper") {
      int p;
      if (tokens.size() != 2 || !id_at(1, &p)) {
        return bad("remove_paper needs a paper id");
      }
      updates.push_back(InstanceUpdate::RemovePaper(p));
    } else if (op == "remove_reviewer") {
      int r;
      if (tokens.size() != 2 || !id_at(1, &r)) {
        return bad("remove_reviewer needs a reviewer id");
      }
      updates.push_back(InstanceUpdate::RemoveReviewer(r));
    } else if (op == "set_coi") {
      int r, p;
      if (tokens.size() != 4 || !id_at(1, &r) || !id_at(2, &p) ||
          (tokens[3] != "on" && tokens[3] != "off")) {
        return bad("set_coi needs <reviewer> <paper> on|off");
      }
      updates.push_back(InstanceUpdate::SetCoi(r, p, tokens[3] == "on"));
    } else if (op == "set_bid") {
      int p, r;
      double bid;
      if (tokens.size() != 4 || !id_at(1, &p) || !id_at(2, &r) ||
          !ParseDouble(tokens[3], &bid)) {
        return bad("set_bid needs <paper> <reviewer> <bid>");
      }
      updates.push_back(InstanceUpdate::SetBid(p, r, bid));
    } else if (op == "set_paper_topics" || op == "set_reviewer_topics") {
      int id;
      std::vector<double> topics;
      if (!id_at(1, &id) || !topics_from(2, &topics)) {
        return bad(op + " needs <id> and a topic vector");
      }
      updates.push_back(
          op == "set_paper_topics"
              ? InstanceUpdate::SetPaperTopics(id, std::move(topics))
              : InstanceUpdate::SetReviewerTopics(id, std::move(topics)));
    } else {
      return bad("unknown op '" + op + "'");
    }
  }
  return updates;
}

data::RapDataset SnapshotDataset(const Instance& instance) {
  data::RapDataset dataset;
  dataset.num_topics = instance.num_topics();
  const int T = instance.num_topics();
  for (int r = 0; r < instance.num_reviewers(); ++r) {
    const double* v = instance.ReviewerVector(r);
    dataset.reviewers.push_back(
        {StrFormat("r%d", r), std::vector<double>(v, v + T), 0});
  }
  for (int p = 0; p < instance.num_papers(); ++p) {
    const double* v = instance.PaperVector(p);
    dataset.papers.push_back(
        {StrFormat("p%d", p), std::vector<double>(v, v + T), "snapshot"});
  }
  return dataset;
}

}  // namespace wgrap::core
