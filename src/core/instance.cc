#include "core/instance.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "simd/kernels.h"

namespace wgrap::core {

namespace {

// The topic kernel the data picks: CSR when fewer than a quarter of the
// topic columns of the reviewer index are heavy. Heavy columns go through
// the dense column kernel in the gain row pass either way; what the CSR
// kernels save is per-pair work (FoldReviewer, MarginalGain, PairScore)
// on light topics, and what they cost is a sparse merge per call. The
// density sweep in bench/BASELINES.md puts the crossover there: the CSR
// kernels win repair-only resolves with up to 5 of 30 heavy columns, the
// dense ones win BBA and resolves from 8 of 30 on.
// WGRAP_SPARSE_TOPICS overrides the rule for the whole process: CI reruns
// the suites under =0 and =1, whose output the dense↔CSR contract makes
// bit-identical. Its falsy spellings are a case-insensitive superset of
// ParseKnobValue's bool spellings (env-var conventions vary more than knob
// values), so =0, =off, =False and =no all force the dense kernels.
bool PicksCsrKernels(const sparse::TopicIndex& index) {
  const char* value = std::getenv("WGRAP_SPARSE_TOPICS");
  if (value != nullptr && *value != '\0') {
    std::string v = value;
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    return !(v == "0" || v == "off" || v == "false" || v == "no");
  }
  return 4 * index.num_dense_columns() < index.num_topics();
}

// The column pass of Instance::GainRow with f fixed at compile time, so
// the TopicContribution switch folds out of the inner loop. For reviewer
// r the sum runs over the admitted topics t ascending with r[t] > g[t] —
// the per-pair gate — and the topics TopicCanGain rejects add +0.0 there.
// A heavy topic goes through its dense column in one vector kernel, which
// adds +0.0 for the reviewers the id walk would skip: the sums start at
// +0.0 and only gain non-negative terms, so they are never -0.0 and the
// +0.0 changes no bit.
template <ScoringFunction F>
void ScatterGainTerms(const double* group, const double* paper, int topics,
                      const sparse::TopicIndex& by_topic, double* out) {
  for (int t = 0; t < topics; ++t) {
    const double g = group[t];
    const double p = paper[t];
    if (!TopicCanGain(F, g, p)) continue;
    if (const double* dense = by_topic.DenseColumn(t)) {
      simd::AddColumnGainTerms(F, dense, by_topic.num_rows(), g, p, out);
      continue;
    }
    const double base = TopicContribution(F, g, p);
    const sparse::SparseVector column = by_topic.Column(t);
    for (int k = 0; k < column.nnz; ++k) {
      const double r = column.values[k];
      if (r <= g) continue;  // max unchanged at this topic
      out[column.ids[k]] += TopicContribution(F, r, p) - base;
    }
  }
}

// Algorithm 1's sorted lists, nonzero part: each column of the CSC index
// reordered by (value desc, id asc). O(nnz log nnz).
std::vector<int> BuildTopicRanking(const sparse::TopicIndex& index) {
  std::vector<int> ranking(static_cast<size_t>(index.nnz()));
  std::vector<std::pair<double, int>> entries;
  for (int t = 0; t < index.num_topics(); ++t) {
    const sparse::SparseVector column = index.Column(t);
    entries.clear();
    for (int e = 0; e < column.nnz; ++e) {
      entries.emplace_back(column.values[e], column.ids[e]);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    int* out = ranking.data() + index.ColumnBegin(t);
    for (int e = 0; e < column.nnz; ++e) out[e] = entries[e].second;
  }
  return ranking;
}

}  // namespace

int Instance::MinimalWorkload(int num_papers, int num_reviewers,
                              int group_size) {
  WGRAP_CHECK(num_reviewers > 0);
  const int64_t demand = static_cast<int64_t>(num_papers) * group_size;
  return static_cast<int>((demand + num_reviewers - 1) / num_reviewers);
}

Result<int> Instance::Workload(int num_papers, int num_reviewers,
                               const InstanceParams& params) {
  if (params.group_size > num_reviewers) {
    return Status::InvalidArgument("group_size exceeds reviewer count");
  }
  const int dr = params.reviewer_workload > 0
                     ? params.reviewer_workload
                     : MinimalWorkload(num_papers, num_reviewers,
                                       params.group_size);
  const int64_t capacity = static_cast<int64_t>(num_reviewers) * dr;
  const int64_t demand = static_cast<int64_t>(num_papers) * params.group_size;
  if (capacity < demand) {
    return Status::InvalidArgument(
        StrFormat("R*dr = %lld < P*dp = %lld: not enough review capacity",
                  static_cast<long long>(capacity),
                  static_cast<long long>(demand)));
  }
  return dr;
}

Result<Instance> Instance::FromDataset(const data::RapDataset& dataset,
                                       const InstanceParams& params) {
  WGRAP_RETURN_IF_ERROR(dataset.Validate());
  if (params.group_size <= 0) {
    return Status::InvalidArgument("group_size must be > 0");
  }
  // 0 is the dynamic-δr sentinel; a negative δr must not pass as one,
  // since InstanceUpdater checks its params against the built instance.
  if (params.reviewer_workload < 0) {
    return Status::InvalidArgument(
        "reviewer_workload must be >= 0 (0 = minimal)");
  }
  if (dataset.reviewers.empty()) {
    return Status::InvalidArgument("no reviewers");
  }
  // Every per-paper quantity (gain rows, c(AI), the lowest-coverage
  // paper, SRA's paper sampling) assumes P > 0.
  if (dataset.papers.empty()) {
    return Status::InvalidArgument("no papers");
  }
  const int R = dataset.num_reviewers();
  const int P = dataset.num_papers();
  const int T = dataset.num_topics;
  auto workload = Workload(P, R, params);
  if (!workload.ok()) return workload.status();

  Instance instance;
  instance.group_size_ = params.group_size;
  instance.scoring_ = params.scoring;
  instance.reviewer_workload_ = *workload;

  instance.reviewers_ = Matrix(R, T);
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < T; ++t) {
      instance.reviewers_(r, t) = dataset.reviewers[r].topics[t];
    }
  }
  instance.papers_ = Matrix(P, T);
  instance.paper_mass_.resize(P);
  for (int p = 0; p < P; ++p) {
    double mass = 0.0;
    for (int t = 0; t < T; ++t) {
      instance.papers_(p, t) = dataset.papers[p].topics[t];
      mass += dataset.papers[p].topics[t];
    }
    instance.paper_mass_[p] = mass;
  }
  instance.conflicts_.assign((static_cast<size_t>(P) * R + 63) / 64, 0);
  instance.ResetViews(std::nullopt, /*reviewers_moved=*/true,
                      /*papers_moved=*/true);
  return instance;
}

void Instance::ResetViews(std::optional<bool> csr, bool reviewers_moved,
                          bool papers_moved) {
  const TopicViews* old = views_.get();
  const bool had_csr = old != nullptr && csr_;
  auto views = std::make_shared<TopicViews>();
  if (reviewers_moved || old == nullptr) {
    views->reviewer_index = sparse::TopicIndex::FromMatrix(reviewers_);
    views->ranking = BuildTopicRanking(views->reviewer_index);
    if (!csr) csr = PicksCsrKernels(views->reviewer_index);
  } else {
    views->reviewer_index = old->reviewer_index;
    views->ranking = old->ranking;
  }
  csr_ = csr.value_or(csr_);
  if (csr_) {
    views->reviewers = reviewers_moved || !had_csr
                           ? sparse::SparseTopicMatrix::FromMatrix(reviewers_)
                           : old->reviewers;
    views->papers = papers_moved || !had_csr
                        ? sparse::SparseTopicMatrix::FromMatrix(papers_)
                        : old->papers;
  }
  views_ = std::move(views);
}

void Instance::BuildSparseTopics() {
  if (!has_sparse_topics()) ResetViews(true, false, false);
}

void Instance::DropSparseTopics() {
  if (has_sparse_topics()) ResetViews(false, false, false);
}

Status Instance::SetBids(Matrix bids, double weight) {
  if (bids.rows() != num_papers() || bids.cols() != num_reviewers()) {
    return Status::InvalidArgument("bid matrix must be P x R");
  }
  if (weight < 0.0) return Status::InvalidArgument("negative bid weight");
  for (int p = 0; p < bids.rows(); ++p) {
    for (int r = 0; r < bids.cols(); ++r) {
      const double b = bids(p, r);
      if (b < 0.0 || b > 1.0) {
        return Status::InvalidArgument("bids must lie in [0, 1]");
      }
    }
  }
  bids_ = std::move(bids);
  bid_weight_ = weight;
  ResetIdealMemo();
  return Status::OK();
}

void Instance::GainRow(const double* group, int paper, double* out) const {
  const int R = num_reviewers();
  const int T = num_topics();
  const sparse::TopicIndex& by_topic = ReviewerTopicIndex();
  const double mass = PaperMass(paper);
  WGRAP_CHECK(mass > 0.0);
  const double* paper_vec = PaperVector(paper);
  std::fill(out, out + R, 0.0);
  switch (scoring_) {
    case ScoringFunction::kWeightedCoverage:
      ScatterGainTerms<ScoringFunction::kWeightedCoverage>(
          group, paper_vec, T, by_topic, out);
      break;
    case ScoringFunction::kReviewerCoverage:
      ScatterGainTerms<ScoringFunction::kReviewerCoverage>(
          group, paper_vec, T, by_topic, out);
      break;
    case ScoringFunction::kPaperCoverage:
      ScatterGainTerms<ScoringFunction::kPaperCoverage>(
          group, paper_vec, T, by_topic, out);
      break;
    case ScoringFunction::kDotProduct:
      ScatterGainTerms<ScoringFunction::kDotProduct>(group, paper_vec, T,
                                                     by_topic, out);
      break;
  }
  for (int r = 0; r < R; ++r) out[r] /= mass;
}

void Instance::AddConflict(int reviewer, int paper) {
  WGRAP_CHECK(reviewer >= 0 && reviewer < num_reviewers());
  WGRAP_CHECK(paper >= 0 && paper < num_papers());
  const size_t bit = static_cast<size_t>(paper) * num_reviewers() + reviewer;
  conflicts_[bit >> 6] |= uint64_t{1} << (bit & 63);
  MarkIdealStale(paper);
}

void Instance::MarkIdealStale(int paper) {
  if (ideal_.use_count() != 1) {
    // Another copy still reads this memo: clone it under its lock.
    auto own = std::make_shared<IdealMemo>();
    if (ideal_ != nullptr) {
      std::lock_guard<std::mutex> lock(ideal_->mutex);
      own->rows = ideal_->rows;
      own->gains = ideal_->gains;
    }
    ideal_ = std::move(own);
  }
  // Unshared now, but a copy dropped on another thread may have been the
  // last to write the rows; the lock orders this write after that one.
  std::lock_guard<std::mutex> lock(ideal_->mutex);
  if (!ideal_->rows.empty()) ideal_->rows[paper] = IdealMemo::Row::kStale;
}

namespace {

// GroupFold's per-thread scratch: the dense group vector, or the shared
// CSR accumulator (whose Reset is O(touched), not O(T), when warm).
std::vector<double>& ThreadLocalDenseGroup() {
  static thread_local std::vector<double> group;
  return group;
}

}  // namespace

GroupFold::GroupFold(const Instance& instance) : instance_(instance) {
  const int T = instance.num_topics();
  if (instance.has_sparse_topics()) {
    accumulator_ = &sparse::ThreadLocalGroupAccumulator();
    accumulator_->Reset(T);
  } else {
    dense_ = &ThreadLocalDenseGroup();
    dense_->assign(T, 0.0);
  }
}

void GroupFold::Add(int reviewer) {
  if (accumulator_ != nullptr) {
    accumulator_->Fold(instance_.ReviewerSparse(reviewer));
  } else {
    instance_.FoldReviewer(reviewer, dense_->data());
  }
}

double GroupFold::Score(int paper) const {
  if (accumulator_ != nullptr) {
    return accumulator_->Score(instance_.scoring(),
                               instance_.PaperSparse(paper),
                               instance_.PaperMass(paper));
  }
  return ScoreVectors(instance_.scoring(), dense_->data(),
                      instance_.PaperVector(paper), instance_.num_topics(),
                      instance_.PaperMass(paper));
}

}  // namespace wgrap::core
