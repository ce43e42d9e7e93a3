#include "core/instance.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/string_util.h"

namespace wgrap::core {

namespace {

// CI's sanitizer jobs force the sparse dispatch for the whole test suite
// (the dense↔sparse contract is bit-identical output, so every test must
// still pass); see .github/workflows/ci.yml. The falsy spellings are a
// case-insensitive superset of ParseKnobValue's bool spellings (env-var
// conventions vary more than knob values), so WGRAP_SPARSE_TOPICS=0,
// =off, =False and =no all mean off.
bool EnvForcesSparseTopics() {
  const char* value = std::getenv("WGRAP_SPARSE_TOPICS");
  if (value == nullptr) return false;
  std::string v = value;
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  return !(v.empty() || v == "0" || v == "off" || v == "false" || v == "no");
}

}  // namespace

int Instance::MinimalWorkload(int num_papers, int num_reviewers,
                              int group_size) {
  WGRAP_CHECK(num_reviewers > 0);
  const int64_t demand = static_cast<int64_t>(num_papers) * group_size;
  return static_cast<int>((demand + num_reviewers - 1) / num_reviewers);
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
  if (params.group_size > dataset.num_reviewers()) {
    return Status::InvalidArgument("group_size exceeds reviewer count");
  }

  Instance instance;
  instance.group_size_ = params.group_size;
  instance.scoring_ = params.scoring;
  const int R = dataset.num_reviewers();
  const int P = dataset.num_papers();
  const int T = dataset.num_topics;
  instance.reviewer_workload_ =
      params.reviewer_workload > 0
          ? params.reviewer_workload
          : MinimalWorkload(P, R, params.group_size);
  const int64_t capacity =
      static_cast<int64_t>(R) * instance.reviewer_workload_;
  const int64_t demand = static_cast<int64_t>(P) * params.group_size;
  if (capacity < demand) {
    return Status::InvalidArgument(
        StrFormat("R*dr = %lld < P*dp = %lld: not enough review capacity",
                  static_cast<long long>(capacity),
                  static_cast<long long>(demand)));
  }

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
  if (params.sparse_topics || EnvForcesSparseTopics()) {
    instance.BuildSparseTopics();
  }
  return instance;
}

sparse::TopicIndex Instance::ReviewerTopicIndex() const {
  return has_sparse_topics()
             ? sparse::TopicIndex::FromSparse(sparse_views_->reviewers)
             : sparse::TopicIndex::FromMatrix(reviewers_);
}

void Instance::BuildSparseTopics() {
  if (sparse_views_ != nullptr) return;
  auto views = std::make_shared<SparseViews>();
  views->reviewers = sparse::SparseTopicMatrix::FromMatrix(reviewers_);
  views->papers = sparse::SparseTopicMatrix::FromMatrix(papers_);
  sparse_views_ = std::move(views);
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
  return Status::OK();
}

void Instance::AddConflict(int reviewer, int paper) {
  WGRAP_CHECK(reviewer >= 0 && reviewer < num_reviewers());
  WGRAP_CHECK(paper >= 0 && paper < num_papers());
  const size_t bit = static_cast<size_t>(paper) * num_reviewers() + reviewer;
  conflicts_[bit >> 6] |= uint64_t{1} << (bit & 63);
}

}  // namespace wgrap::core
