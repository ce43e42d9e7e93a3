#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace wgrap::data {

namespace {

// `kind` and `index` name the vector ("reviewer 3") in an error; the label
// is formatted only when a check fails.
Status ValidateVector(const std::vector<double>& v, int num_topics,
                      const char* kind, size_t index) {
  if (static_cast<int>(v.size()) != num_topics) {
    return Status::InvalidArgument(
        StrFormat("%s %zu has %zu topics, expected %d", kind, index, v.size(),
                  num_topics));
  }
  double total = 0.0;
  for (double x : v) {
    if (x < 0.0 || !std::isfinite(x)) {
      return Status::InvalidArgument(StrFormat(
          "%s %zu has a negative or non-finite weight", kind, index));
    }
    total += x;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument(
        StrFormat("%s %zu has zero mass", kind, index));
  }
  return Status::OK();
}

}  // namespace

Status RapDataset::Validate() const {
  if (num_topics <= 0) return Status::InvalidArgument("num_topics must be > 0");
  for (size_t i = 0; i < reviewers.size(); ++i) {
    WGRAP_RETURN_IF_ERROR(
        ValidateVector(reviewers[i].topics, num_topics, "reviewer", i));
  }
  for (size_t i = 0; i < papers.size(); ++i) {
    WGRAP_RETURN_IF_ERROR(
        ValidateVector(papers[i].topics, num_topics, "paper", i));
  }
  return Status::OK();
}

void ScaleReviewersByHIndex(RapDataset* dataset) {
  if (dataset->reviewers.empty()) return;
  int h_min = dataset->reviewers[0].h_index;
  int h_max = h_min;
  for (const auto& r : dataset->reviewers) {
    h_min = std::min(h_min, r.h_index);
    h_max = std::max(h_max, r.h_index);
  }
  const double range = h_max > h_min ? h_max - h_min : 1.0;
  for (auto& r : dataset->reviewers) {
    const double scale = 1.0 + (r.h_index - h_min) / range;
    for (double& w : r.topics) w *= scale;
  }
}

}  // namespace wgrap::data
