#include "sparse/topic_index.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace wgrap::sparse {

namespace {

struct CscArrays {
  std::vector<int64_t> col_offsets;
  std::vector<int> ids;
  std::vector<double> values;
};

// Two-pass CSC build: count column degrees, prefix-sum into offsets, then
// scatter. Rows are visited in ascending order, so ids within a column come
// out sorted without an explicit sort. `visit(r, emit)` calls
// emit(topic, value) for every nonzero of row r, in any topic order.
template <typename VisitRow>
CscArrays BuildCsc(int rows, int topics, VisitRow visit) {
  CscArrays out;
  std::vector<int64_t> degree(topics, 0);
  int64_t nnz = 0;
  for (int r = 0; r < rows; ++r) {
    visit(r, [&](int t, double) {
      ++degree[t];
      ++nnz;
    });
  }
  out.col_offsets.assign(topics + 1, 0);
  for (int t = 0; t < topics; ++t) {
    out.col_offsets[t + 1] = out.col_offsets[t] + degree[t];
  }
  out.ids.resize(nnz);
  out.values.resize(nnz);
  std::vector<int64_t> cursor(out.col_offsets.begin(),
                              out.col_offsets.end() - 1);
  for (int r = 0; r < rows; ++r) {
    visit(r, [&](int t, double value) {
      out.ids[cursor[t]] = r;
      out.values[cursor[t]] = value;
      ++cursor[t];
    });
  }
  return out;
}

}  // namespace

TopicIndex::TopicIndex(int rows, int topics, std::vector<int64_t> col_offsets,
                       std::vector<int> ids, std::vector<double> values)
    : rows_(rows),
      topics_(topics),
      col_offsets_(std::move(col_offsets)),
      ids_(std::move(ids)),
      values_(std::move(values)),
      dense_slot_(topics, -1) {
  int64_t heavy = 0;
  for (int t = 0; t < topics_; ++t) {
    const int64_t degree = ColumnNnz(t);
    if (degree > 0 && kHeavyColumnDivisor * degree >= rows_) {
      dense_slot_[t] = heavy++;
    }
  }
  dense_values_.assign(static_cast<size_t>(heavy) * rows_, 0.0);
  for (int t = 0; t < topics_; ++t) {
    if (dense_slot_[t] < 0) continue;
    double* dense = dense_values_.data() + dense_slot_[t] * rows_;
    for (int64_t k = col_offsets_[t]; k < col_offsets_[t + 1]; ++k) {
      dense[ids_[k]] = values_[k];
    }
  }
}

TopicIndex TopicIndex::FromMatrix(const Matrix& dense) {
  const int topics = dense.cols();
  CscArrays csc = BuildCsc(dense.rows(), topics, [&](int r, auto emit) {
    const double* row = dense.Row(r);
    for (int t = 0; t < topics; ++t) {
      const double v = row[t];
      WGRAP_CHECK_MSG(std::isfinite(v) && v >= 0.0,
                      "topic weights must be finite and >= 0");
      if (v > 0.0) emit(t, v);
    }
  });
  return TopicIndex(dense.rows(), topics, std::move(csc.col_offsets),
                    std::move(csc.ids), std::move(csc.values));
}

}  // namespace wgrap::sparse
