#include "common/matrix.h"

#include <algorithm>

namespace wgrap {

double Matrix::Sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

double Matrix::Max() const {
  WGRAP_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::RowSum(int r) const {
  WGRAP_CHECK(r >= 0 && r < rows_);
  double total = 0.0;
  const double* row = Row(r);
  for (int c = 0; c < cols_; ++c) total += row[c];
  return total;
}

void Matrix::NormalizeRows() {
  for (int r = 0; r < rows_; ++r) {
    double total = RowSum(r);
    double* row = Row(r);
    if (total <= 0.0) {
      for (int c = 0; c < cols_; ++c) row[c] = 1.0 / cols_;
    } else {
      for (int c = 0; c < cols_; ++c) row[c] /= total;
    }
  }
}

}  // namespace wgrap
