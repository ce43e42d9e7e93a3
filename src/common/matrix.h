// Dense row-major matrix of doubles. Small, allocation-once container used
// for gain matrices (P x R), LP tableaus and topic count matrices.
#ifndef WGRAP_COMMON_MATRIX_H_
#define WGRAP_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace wgrap {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {
    WGRAP_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(int r, int c) {
    WGRAP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    WGRAP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  // Unchecked fast path for hot loops.
  double& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the first element of row r.
  double* Row(int r) { return &data_[static_cast<size_t>(r) * cols_]; }
  const double* Row(int r) const {
    return &data_[static_cast<size_t>(r) * cols_];
  }

  /// Sum of all entries.
  double Sum() const;

  /// Max entry (requires non-empty).
  double Max() const;

  /// Row sum.
  double RowSum(int r) const;

  /// Normalizes every row to sum to 1 (rows with zero mass become uniform).
  void NormalizeRows();

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

}  // namespace wgrap

#endif  // WGRAP_COMMON_MATRIX_H_
