// Compressed sparse column (CSC) topic-inverted index: topic → the rows
// (reviewers or papers) that carry it with positive weight. The transpose
// companion of the CSR SparseTopicMatrix (sparse_matrix.h): CSR answers
// "which topics does reviewer r know" in O(nnz(r)); this index answers
// "which reviewers know topic t" in O(degree(t)).
//
// That column walk is what computes a paper's whole gain row in one
// topic-major pass: a marginal gain (Definition 8) adds a term at topic t
// only for reviewers with r[t] > g[t], i.e. reviewers in Column(t), so
// walking the columns in ascending topic order scatters every reviewer's
// terms in the per-pair kernel's order (core::Assignment::MarginalGainRow
// is the consumer; core::Instance owns the reviewer index, keeps it
// current across online updates, and derives BBA's sorted lists from it).
//
// A TopicIndex is immutable after construction; Column() views are cheap
// pointer views into it, valid as long as the index lives.
#ifndef WGRAP_SPARSE_TOPIC_INDEX_H_
#define WGRAP_SPARSE_TOPIC_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "sparse/sparse_matrix.h"

namespace wgrap::sparse {

/// Immutable CSC index over nonnegative topic weights: per topic, the
/// sorted row ids carrying it and their values. Exact zeros are dropped,
/// so `Column(t).nnz` is the true degree of topic t.
class TopicIndex {
 public:
  TopicIndex() = default;

  /// Inverts a dense rows×topics matrix. Entries must be finite and >= 0;
  /// exact zeros are dropped. O(rows * topics).
  static TopicIndex FromMatrix(const Matrix& dense);

  int num_rows() const { return rows_; }
  int num_topics() const { return topics_; }
  /// Total stored (nonzero) entries — equals the source matrix's nnz.
  int64_t nnz() const { return static_cast<int64_t>(ids_.size()); }
  int ColumnNnz(int t) const {
    return static_cast<int>(col_offsets_[t + 1] - col_offsets_[t]);
  }
  /// Offset of column t's first entry in the nnz-long entry order, so
  /// callers can keep per-entry arrays parallel to the index.
  int64_t ColumnBegin(int t) const { return col_offsets_[t]; }

  /// Rows carrying topic t, ids sorted ascending, values > 0. Reuses the
  /// SparseVector view type with `dim` = num_rows().
  SparseVector Column(int t) const {
    const int64_t begin = col_offsets_[t];
    return SparseVector{ids_.data() + begin, values_.data() + begin,
                        ColumnNnz(t), rows_};
  }

 private:
  TopicIndex(int rows, int topics, std::vector<int64_t> col_offsets,
             std::vector<int> ids, std::vector<double> values)
      : rows_(rows),
        topics_(topics),
        col_offsets_(std::move(col_offsets)),
        ids_(std::move(ids)),
        values_(std::move(values)) {}

  int rows_ = 0;
  int topics_ = 0;
  std::vector<int64_t> col_offsets_;  // size topics_ + 1
  std::vector<int> ids_;              // sorted ascending within each column
  std::vector<double> values_;        // parallel to ids_, all > 0
};

}  // namespace wgrap::sparse

#endif  // WGRAP_SPARSE_TOPIC_INDEX_H_
