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
// terms in the per-pair kernel's order (core::Instance::GainRow
// is the consumer; core::Instance owns the reviewer index, keeps it
// current across online updates, and derives BBA's sorted lists from it).
//
// Heavy columns are also kept dense. A column is heavy when at least a
// kHeavyColumnDivisor-th of the rows carry the topic (every DB08 column
// holds 100 to 105 of the 105 reviewers). For those the row pass
// reads DenseColumn(t), num_rows() contiguous values with the zeros in
// place, and adds the topic for every reviewer in one vector kernel
// (simd::AddColumnGainTerms): no ids, no gather, no data-dependent branch.
// A zero entry never beats a group max, so it adds exactly +0.0. Light
// columns keep the id walk. The dense copy costs at most rows * topics
// doubles, and only for the topics that need it.
//
// A TopicIndex is immutable after construction; Column() and DenseColumn()
// views are cheap pointer views into it, valid as long as the index lives.
#ifndef WGRAP_SPARSE_TOPIC_INDEX_H_
#define WGRAP_SPARSE_TOPIC_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "sparse/sparse_matrix.h"

namespace wgrap::sparse {

/// Immutable CSC index over nonnegative topic weights: per topic, the
/// sorted row ids carrying it and their values. Exact zeros are dropped,
/// so `Column(t).nnz` is the true degree of topic t. Heavy columns are
/// also stored dense (DenseColumn).
class TopicIndex {
 public:
  /// A column is heavy when kHeavyColumnDivisor * degree >= num_rows()
  /// (and degree > 0). Picked from the row-pass microbenchmark over column
  /// density (bench_micro_substrates BM_GainColumnPass, bench/BASELINES.md):
  /// the dense kernel reads all rows, the id walk only the degree, and the
  /// dense pass wins from about a quarter of the rows up.
  static constexpr int kHeavyColumnDivisor = 4;

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

  /// Heavy column t as num_rows() values, row i at [i]: Column(t)'s values
  /// at their ids and +0.0 elsewhere. nullptr when t is light.
  const double* DenseColumn(int t) const {
    const int64_t slot = dense_slot_[t];
    return slot < 0 ? nullptr : dense_values_.data() + slot * rows_;
  }
  /// Number of heavy columns (those with a DenseColumn).
  int num_dense_columns() const {
    return rows_ == 0 ? 0
                      : static_cast<int>(dense_values_.size() / rows_);
  }

 private:
  TopicIndex(int rows, int topics, std::vector<int64_t> col_offsets,
             std::vector<int> ids, std::vector<double> values);

  int rows_ = 0;
  int topics_ = 0;
  std::vector<int64_t> col_offsets_;  // size topics_ + 1
  std::vector<int> ids_;              // sorted ascending within each column
  std::vector<double> values_;        // parallel to ids_, all > 0
  std::vector<int64_t> dense_slot_;   // per topic: dense row slot, or -1
  std::vector<double> dense_values_;  // rows_ values per heavy column
};

}  // namespace wgrap::sparse

#endif  // WGRAP_SPARSE_TOPIC_INDEX_H_
