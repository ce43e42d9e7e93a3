// CSV import/export for datasets and assignments, so a program chair can
// bring real reviewer/paper vectors (e.g. produced by an external topic
// model) and export the computed assignment to their conference system.
//
// Dataset format (one header line, then one row per entity):
//   kind,name,venue,h_index,t0,t1,...,t{T-1}
// where kind is "reviewer" or "paper"; reviewers leave venue empty and
// papers leave h_index 0. Assignment format:
//   paper_id,reviewer_id
#ifndef WGRAP_DATA_IO_H_
#define WGRAP_DATA_IO_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace wgrap::data {

/// Serializes the dataset into CSV (see header comment for the schema).
std::string DatasetToCsv(const RapDataset& dataset);

/// Parses a CSV produced by DatasetToCsv (or hand-written to the same
/// schema). Fails with a row-numbered message on malformed input.
///
/// Reader grammar (shared with AssignmentPairsFromCsv): a line ends at
/// '\n' or at the end of the buffer, and one '\r' before its end is
/// dropped; rows are numbered from 1 over every line, blank ones included,
/// and blank lines are skipped. Row 1 must be the header — a blank first
/// line makes the next line a data row. Fields split on ','. A line with
/// a '"' is unescaped whole: a quote opens or closes a quoted run
/// anywhere in a field, "" inside one is a literal quote and a ',' inside
/// one is data; a quoted run never spans lines ("unterminated quoted
/// field"). Numbers go through ParseDouble / ParseInt (whole field).
///
/// Cost: one memchr pass per line and one per field; unquoted fields are
/// views into `csv`, so the only allocations are each row's topic vector
/// and name strings (plus the unescaped copies of a quoted line).
Result<RapDataset> DatasetFromCsv(std::string_view csv);

/// Writes the dataset to a file.
Status SaveDataset(const RapDataset& dataset, const std::string& path);

/// Reads a dataset from a file: one read into a string buffer, then
/// DatasetFromCsv on a view of it (no copy).
Result<RapDataset> LoadDataset(const std::string& path);

/// Serializes "paper_id,reviewer_id" rows (with header): each row is
/// printf's "%d,%d\n", written by std::to_chars into one buffer sized for
/// the longest rows up front.
std::string AssignmentPairsToCsv(
    const std::vector<std::pair<int, int>>& pairs);

/// Parses assignment pairs: the header line "paper_id,reviewer_id", then
/// two whole-field ints per row, by DatasetFromCsv's line and field
/// grammar.
Result<std::vector<std::pair<int, int>>> AssignmentPairsFromCsv(
    std::string_view csv);

}  // namespace wgrap::data

#endif  // WGRAP_DATA_IO_H_
