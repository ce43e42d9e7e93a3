#include "data/io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace wgrap::data {

namespace {

// Quotes a field if it contains a comma or quote (RFC-4180 style).
std::string QuoteField(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// Splits one CSV line honouring quoted fields.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line,
                                              size_t row) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        StrFormat("row %zu: unterminated quoted field", row));
  }
  fields.push_back(std::move(current));
  return fields;
}

// Topic weights are finite numbers; ids and h-indexes are whole-field
// integers in int range ("0.9", "1e10" and "nan" are errors, never a
// truncated or out-of-range conversion). Both on the number grammar of
// common/string_util.h.
Status BadField(size_t row, const std::string& field, const char* is_not) {
  return Status::InvalidArgument(
      StrFormat("row %zu: '%s' is %s", row, field.c_str(), is_not));
}

constexpr char kNotAnInt[] = "not an integer in int range";

}  // namespace

std::string DatasetToCsv(const RapDataset& dataset) {
  std::string out = "kind,name,venue,h_index";
  for (int t = 0; t < dataset.num_topics; ++t) {
    out += StrFormat(",t%d", t);
  }
  out += "\n";
  auto append_vector = [&](const std::vector<double>& topics) {
    for (double w : topics) out += StrFormat(",%.17g", w);
    out += "\n";
  };
  for (const auto& r : dataset.reviewers) {
    out += "reviewer," + QuoteField(r.name) + "," +
           StrFormat(",%d", r.h_index);
    append_vector(r.topics);
  }
  for (const auto& p : dataset.papers) {
    out += "paper," + QuoteField(p.title) + "," + QuoteField(p.venue) + ",0";
    append_vector(p.topics);
  }
  return out;
}

Result<RapDataset> DatasetFromCsv(const std::string& csv) {
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("io.parse"));
  std::istringstream stream(csv);
  std::string line;
  RapDataset dataset;
  size_t row = 0;
  int num_topics = -1;
  while (std::getline(stream, line)) {
    ++row;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = SplitCsvLine(line, row);
    if (!fields.ok()) return fields.status();
    if (row == 1) {
      if (fields->size() < 5 || (*fields)[0] != "kind") {
        return Status::InvalidArgument("missing or malformed header row");
      }
      num_topics = static_cast<int>(fields->size()) - 4;
      dataset.num_topics = num_topics;
      continue;
    }
    if (static_cast<int>(fields->size()) != num_topics + 4) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected %d fields, got %zu", row,
                    num_topics + 4, fields->size()));
    }
    // "io.alloc" stands in for the per-row allocation failing (the OOM
    // path is not otherwise reachable in a test).
    WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("io.alloc"));
    std::vector<double> topics(num_topics);
    for (int t = 0; t < num_topics; ++t) {
      if (!ParseDouble((*fields)[4 + t], &topics[t])) {
        return BadField(row, (*fields)[4 + t], "not a number");
      }
    }
    const std::string& kind = (*fields)[0];
    if (kind == "reviewer") {
      int h = 0;
      if (!ParseInt((*fields)[3], &h)) {
        return BadField(row, (*fields)[3], kNotAnInt);
      }
      dataset.reviewers.push_back({(*fields)[1], std::move(topics), h});
    } else if (kind == "paper") {
      dataset.papers.push_back({(*fields)[1], std::move(topics),
                                (*fields)[2]});
    } else {
      return Status::InvalidArgument(
          StrFormat("row %zu: unknown kind '%s'", row, kind.c_str()));
    }
  }
  if (num_topics < 0) return Status::InvalidArgument("empty CSV");
  WGRAP_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Status SaveDataset(const RapDataset& dataset, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::NotFound("cannot open " + path + " for writing");
  file << DatasetToCsv(dataset);
  if (!file.good()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

Result<RapDataset> LoadDataset(const std::string& path) {
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("io.load"));
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DatasetFromCsv(buffer.str());
}

std::string AssignmentPairsToCsv(
    const std::vector<std::pair<int, int>>& pairs) {
  std::string out = "paper_id,reviewer_id\n";
  for (const auto& [p, r] : pairs) {
    out += StrFormat("%d,%d\n", p, r);
  }
  return out;
}

Result<std::vector<std::pair<int, int>>> AssignmentPairsFromCsv(
    const std::string& csv) {
  std::istringstream stream(csv);
  std::string line;
  std::vector<std::pair<int, int>> pairs;
  size_t row = 0;
  while (std::getline(stream, line)) {
    ++row;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (row == 1) {
      if (line != "paper_id,reviewer_id") {
        return Status::InvalidArgument("missing assignment header row");
      }
      continue;
    }
    auto fields = SplitCsvLine(line, row);
    if (!fields.ok()) return fields.status();
    if (fields->size() != 2) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected 2 fields", row));
    }
    int p = 0;
    int r = 0;
    if (!ParseInt((*fields)[0], &p)) {
      return BadField(row, (*fields)[0], kNotAnInt);
    }
    if (!ParseInt((*fields)[1], &r)) {
      return BadField(row, (*fields)[1], kNotAnInt);
    }
    pairs.emplace_back(p, r);
  }
  return pairs;
}

}  // namespace wgrap::data
