#include "data/io.h"

#include <charconv>
#include <cstring>
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

// Splits one CSV line honouring quoted fields: a '"' opens or closes a
// quoted run anywhere in a field, "" inside one is a literal quote, and a
// ',' inside one is data. Only lines holding a quote come here.
Status SplitQuotedLine(std::string_view line, size_t row,
                       std::vector<std::string>* fields) {
  fields->clear();
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
      fields->push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        StrFormat("row %zu: unterminated quoted field", row));
  }
  fields->push_back(std::move(current));
  return Status::OK();
}

// Walks a CSV buffer line by line and splits lines into fields without
// copying: see the grammar in io.h. The views it hands out live until the
// next NextLine/Split call.
class CsvReader {
 public:
  explicit CsvReader(std::string_view text) : text_(text) {}

  // The next line, without its '\n' and one trailing '\r'; false at the
  // end of the buffer. Every line counts toward row(), blank ones too.
  bool NextLine(std::string_view* line) {
    if (pos_ >= text_.size()) return false;
    const char* begin = text_.data() + pos_;
    const size_t left = text_.size() - pos_;
    const void* newline = std::memchr(begin, '\n', left);
    size_t length =
        newline != nullptr ? static_cast<const char*>(newline) - begin : left;
    pos_ += length + 1;
    if (length > 0 && begin[length - 1] == '\r') --length;
    *line = std::string_view(begin, length);
    ++row_;
    return true;
  }

  // 1-based number of the line NextLine returned last.
  size_t row() const { return row_; }

  // Splits `line` into fields(): views into the line when it holds no
  // '"', else views into SplitQuotedLine's unescaped copies.
  Status Split(std::string_view line) {
    fields_.clear();
    if (line.find('"') != std::string_view::npos) {
      WGRAP_RETURN_IF_ERROR(SplitQuotedLine(line, row_, &unescaped_));
      fields_.assign(unescaped_.begin(), unescaped_.end());
      return Status::OK();
    }
    for (;;) {
      const size_t comma = line.find(',');
      fields_.push_back(line.substr(0, comma));
      if (comma == std::string_view::npos) return Status::OK();
      line.remove_prefix(comma + 1);
    }
  }

  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  size_t row_ = 0;
  std::vector<std::string_view> fields_;
  std::vector<std::string> unescaped_;
};

// Topic weights are finite numbers; ids and h-indexes are whole-field
// integers in int range ("0.9", "1e10" and "nan" are errors, never a
// truncated or out-of-range conversion). Both on the number grammar of
// common/string_util.h. The field prints up to its first NUL byte, as a
// C string does.
Status BadField(size_t row, std::string_view field, const char* is_not) {
  return Status::InvalidArgument(StrFormat("row %zu: '%s' is %s", row,
                                           std::string(field).c_str(), is_not));
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

Result<RapDataset> DatasetFromCsv(std::string_view csv) {
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("io.parse"));
  CsvReader reader(csv);
  std::string_view line;
  RapDataset dataset;
  int num_topics = -1;
  while (reader.NextLine(&line)) {
    if (line.empty()) continue;
    const size_t row = reader.row();
    WGRAP_RETURN_IF_ERROR(reader.Split(line));
    const std::vector<std::string_view>& fields = reader.fields();
    if (row == 1) {
      if (fields.size() < 5 || fields[0] != "kind") {
        return Status::InvalidArgument("missing or malformed header row");
      }
      num_topics = static_cast<int>(fields.size()) - 4;
      dataset.num_topics = num_topics;
      continue;
    }
    if (static_cast<int>(fields.size()) != num_topics + 4) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected %d fields, got %zu", row,
                    num_topics + 4, fields.size()));
    }
    // "io.alloc" stands in for the per-row allocation failing (the OOM
    // path is not otherwise reachable in a test).
    WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("io.alloc"));
    std::vector<double> topics(num_topics);
    for (int t = 0; t < num_topics; ++t) {
      if (!ParseDouble(fields[4 + t], &topics[t])) {
        return BadField(row, fields[4 + t], "not a number");
      }
    }
    const std::string_view kind = fields[0];
    // Every row carries an int h_index; a paper's is unused (the writer
    // emits 0) but held to the same grammar.
    int h = 0;
    if ((kind == "reviewer" || kind == "paper") && !ParseInt(fields[3], &h)) {
      return BadField(row, fields[3], kNotAnInt);
    }
    if (kind == "reviewer") {
      dataset.reviewers.push_back(
          {std::string(fields[1]), std::move(topics), h});
    } else if (kind == "paper") {
      dataset.papers.push_back({std::string(fields[1]), std::move(topics),
                                std::string(fields[2])});
    } else {
      return Status::InvalidArgument(StrFormat(
          "row %zu: unknown kind '%s'", row, std::string(kind).c_str()));
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
  return DatasetFromCsv(buffer.view());
}

std::string AssignmentPairsToCsv(
    const std::vector<std::pair<int, int>>& pairs) {
  constexpr std::string_view kHeader = "paper_id,reviewer_id\n";
  // The longest row: two 11-character ints ("-2147483648"), ',' and '\n'.
  constexpr size_t kMaxRowBytes = 24;
  std::string out(kHeader.size() + pairs.size() * kMaxRowBytes, '\0');
  std::memcpy(out.data(), kHeader.data(), kHeader.size());
  char* cursor = out.data() + kHeader.size();
  char* const end = out.data() + out.size();
  for (const auto& [p, r] : pairs) {
    cursor = std::to_chars(cursor, end, p).ptr;
    *cursor++ = ',';
    cursor = std::to_chars(cursor, end, r).ptr;
    *cursor++ = '\n';
  }
  out.resize(static_cast<size_t>(cursor - out.data()));
  return out;
}

Result<std::vector<std::pair<int, int>>> AssignmentPairsFromCsv(
    std::string_view csv) {
  CsvReader reader(csv);
  std::string_view line;
  std::vector<std::pair<int, int>> pairs;
  while (reader.NextLine(&line)) {
    if (line.empty()) continue;
    const size_t row = reader.row();
    if (row == 1) {
      if (line != "paper_id,reviewer_id") {
        return Status::InvalidArgument("missing assignment header row");
      }
      continue;
    }
    WGRAP_RETURN_IF_ERROR(reader.Split(line));
    const std::vector<std::string_view>& fields = reader.fields();
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected 2 fields", row));
    }
    int p = 0;
    int r = 0;
    if (!ParseInt(fields[0], &p)) return BadField(row, fields[0], kNotAnInt);
    if (!ParseInt(fields[1], &r)) return BadField(row, fields[1], kNotAnInt);
    pairs.emplace_back(p, r);
  }
  return pairs;
}

}  // namespace wgrap::data
