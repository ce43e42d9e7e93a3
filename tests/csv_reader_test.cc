// Differential test of the zero-copy CSV reader (data/io.h) against the
// reader it replaced, kept here as the oracle: std::getline over an
// istringstream, one std::string per line and one per field. On the
// parser fuzzer's mangled rows and a hand-made corpus of edge cases (CRLF,
// a blank first line, no trailing newline, header only, NUL bytes, quoted
// fields with commas, "" and mid-field quotes, lone '\r', unterminated
// quotes) both readers must return the same Status, code and message, or
// a bit-identical dataset / pair list. Every input is handed to the new
// reader in a heap buffer of exactly its size, so an overread shows under
// ASan.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "data/dataset.h"
#include "data/io.h"
#include "fuzz_util.h"

namespace wgrap::data {
namespace {

// --- The oracle: the getline + SplitCsvLine reader ---------------------------

Result<std::vector<std::string>> OracleSplitCsvLine(const std::string& line,
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

Status OracleBadField(size_t row, const std::string& field,
                      const char* is_not) {
  return Status::InvalidArgument(
      StrFormat("row %zu: '%s' is %s", row, field.c_str(), is_not));
}

constexpr char kNotAnInt[] = "not an integer in int range";

Result<RapDataset> OracleDatasetFromCsv(const std::string& csv) {
  std::istringstream stream(csv);
  std::string line;
  RapDataset dataset;
  size_t row = 0;
  int num_topics = -1;
  while (std::getline(stream, line)) {
    ++row;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = OracleSplitCsvLine(line, row);
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
    std::vector<double> topics(num_topics);
    for (int t = 0; t < num_topics; ++t) {
      if (!ParseDouble((*fields)[4 + t], &topics[t])) {
        return OracleBadField(row, (*fields)[4 + t], "not a number");
      }
    }
    const std::string& kind = (*fields)[0];
    int h = 0;
    if ((kind == "reviewer" || kind == "paper") &&
        !ParseInt((*fields)[3], &h)) {
      return OracleBadField(row, (*fields)[3], kNotAnInt);
    }
    if (kind == "reviewer") {
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

Result<std::vector<std::pair<int, int>>> OracleAssignmentPairsFromCsv(
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
    auto fields = OracleSplitCsvLine(line, row);
    if (!fields.ok()) return fields.status();
    if (fields->size() != 2) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected 2 fields", row));
    }
    int p = 0;
    int r = 0;
    if (!ParseInt((*fields)[0], &p)) {
      return OracleBadField(row, (*fields)[0], kNotAnInt);
    }
    if (!ParseInt((*fields)[1], &r)) {
      return OracleBadField(row, (*fields)[1], kNotAnInt);
    }
    pairs.emplace_back(p, r);
  }
  return pairs;
}

// --- Comparison --------------------------------------------------------------

// `text` in a heap block of exactly its size, so reading past the view is
// an ASan error rather than a read of the std::string's terminator.
class ExactBuffer {
 public:
  explicit ExactBuffer(const std::string& text)
      : size_(text.size()), bytes_(new char[text.size()]) {
    if (size_ > 0) std::memcpy(bytes_.get(), text.data(), size_);
  }
  std::string_view view() const { return {bytes_.get(), size_}; }

 private:
  size_t size_;
  std::unique_ptr<char[]> bytes_;
};

std::string StatusMismatch(const Status& got, const Status& want) {
  if (got.code() == want.code() && got.message() == want.message()) return "";
  return "status '" + got.ToString() + "' vs '" + want.ToString() + "'";
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string DatasetMismatch(const Result<RapDataset>& got,
                            const Result<RapDataset>& want) {
  if (!got.ok() || !want.ok()) return StatusMismatch(got.status(),
                                                     want.status());
  if (got->num_topics != want->num_topics) return "num_topics differs";
  if (got->reviewers.size() != want->reviewers.size() ||
      got->papers.size() != want->papers.size()) {
    return "row counts differ";
  }
  for (size_t i = 0; i < want->reviewers.size(); ++i) {
    const ReviewerInfo& a = got->reviewers[i];
    const ReviewerInfo& b = want->reviewers[i];
    if (a.name != b.name || a.h_index != b.h_index ||
        !SameBits(a.topics, b.topics)) {
      return StrFormat("reviewer %zu differs", i);
    }
  }
  for (size_t i = 0; i < want->papers.size(); ++i) {
    const PaperInfo& a = got->papers[i];
    const PaperInfo& b = want->papers[i];
    if (a.title != b.title || a.venue != b.venue ||
        !SameBits(a.topics, b.topics)) {
      return StrFormat("paper %zu differs", i);
    }
  }
  return "";
}

std::string PairsMismatch(
    const Result<std::vector<std::pair<int, int>>>& got,
    const Result<std::vector<std::pair<int, int>>>& want) {
  if (!got.ok() || !want.ok()) return StatusMismatch(got.status(),
                                                     want.status());
  return *got == *want ? "" : "pair lists differ";
}

// Both readers, both schemas, on `text`.
void ExpectReadersAgree(const std::string& text, const std::string& what) {
  const ExactBuffer buffer(text);
  EXPECT_EQ(DatasetMismatch(DatasetFromCsv(buffer.view()),
                            OracleDatasetFromCsv(text)),
            "")
      << what << "\n--- input ---\n" << text;
  EXPECT_EQ(PairsMismatch(AssignmentPairsFromCsv(buffer.view()),
                          OracleAssignmentPairsFromCsv(text)),
            "")
      << what << "\n--- input ---\n" << text;
}

std::string WithCrlf(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

// --- The corpus ----------------------------------------------------------------

core::FuzzInstanceConfig Config() {
  core::FuzzInstanceConfig config;
  config.reviewers = 6;
  config.papers = 4;
  config.num_topics = 4;
  config.group_size = 2;
  config.seed = 5;
  return config;
}

const std::vector<std::string>& PairRows() {
  static const std::vector<std::string> rows = {"paper_id,reviewer_id", "0,3",
                                                "1,5", "2,0", "3,1"};
  return rows;
}

// The parser fuzzer's mangled rows (same seeds and edits), as written and
// with CRLF line ends.
TEST(CsvReaderDifferentialTest, MangledRowsMatchTheOracle) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::vector<std::string> rows =
      core::TextLines(DatasetToCsv(*dataset));
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const std::string csv = core::MangleOneLine(rows, &rng);
    const std::string pairs = core::MangleOneLine(PairRows(), &rng);
    const std::string what = "seed " + std::to_string(seed);
    ExpectReadersAgree(csv, what);
    ExpectReadersAgree(WithCrlf(csv), what + " crlf");
    ExpectReadersAgree(pairs, what);
    ExpectReadersAgree(WithCrlf(pairs), what + " crlf");
  }
}

TEST(CsvReaderDifferentialTest, EdgeCasesMatchTheOracle) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = DatasetToCsv(*dataset);
  const std::string header = csv.substr(0, csv.find('\n') + 1);
  const std::string body = csv.substr(header.size());
  const std::string pairs = StrJoin(PairRows(), "\n") + "\n";
  const std::string nul("\0", 1);
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"valid", csv},
      {"crlf", WithCrlf(csv)},
      {"no trailing newline", csv.substr(0, csv.size() - 1)},
      {"crlf, no trailing newline", WithCrlf(csv).substr(
                                        0, WithCrlf(csv).size() - 1)},
      {"blank first line", "\n" + csv},
      {"blank crlf first line", "\r\n" + csv},
      {"blank lines inside", header + "\n\n" + body + "\n\r\n"},
      {"header only", header},
      {"header only, no newline", header.substr(0, header.size() - 1)},
      {"empty", ""},
      {"newline only", "\n"},
      {"cr only", "\r"},
      {"two crs", header + "\r\r\n" + body},
      {"lone cr mid-line",
       header + "reviewer,a\rb,,1,0.1,0.2,0.3,0.4\n" + body},
      {"cr before the last field", header + "reviewer,a,,1,0.1,0.2,0.3\r,0.4\n"},
      {"nul in a name", header + "reviewer,a" + nul + "b,,1,0.1,0.2,0.3,0.4\n" +
                            body},
      {"nul in a number", header + "reviewer,a,,1,0.1" + nul +
                              "5,0.2,0.3,0.4\n" + body},
      {"nul in the kind", header + "revi" + nul + "ewer,a,,1,0.1,0.2,0.3,0.4\n"},
      {"nul in the header", "ki" + nul + "nd,name,venue,h_index,t0\n"},
      {"quoted name with commas",
       header + "reviewer,\"Doe, Jane, PhD\",,3,0.1,0.2,0.3,0.4\n" + body},
      {"quoted name with \"\"",
       header + "paper,\"The \"\"best\"\" paper\",\"V, 2008\",0,0.1,0.2,0.3,"
                "0.4\n" + body},
      {"mid-field quote",
       header + "reviewer,ab\"c,d\"e,,1,0.1,0.2,0.3,0.4\n" + body},
      {"quoted number", header + "reviewer,a,,\"7\",\"0.1\",0.2,0.3,0.4\n" +
                            body},
      {"unterminated quote", header + "reviewer,\"a,,1,0.1,0.2,0.3,0.4\n"},
      {"quote spanning lines",
       header + "reviewer,\"a\nb\",,1,0.1,0.2,0.3,0.4\n" + body},
      {"quoted header", "\"kind\",name,venue,h_index,t0,t1,t2,t3\n" + body},
      {"short header", "kind,name,venue,h_index\n"},
      {"trailing comma", header + "reviewer,a,,1,0.1,0.2,0.3,0.4,\n"},
      {"unknown kind", header + "editor,a,,1,0.1,0.2,0.3,0.4\n"},
      {"paper h_index garbage", header + "paper,a,V,x,0.1,0.2,0.3,0.4\n"},
      {"zero mass", header + "reviewer,a,,1,0,0,0,0\n" + body},
      {"negative weight", header + body + "paper,z,V,0,-1,0.2,0.3,0.4\n"},
      {"pairs", pairs},
      {"pairs crlf", WithCrlf(pairs)},
      {"pairs, blank first line", "\n" + pairs},
      {"pairs, no trailing newline", pairs.substr(0, pairs.size() - 1)},
      {"pairs, header only", "paper_id,reviewer_id"},
      {"pairs, quoted ids", "paper_id,reviewer_id\n\"1\",\"2\"\n3,\"4\"\"\"\n"},
      {"pairs, quoted comma", "paper_id,reviewer_id\n\"1,2\"\n"},
      {"pairs, nul", "paper_id,reviewer_id\n1," + nul + "2\n"},
      {"pairs, header crlf crlf", "paper_id,reviewer_id\r\r\n1,2\n"},
      {"pairs, three fields", "paper_id,reviewer_id\n1,2,3\n"},
  };
  for (const auto& [what, text] : corpus) ExpectReadersAgree(text, what);
}

// LoadDataset reads a file in one pass; what it parses must be what the
// oracle parses from the same bytes, and a missing file keeps its text.
TEST(CsvReaderDifferentialTest, LoadDatasetMatchesTheOracle) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = DatasetToCsv(*dataset);
  const std::string path = testing::TempDir() + "csv_reader_test.csv";
  for (const std::string& text :
       {csv, WithCrlf(csv), std::string(), "\n" + csv}) {
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file << text;
    }
    EXPECT_EQ(DatasetMismatch(LoadDataset(path), OracleDatasetFromCsv(text)),
              "");
  }
  std::remove(path.c_str());
  const auto missing = LoadDataset(path);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(), "cannot open " + path);
}

}  // namespace
}  // namespace wgrap::data
