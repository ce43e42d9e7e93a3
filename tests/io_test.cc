// CSV I/O tests: round trips, quoting, malformed input diagnostics, file
// save/load, and assignment pair serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/io.h"
#include "data/synthetic_dblp.h"

namespace wgrap::data {
namespace {

RapDataset SmallDataset() {
  RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"Ada, L.", {0.2, 0.3, 0.5}, 12});
  dataset.reviewers.push_back({"Bob \"Bobby\" B.", {0.9, 0.05, 0.05}, 40});
  dataset.papers.push_back({"On Things, Vol. 2", {0.1, 0.1, 0.8}, "SIGTHING"});
  return dataset;
}

TEST(DatasetCsvTest, RoundTripPreservesEverything) {
  const RapDataset original = SmallDataset();
  auto parsed = DatasetFromCsv(DatasetToCsv(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_topics, 3);
  ASSERT_EQ(parsed->reviewers.size(), 2u);
  ASSERT_EQ(parsed->papers.size(), 1u);
  EXPECT_EQ(parsed->reviewers[0].name, "Ada, L.");
  EXPECT_EQ(parsed->reviewers[1].name, "Bob \"Bobby\" B.");
  EXPECT_EQ(parsed->reviewers[1].h_index, 40);
  EXPECT_EQ(parsed->papers[0].title, "On Things, Vol. 2");
  EXPECT_EQ(parsed->papers[0].venue, "SIGTHING");
  for (int t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(parsed->reviewers[0].topics[t],
                     original.reviewers[0].topics[t]);
    EXPECT_DOUBLE_EQ(parsed->papers[0].topics[t],
                     original.papers[0].topics[t]);
  }
}

TEST(DatasetCsvTest, GeneratedDatasetRoundTrips) {
  SyntheticDblpConfig config;
  config.num_topics = 10;
  auto dataset = GenerateReviewerPool(25, 15, config);
  ASSERT_TRUE(dataset.ok());
  auto parsed = DatasetFromCsv(DatasetToCsv(*dataset));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_reviewers(), 25);
  EXPECT_EQ(parsed->num_papers(), 15);
  for (int r = 0; r < 25; ++r) {
    for (int t = 0; t < 10; ++t) {
      ASSERT_DOUBLE_EQ(parsed->reviewers[r].topics[t],
                       dataset->reviewers[r].topics[t]);
    }
  }
}

TEST(DatasetCsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(DatasetFromCsv("").ok());
  EXPECT_FALSE(DatasetFromCsv("bogus,header\n").ok());
  // Wrong field count.
  EXPECT_FALSE(
      DatasetFromCsv("kind,name,venue,h_index,t0\nreviewer,x,,1\n").ok());
  // Non-numeric weight.
  EXPECT_FALSE(
      DatasetFromCsv("kind,name,venue,h_index,t0\nreviewer,x,,1,abc\n").ok());
  // Unknown kind.
  EXPECT_FALSE(
      DatasetFromCsv("kind,name,venue,h_index,t0\neditor,x,,1,0.5\n").ok());
  // Unterminated quote.
  EXPECT_FALSE(
      DatasetFromCsv("kind,name,venue,h_index,t0\nreviewer,\"x,,1,0.5\n")
          .ok());
}

TEST(DatasetCsvTest, ErrorMessagesCarryRowNumbers) {
  auto result =
      DatasetFromCsv("kind,name,venue,h_index,t0\nreviewer,x,,1,oops\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 2"), std::string::npos);
}

TEST(DatasetFileTest, SaveAndLoad) {
  const std::string path = "/tmp/wgrap_io_test_dataset.csv";
  const RapDataset original = SmallDataset();
  ASSERT_TRUE(SaveDataset(original, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->reviewers[0].name, "Ada, L.");
  std::remove(path.c_str());
}

TEST(DatasetFileTest, MissingFileReported) {
  auto result = LoadDataset("/nonexistent/nope.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(AssignmentCsvTest, RoundTrip) {
  std::vector<std::pair<int, int>> pairs = {{0, 3}, {0, 5}, {1, 2}};
  auto parsed = AssignmentPairsFromCsv(AssignmentPairsToCsv(pairs));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, pairs);
}

// The writer's bytes are printf's: the header, then "%d,%d\n" per pair,
// on an empty list, a single pair, the extreme ids (INT_MIN's row is the
// longest the buffer is sized for) and 10k seeded pairs.
TEST(AssignmentCsvTest, BytesMatchThePrintfReference) {
  const auto reference = [](const std::vector<std::pair<int, int>>& pairs) {
    std::string out = "paper_id,reviewer_id\n";
    char row[64];
    for (const auto& [p, r] : pairs) {
      std::snprintf(row, sizeof(row), "%d,%d\n", p, r);
      out += row;
    }
    return out;
  };
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  std::vector<std::vector<std::pair<int, int>>> lists = {
      {},
      {{7, 42}},
      {{0, 0}, {0, kMax}, {kMax, 0}, {kMax, kMax}},
      {{kMin, kMin}, {kMin, kMax}, {-1, 9}, {10, -100}},
  };
  Rng rng(31);
  std::vector<std::pair<int, int>> many;
  for (int i = 0; i < 10'000; ++i) {
    const auto id = [&rng] {
      // Mixed widths: 1 to 10 digits.
      const int digits = rng.NextInt(1, 10);
      int64_t bound = 1;
      for (int d = 0; d < digits; ++d) bound *= 10;
      return static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(std::min<int64_t>(bound, kMax))));
    };
    const int p = id();
    many.emplace_back(p, id());
  }
  lists.push_back(std::move(many));
  for (const auto& pairs : lists) {
    EXPECT_EQ(AssignmentPairsToCsv(pairs), reference(pairs))
        << pairs.size() << " pairs";
  }
}

TEST(AssignmentCsvTest, RejectsMalformed) {
  EXPECT_FALSE(AssignmentPairsFromCsv("nope\n0,1\n").ok());
  EXPECT_FALSE(
      AssignmentPairsFromCsv("paper_id,reviewer_id\n0\n").ok());
  EXPECT_FALSE(
      AssignmentPairsFromCsv("paper_id,reviewer_id\n0,x\n").ok());
}

// Ids are whole-field integers in int range: a fractional, exponent,
// non-finite or out-of-range id is an error naming the row, never a
// truncation to some other id.
TEST(AssignmentCsvTest, RejectsNonIntegerIds) {
  for (const char* bad : {"0.9", "1e10", "nan", "inf", "2147483648",
                          "-2147483649", "", "3x", " 3", "0x10"}) {
    const auto parsed = AssignmentPairsFromCsv(
        std::string("paper_id,reviewer_id\n") + bad + ",19\n");
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("row 2"), std::string::npos);
  }
  const auto edge = AssignmentPairsFromCsv(
      "paper_id,reviewer_id\n2147483647,-2147483648\n");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ((*edge)[0], std::make_pair(2147483647, -2147483647 - 1));
}

TEST(DatasetCsvTest, RejectsNonIntegerHIndex) {
  for (const char* bad : {"1.5", "1e10", "nan", "99999999999"}) {
    const auto parsed = DatasetFromCsv(
        std::string("kind,name,venue,h_index,t0\nreviewer,x,,") + bad +
        ",0.5\npaper,y,v,0,0.5\n");
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "'";
  }
  EXPECT_TRUE(DatasetFromCsv("kind,name,venue,h_index,t0\nreviewer,x,,12,"
                             "0.5\npaper,y,v,0,0.5\n")
                  .ok());
}

// A paper row's h_index is unused but held to the reviewer rows' grammar:
// `paper,p,V,garbage,...` is a malformed row, not a silently dropped field.
TEST(DatasetCsvTest, PaperRowsRejectNonIntegerHIndex) {
  const std::string header = "kind,name,venue,h_index,t0,t1\n";
  const std::string reviewer = "reviewer,x,,1,0.5,0.5\n";
  for (const char* bad : {"garbage", "", "1.5", "+0", "99999999999"}) {
    const auto parsed = DatasetFromCsv(header + reviewer + "paper,p,V," +
                                       bad + ",0.5,0.5\n");
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().message(),
              std::string("row 3: '") + bad +
                  "' is not an integer in int range");
  }
  const auto parsed =
      DatasetFromCsv(header + reviewer + "paper,p,V,0,0.5,0.5\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->papers.size(), 1u);
}

// Topic weights and h-indexes follow the one number grammar
// (common/string_util.h): a leading blank, a '+', hex or a non-finite
// value fails the row that holds it.
TEST(DatasetCsvTest, NumberFieldsAreWholeBaseTenTokens) {
  const std::string header = "kind,name,venue,h_index,t0,t1\n";
  for (const char* bad : {" 0.5", "0.5 ", "+0.5", "0x1", "nan", "inf",
                          "1e400"}) {
    const auto parsed = DatasetFromCsv(header + "reviewer,x,,1,0.5," + bad +
                                       "\npaper,y,v,0,0.5,0.5\n");
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().message(),
              std::string("row 2: '") + bad + "' is not a number");
  }
  for (const char* bad : {"+1", " 1", "0x1"}) {
    const auto parsed = DatasetFromCsv(header + "reviewer,x,," + bad +
                                       ",0.5,0.5\npaper,y,v,0,0.5,0.5\n");
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().message(),
              std::string("row 2: '") + bad +
                  "' is not an integer in int range");
  }
}

}  // namespace
}  // namespace wgrap::data
