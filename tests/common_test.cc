// Unit tests for src/common: Status/Result, Rng, Matrix, string utilities,
// TablePrinter and Stopwatch/Deadline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace wgrap {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kInfeasible,
        StatusCode::kUnbounded, StatusCode::kNumericalError,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailingHelper() { return Status::Internal("boom"); }
Status PropagatingHelper() {
  WGRAP_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(99);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(5);
  for (double shape : {0.3, 1.0, 4.5}) {
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.NextGamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(11);
  const auto v = rng.NextDirichlet(30, 0.1);
  double total = 0.0;
  for (double x : v) {
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, SampleDiscreteZeroMassReturnsMinusOne) {
  Rng rng(13);
  EXPECT_EQ(rng.SampleDiscrete({0.0, 0.0}), -1);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    auto picks = rng.SampleWithoutReplacement(20, 7);
    std::set<int> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 7u);
    for (int p : picks) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 20);
    }
  }
}

TEST(MatrixTest, BasicAccessAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.Sum(), 9.0);
  m.At(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.Max(), 4.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 7.0);
}

TEST(MatrixTest, NormalizeRowsHandlesZeroMass) {
  Matrix m(2, 4, 0.0);
  m.At(0, 1) = 2.0;
  m.NormalizeRows();
  EXPECT_DOUBLE_EQ(m.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.25);  // zero row becomes uniform
}

TEST(MatrixTest, RowPointerIsContiguous) {
  Matrix m(3, 2);
  m.At(1, 0) = 5.0;
  m.At(1, 1) = 6.0;
  const double* row = m.Row(1);
  EXPECT_DOUBLE_EQ(row[0], 5.0);
  EXPECT_DOUBLE_EQ(row[1], 6.0);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, StrSplitKeepsEmptyFields) {
  const auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, StrJoinRoundTrip) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(StrJoin({}, "+"), "");
}

TEST(StringUtilTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.004), "4 ms");
  EXPECT_EQ(HumanSeconds(2.2), "2.20 s");
  EXPECT_EQ(HumanSeconds(45.6 * 60), "45.6 min");
  EXPECT_EQ(HumanSeconds(5.1 * 3600), "5.1 h");
}

TEST(StringUtilTest, SplitTokensDropsEveryRunOfBlanks) {
  EXPECT_EQ(SplitTokens("  submit s\tsolve  sdga\r\n"),
            (std::vector<std::string>{"submit", "s", "solve", "sdga"}));
  EXPECT_TRUE(SplitTokens("").empty());
  EXPECT_TRUE(SplitTokens(" \t\v\f ").empty());
}

// The one number grammar (std::from_chars rules): each table lists the
// spellings a parser takes and the ones it refuses, and a refusal leaves
// the output untouched.
template <typename T>
void ExpectGrammar(bool (*parse)(std::string_view, T*),
                   const std::vector<std::pair<std::string, T>>& accepted,
                   const std::vector<std::string>& rejected) {
  for (const auto& [text, want] : accepted) {
    T got{};
    EXPECT_TRUE(parse(text, &got)) << "'" << text << "'";
    EXPECT_EQ(got, want) << "'" << text << "'";
  }
  for (const std::string& text : rejected) {
    T got = accepted.front().second;
    EXPECT_FALSE(parse(text, &got)) << "'" << text << "'";
    EXPECT_EQ(got, accepted.front().second) << "'" << text << "'";
  }
}

// Refused by every number parser: empty, blanks, '+', hex, trailing junk.
const std::vector<std::string> kNeverANumber = {
    "", " ", " 1", "1 ", "\t1", "+1", "0x10", "1x", "1,5", "abc", "-", "--1"};

std::vector<std::string> With(std::vector<std::string> more) {
  more.insert(more.end(), kNeverANumber.begin(), kNeverANumber.end());
  return more;
}

TEST(StringUtilTest, ParseIntTable) {
  ExpectGrammar<int>(ParseInt,
                     {{"42", 42},
                      {"0", 0},
                      {"-0", 0},
                      {"007", 7},
                      {"-17", -17},
                      {"2147483647", 2147483647},
                      {"-2147483648", -2147483647 - 1}},
                     With({"2147483648", "-2147483649", "99999999999", "1.5",
                           "1e3", "nan", "inf"}));
}

TEST(StringUtilTest, ParseInt64Table) {
  ExpectGrammar<int64_t>(
      ParseInt64,
      {{"42", 42},
       {"-5", -5},
       {"9223372036854775807", INT64_MAX},
       {"-9223372036854775808", INT64_MIN}},
      With({"9223372036854775808", "-9223372036854775809", "1.0", "nan"}));
}

TEST(StringUtilTest, ParseUint64Table) {
  ExpectGrammar<uint64_t>(
      ParseUint64,
      {{"42", 42},
       {"0", 0},
       {"18446744073709551615", UINT64_MAX}},
      With({"-1", "-0", "18446744073709551616", "1.0", "1e3", "nan"}));
}

TEST(StringUtilTest, ParseDoubleTable) {
  ExpectGrammar<double>(
      ParseDouble,
      {{"2.25", 2.25},
       {"-0.5", -0.5},
       {"1e-05", 1e-05},
       {"1E3", 1000.0},
       {".5", 0.5},
       {"1.", 1.0},
       {"0.10000000000000001", 0.1},
       {"1.7976931348623157e+308", 1.7976931348623157e+308}},
      With({"nan", "-nan", "NAN", "inf", "-inf", "infinity", "1e400",
            "-1e400", "1e-400", "1e", "1e+", "0x1p3", ".", "1..2"}));
}

TEST(StringUtilTest, ParseBoolTable) {
  ExpectGrammar<bool>(ParseBool,
                      {{"true", true},
                       {"1", true},
                       {"on", true},
                       {"false", false},
                       {"0", false},
                       {"off", false}},
                      {"", "yes", "no", "TRUE", "On", " 1", "1 ", "2", "-1",
                       "+1", "0x1", "truefalse"});
}

// Every spelling the repo's writers emit (%.17g in DatasetToCsv, ostream
// precision 17 in InstanceUpdate::ToString) reads back to the same bits.
TEST(StringUtilTest, ParseDoubleRoundTripsSeventeenDigits) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double v = i < 1000 ? rng.NextDouble()
                              : std::ldexp(rng.NextDouble(), i % 600 - 300);
    double back = -1.0;
    ASSERT_TRUE(ParseDouble(StrFormat("%.17g", v), &back)) << v;
    ASSERT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << StrFormat("%.17g", v);
  }
  double subnormal = 0.0;
  ASSERT_TRUE(ParseDouble("4.9406564584124654e-324", &subnormal));
  EXPECT_EQ(subnormal, std::numeric_limits<double>::denorm_min());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.AddRow({"long-name", "1"});
  table.AddRow({"x", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| long-name | 1  |"), std::string::npos);
  EXPECT_NE(out.find("| x         | 22 |"), std::string::npos);
}

TEST(StopwatchTest, DeadlineSemantics) {
  Deadline unlimited;
  EXPECT_FALSE(unlimited.HasLimit());
  EXPECT_FALSE(unlimited.Expired());
  Deadline tiny(1e-9);
  EXPECT_TRUE(tiny.HasLimit());
  // Busy-wait a moment to let it expire.
  Stopwatch w;
  while (w.ElapsedSeconds() < 1e-4) {
  }
  EXPECT_TRUE(tiny.Expired());
}

}  // namespace
}  // namespace wgrap
