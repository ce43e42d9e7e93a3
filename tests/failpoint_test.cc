// The failpoint registry itself: arming, tripping, oneshot/delay actions,
// the spec grammar's error cases, and listing. Chaos behavior at the
// *sites* lives in chaos_test.cc; this suite pins the registry contract
// those schedules rely on.
#include "common/failpoint.h"

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace wgrap::failpoint {
namespace {

// Every test arms its own names and clears on both ends: the registry is
// process-global and the suite must not leak schedules across tests.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAll(); }
  void TearDown() override { DisarmAll(); }
};

TEST_F(FailpointTest, CompiledInByDefault) { EXPECT_TRUE(CompiledIn()); }

TEST_F(FailpointTest, UnarmedSiteIsOk) {
  EXPECT_TRUE(Check("never.armed").ok());
}

TEST_F(FailpointTest, ErrorActionInjectsInternalByDefault) {
  ASSERT_TRUE(Arm("site.a", "error").ok());
  const Status injected = Check("site.a");
  EXPECT_EQ(injected.code(), StatusCode::kInternal);
  EXPECT_NE(injected.message().find("site.a"), std::string::npos);
  // Not oneshot: trips again.
  EXPECT_FALSE(Check("site.a").ok());
}

TEST_F(FailpointTest, ErrorActionWithExplicitCode) {
  ASSERT_TRUE(Arm("site.a", "error:Unavailable").ok());
  EXPECT_EQ(Check("site.a").code(), StatusCode::kUnavailable);
  ASSERT_TRUE(Arm("site.b", "error:NotFound").ok());
  EXPECT_EQ(Check("site.b").code(), StatusCode::kNotFound);
}

TEST_F(FailpointTest, OneshotDisarmsAfterFirstTrip) {
  ASSERT_TRUE(Arm("site.a", "error|oneshot").ok());
  EXPECT_FALSE(Check("site.a").ok());
  EXPECT_TRUE(Check("site.a").ok());
  EXPECT_TRUE(List().empty());
}

TEST_F(FailpointTest, DelayOnlySpecTripsWithoutFailing) {
  ASSERT_TRUE(Arm("site.a", "delay:20").ok());
  Stopwatch watch;
  EXPECT_TRUE(Check("site.a").ok());
  EXPECT_GE(watch.ElapsedSeconds(), 0.015);
  ASSERT_EQ(List().size(), 1u);
  EXPECT_EQ(List()[0].trips, 1);
}

TEST_F(FailpointTest, DelayComposesWithError) {
  ASSERT_TRUE(Arm("site.a", "error:Cancelled|delay:10|oneshot").ok());
  Stopwatch watch;
  EXPECT_EQ(Check("site.a").code(), StatusCode::kCancelled);
  EXPECT_GE(watch.ElapsedSeconds(), 0.005);
  EXPECT_TRUE(Check("site.a").ok());  // oneshot consumed
}

TEST_F(FailpointTest, RearmReplacesSpec) {
  ASSERT_TRUE(Arm("site.a", "error:NotFound").ok());
  ASSERT_TRUE(Arm("site.a", "error:Unavailable").ok());
  EXPECT_EQ(Check("site.a").code(), StatusCode::kUnavailable);
  EXPECT_EQ(List().size(), 1u);
}

TEST_F(FailpointTest, DisarmRemovesAndReportsUnknown) {
  ASSERT_TRUE(Arm("site.a", "error").ok());
  EXPECT_TRUE(Disarm("site.a").ok());
  EXPECT_TRUE(Check("site.a").ok());
  EXPECT_EQ(Disarm("site.a").code(), StatusCode::kNotFound);
}

TEST_F(FailpointTest, ListIsNameSortedWithNormalizedSpecs) {
  ASSERT_TRUE(Arm("z.site", "oneshot|error").ok());
  ASSERT_TRUE(Arm("a.site", "delay:5|error:OutOfRange").ok());
  const std::vector<ArmedInfo> armed = List();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0].name, "a.site");
  EXPECT_EQ(armed[0].spec, "error:OutOfRange|delay:5");
  EXPECT_EQ(armed[1].name, "z.site");
  EXPECT_EQ(armed[1].spec, "error:Internal|oneshot");
}

TEST_F(FailpointTest, TripCountsAccumulate) {
  ASSERT_TRUE(Arm("site.a", "delay:0|error").ok());
  Check("site.a");
  Check("site.a");
  Check("site.a");
  ASSERT_EQ(List().size(), 1u);
  EXPECT_EQ(List()[0].trips, 3);
}

TEST_F(FailpointTest, ArmListArmsSeveral) {
  ASSERT_TRUE(ArmList("a=error,b=delay:1,c=error:Infeasible|oneshot").ok());
  EXPECT_EQ(List().size(), 3u);
  EXPECT_EQ(Check("c").code(), StatusCode::kInfeasible);
}

TEST_F(FailpointTest, ArmListToleratesEmptyEntries) {
  ASSERT_TRUE(ArmList("").ok());
  ASSERT_TRUE(ArmList("a=error,,b=error").ok());
  EXPECT_EQ(List().size(), 2u);
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  EXPECT_EQ(Arm("s", "").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("s", "oneshot").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("s", "explode").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("s", "error:NoSuchCode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("s", "delay:abc").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("s", "delay:-1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Arm("s", "delay:999999").code(), StatusCode::kInvalidArgument);
  // The delay is a whole base-10 token: no sign, blank or hex.
  for (const char* spec : {"delay:+5", "delay: 5", "delay:0x5", "delay:"}) {
    EXPECT_EQ(Arm("s", spec).code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_EQ(Arm("", "error").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmList("noequals").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmList("=error").code(), StatusCode::kInvalidArgument);
  // Nothing was armed by any of the rejects.
  EXPECT_TRUE(List().empty());
}

TEST_F(FailpointTest, MacroExpandsToCheck) {
  ASSERT_TRUE(Arm("macro.site", "error:OutOfRange").ok());
  EXPECT_EQ(WGRAP_INJECT_FAULT("macro.site").code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(WGRAP_INJECT_FAULT("macro.other").ok());
}

}  // namespace
}  // namespace wgrap::failpoint
