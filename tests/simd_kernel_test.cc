// Backend equivalence fuzz for the simd/kernels.h layer: every kernel
// must return byte-identical results from the AVX2 and scalar backends —
// the selection kernels for ANY input (NaN, ±inf, ±0.0, denormals,
// adversarial ties), the accumulating kernels for any input whose sum
// does not manufacture a NaN from infinities (see FiniteNastyDouble).
// Doubles are compared by bit pattern, never by ==, so a
// -0.0-vs-+0.0 or NaN-payload divergence fails loudly. When the build
// carries no AVX2 backend (a non-x86 target), the cross-backend
// cases vanish and only the scalar-reference properties remain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace wgrap::simd {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Adversarial double stream: mostly smooth values, salted with exact
// ties, signed zeros, NaNs, infinities and denormals — the cases where
// naive vectorization (VMAXPD, reordered sums) diverges from scalar code.
double NastyDouble(Rng* rng) {
  switch (rng->NextInt(0, 11)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return std::numeric_limits<double>::infinity();
    case 4:
      return -std::numeric_limits<double>::infinity();
    case 5:
      return std::numeric_limits<double>::denorm_min();
    case 6:
      return 0.5;  // frequent exact ties
    case 7:
      return -0.5;
    default:
      return 2.0 * rng->NextDouble() - 1.0;
  }
}

std::vector<double> NastyVector(int n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = NastyDouble(rng);
  return v;
}

// NastyDouble minus the infinities, for the ACCUMULATING kernels. Their
// byte-identity contract excludes sums whose intermediates manufacture a
// NaN from opposite-signed infinities: the sign/payload of an
// invalid-operation NaN depends on which operand the compiler places
// first in the commutative `+`, which the language does not pin down and
// which in fact differs between the SSE and AVX translation units here.
// Input NaNs stay in the stream — propagating a single quiet-NaN payload
// is order-independent — as do signed zeros, denormals and exact ties.
// Solver inputs are validated finite, so nothing real is lost. The
// pure-selection kernels (max-fold, filter, top-two, merge) keep the
// full stream, infinities included.
double FiniteNastyDouble(Rng* rng) {
  const double v = NastyDouble(rng);
  if (std::isinf(v)) return v > 0 ? 1e30 : -1e30;
  return v;
}

std::vector<double> FiniteNastyVector(int n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = FiniteNastyDouble(rng);
  return v;
}

// The AddColumnGainTerms streams. A group max g: 0 (nothing assigned at
// the topic), an exact tie value, a denormal or a random weight.
double ColumnGroupMax(Rng* rng) {
  switch (rng->NextInt(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return 0.5;
    case 2:
      return std::numeric_limits<double>::denorm_min();
    default:
      return rng->NextDouble();
  }
}

// A paper weight: 0 (cD's rejected topic), g itself (the c/cP boundary),
// or a random weight.
double ColumnPaperWeight(double g, Rng* rng) {
  switch (rng->NextInt(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return g;
    default:
      return rng->NextDouble();
  }
}

// One lane of a dense column: exactly g (gated out), the next double above
// g (gated in), exactly p (the r >= p boundary of c, cR and cP), 0, -0.0,
// ±inf and NaN (unless `finite`), or a random weight. A finite lane is a
// valid reviewer weight except for -0.0.
double ColumnLane(double g, double p, bool finite, Rng* rng) {
  switch (rng->NextInt(0, finite ? 6 : 9)) {
    case 0:
      return g;
    case 1:
      return std::nextafter(g, std::numeric_limits<double>::infinity());
    case 2:
      return p;
    case 3:
      return 0.0;
    case 4:
      return -0.0;
    case 5:
    case 6:
      return rng->NextDouble();
    case 7:
      return std::numeric_limits<double>::infinity();
    case 8:
      return -std::numeric_limits<double>::infinity();
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

// A row-pass running sum: +0.0 or a finite positive gain, never -0.0.
double RunningGain(Rng* rng) {
  return rng->NextInt(0, 2) == 0 ? 0.0 : rng->NextDouble();
}

constexpr core::ScoringFunction kAllFunctions[] = {
    core::ScoringFunction::kWeightedCoverage,
    core::ScoringFunction::kReviewerCoverage,
    core::ScoringFunction::kPaperCoverage,
    core::ScoringFunction::kDotProduct,
};

// Lengths straddling every vector-width boundary: scalar-only tails,
// exactly one lane, lane + tail, multiple 8-wide blocks.
constexpr int kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                            31, 32, 33, 63, 64, 100, 257};

#if defined(WGRAP_SIMD_HAVE_AVX2)

TEST(SimdKernelTest, ScoreSumBackendsAreByteIdentical) {
  Rng rng(2);
  for (const auto f : kAllFunctions) {
    for (const int n : kLengths) {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<double> e = FiniteNastyVector(n, &rng);
        const std::vector<double> p = FiniteNastyVector(n, &rng);
        const double s = scalar::ScoreSum(f, e.data(), p.data(), n);
        const double v = avx2::ScoreSum(f, e.data(), p.data(), n);
        ASSERT_EQ(Bits(s), Bits(v))
            << "f=" << static_cast<int>(f) << " n=" << n << " rep=" << rep;
      }
    }
  }
}

// One Definition 8 topic (group max g, reviewer r, paper p) of a
// MarginalGainSum block. Gated out: an r == g tie, r below g, or a ±0.0
// pair (-0.0 <= +0.0 and +0.0 <= -0.0 both hold). Gated in: the next
// double above g, g plus a weight, a denormal over ±0.0, or a NaN r (the
// gate lets NaN through). p is 0 on about a quarter of the lanes, else
// r, g (the c/cR/cP boundaries) or a weight.
struct GainLane {
  double g, r, p;
};

GainLane MakeGainLane(bool gated_in, Rng* rng) {
  GainLane lane;
  lane.g = rng->NextInt(0, 2) == 0 ? 0.5 : rng->NextDouble();
  if (gated_in) {
    switch (rng->NextInt(0, 4)) {
      case 0:
        lane.r = std::nextafter(lane.g, 2.0);
        break;
      case 1:
        lane.g = rng->NextInt(0, 1) == 0 ? 0.0 : -0.0;
        lane.r = std::numeric_limits<double>::denorm_min();
        break;
      case 2:
        lane.r = std::numeric_limits<double>::quiet_NaN();
        break;
      default:
        lane.r = lane.g + rng->NextDouble();
    }
  } else {
    switch (rng->NextInt(0, 3)) {
      case 0:
        lane.r = lane.g;
        break;
      case 1:
        lane.g = 0.0;
        lane.r = -0.0;
        break;
      case 2:
        lane.g = -0.0;
        lane.r = 0.0;
        break;
      default:
        lane.r = lane.g * rng->NextDouble();
    }
  }
  switch (rng->NextInt(0, 3)) {
    case 0:
      lane.p = 0.0;
      break;
    case 1:
      lane.p = rng->NextInt(0, 1) == 0 ? lane.r : lane.g;
      break;
    default:
      lane.p = rng->NextDouble();
  }
  return lane;
}

// FiniteNastyDouble streams at kLengths, then every length 0..67 (each
// tail, one to sixteen blocks) under all four scorings with each 4-lane
// block holding all, none or some lanes gated in, or FiniteNastyDouble
// lanes. A sum starts at +0.0, so a gated-out block at the start adds
// +0.0 to +0.0.
TEST(SimdKernelTest, MarginalGainSumBackendsAreByteIdentical) {
  Rng rng(3);
  for (const auto f : kAllFunctions) {
    for (const int n : kLengths) {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<double> g = FiniteNastyVector(n, &rng);
        const std::vector<double> r = FiniteNastyVector(n, &rng);
        const std::vector<double> p = FiniteNastyVector(n, &rng);
        const double s =
            scalar::MarginalGainSum(f, g.data(), r.data(), p.data(), n);
        const double v =
            avx2::MarginalGainSum(f, g.data(), r.data(), p.data(), n);
        ASSERT_EQ(Bits(s), Bits(v))
            << "f=" << static_cast<int>(f) << " n=" << n << " rep=" << rep;
      }
    }
  }
  for (const auto f : kAllFunctions) {
    for (int n = 0; n <= 67; ++n) {
      for (int rep = 0; rep < 16; ++rep) {
        std::vector<double> g(n), r(n), p(n);
        int block_mode = 0;
        for (int t = 0; t < n; ++t) {
          if (t % 4 == 0) block_mode = rng.NextInt(0, 3);
          if (block_mode == 3) {
            g[t] = FiniteNastyDouble(&rng);
            r[t] = FiniteNastyDouble(&rng);
            p[t] = FiniteNastyDouble(&rng);
            continue;
          }
          const bool gated_in =
              block_mode == 1 || (block_mode == 2 && rng.NextInt(0, 1) == 0);
          const GainLane lane = MakeGainLane(gated_in, &rng);
          g[t] = lane.g;
          r[t] = lane.r;
          p[t] = lane.p;
        }
        const double s =
            scalar::MarginalGainSum(f, g.data(), r.data(), p.data(), n);
        const double v =
            avx2::MarginalGainSum(f, g.data(), r.data(), p.data(), n);
        ASSERT_EQ(Bits(s), Bits(v))
            << "f=" << static_cast<int>(f) << " n=" << n << " rep=" << rep;
      }
    }
  }
}

TEST(SimdKernelTest, AddColumnGainTermsBackendsAreByteIdentical) {
  Rng rng(12);
  for (const auto f : kAllFunctions) {
    for (int n = 0; n <= 67; ++n) {
      for (int rep = 0; rep < 12; ++rep) {
        const double g = ColumnGroupMax(&rng);
        const double p = ColumnPaperWeight(g, &rng);
        std::vector<double> column(n);
        for (double& x : column) x = ColumnLane(g, p, /*finite=*/false, &rng);
        std::vector<double> out_s(n);
        for (double& x : out_s) x = RunningGain(&rng);
        std::vector<double> out_v = out_s;
        scalar::AddColumnGainTerms(f, column.data(), n, g, p, out_s.data());
        avx2::AddColumnGainTerms(f, column.data(), n, g, p, out_v.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(out_s[i]), Bits(out_v[i]))
              << "f=" << static_cast<int>(f) << " n=" << n << " rep=" << rep
              << " lane=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, FilterGreaterThanBackendsAreIdentical) {
  Rng rng(4);
  for (const int n : kLengths) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<double> v = NastyVector(n, &rng);
      // Thresholds include the auction's forbidden sentinel and values
      // that tie exactly with stream elements.
      const double thresholds[] = {-5e5, 0.0, -0.0, 0.5,
                                   std::numeric_limits<double>::quiet_NaN()};
      for (const double threshold : thresholds) {
        std::vector<int> out_s(n + 1, -7);
        std::vector<int> out_v(n + 1, -7);
        const int ns = scalar::FilterGreaterThan(v.data(), n, threshold,
                                                 out_s.data());
        const int nv = avx2::FilterGreaterThan(v.data(), n, threshold,
                                               out_v.data());
        ASSERT_EQ(ns, nv) << "n=" << n << " rep=" << rep;
        for (int i = 0; i < ns; ++i) {
          ASSERT_EQ(out_s[i], out_v[i]) << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, TopTwoReducedBackendsAreIdentical) {
  Rng rng(5);
  constexpr int64_t kNoPrice = std::numeric_limits<int64_t>::max();
  for (const int n : kLengths) {
    for (int rep = 0; rep < 40; ++rep) {
      const int agents = std::max(1, n + rng.NextInt(0, 5));
      std::vector<int64_t> price(agents);
      for (int64_t& p : price) {
        // Many empty agents, many exact price ties, occasional huge
        // prices driving the reduced value negative.
        const int kind = rng.NextInt(0, 5);
        p = kind == 0   ? kNoPrice
            : kind == 1 ? 0
                        : static_cast<int64_t>(rng.NextBounded(1000)) *
                              (kind == 2 ? 1'000'000'007LL : 1);
      }
      std::vector<int64_t> values(n);
      std::vector<int> ids(n);
      for (int k = 0; k < n; ++k) {
        // Tie-heavy values: a handful of distinct magnitudes.
        values[k] = static_cast<int64_t>(rng.NextBounded(8)) * 1'000'000LL;
        ids[k] = rng.NextInt(0, agents - 1);
      }
      const TopTwo s = scalar::TopTwoReduced(values.data(), ids.data(), n,
                                             price.data(), kNoPrice);
      const TopTwo v = avx2::TopTwoReduced(values.data(), ids.data(), n,
                                           price.data(), kNoPrice);
      ASSERT_EQ(s.best, v.best) << "n=" << n << " rep=" << rep;
      ASSERT_EQ(s.second, v.second) << "n=" << n << " rep=" << rep;
      ASSERT_EQ(s.index, v.index) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(SimdKernelTest, TopTwoNegPriceBackendsAreIdentical) {
  Rng rng(6);
  constexpr int64_t kNoPrice = std::numeric_limits<int64_t>::max();
  for (const int n : kLengths) {
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<int64_t> price(n);
      for (int64_t& p : price) {
        const int kind = rng.NextInt(0, 3);
        p = kind == 0 ? kNoPrice
                      : static_cast<int64_t>(rng.NextBounded(6));  // ties
      }
      const TopTwo s = scalar::TopTwoNegPrice(price.data(), n, kNoPrice);
      const TopTwo v = avx2::TopTwoNegPrice(price.data(), n, kNoPrice);
      ASSERT_EQ(s.best, v.best) << "n=" << n << " rep=" << rep;
      ASSERT_EQ(s.second, v.second) << "n=" << n << " rep=" << rep;
      ASSERT_EQ(s.index, v.index) << "n=" << n << " rep=" << rep;
    }
  }
}

// JV dist stream: parked and unreached lanes, a few tied small values,
// and occasional extremes whose wrapping sums must agree across backends.
int64_t JvDist(Rng* rng) {
  switch (rng->NextInt(0, 7)) {
    case 0:
      return kJvParked;
    case 1:
      return std::numeric_limits<int64_t>::max();  // unreached
    case 2:
      return static_cast<int64_t>(rng->NextU64());
    default:
      return static_cast<int64_t>(rng->NextBounded(6)) - 2;  // ties
  }
}

TEST(SimdKernelTest, JvRelaxBackendsAreIdentical) {
  Rng rng(7);
  for (const int n : kLengths) {
    for (int rep = 0; rep < 60; ++rep) {
      std::vector<int64_t> row(n), v(n), dist0(n);
      std::vector<int> pred0(n);
      for (int a = 0; a < n; ++a) {
        const int kind = rng.NextInt(0, 5);
        row[a] = kind == 0   ? -1  // kNoEdge
                 : kind == 1 ? -static_cast<int64_t>(rng.NextBounded(9)) - 1
                 : kind == 2 ? static_cast<int64_t>(rng.NextU64())
                             : static_cast<int64_t>(rng.NextBounded(4));
        v[a] = rng.NextInt(0, 9) == 0
                   ? static_cast<int64_t>(rng.NextU64())
                   : -static_cast<int64_t>(rng.NextBounded(4));
        dist0[a] = JvDist(&rng);
        pred0[a] = rng.NextInt(-1, 50);
      }
      const int64_t base = rng.NextInt(0, 9) == 0
                               ? static_cast<int64_t>(rng.NextU64())
                               : static_cast<int64_t>(rng.NextBounded(5)) - 2;
      const int t = rng.NextInt(0, 1000);
      std::vector<int64_t> dist_s = dist0, dist_v = dist0;
      std::vector<int> pred_s = pred0, pred_v = pred0;
      scalar::JvRelax(row.data(), v.data(), dist_s.data(), pred_s.data(), n,
                      base, t);
      avx2::JvRelax(row.data(), v.data(), dist_v.data(), pred_v.data(), n,
                    base, t);
      ASSERT_EQ(dist_s, dist_v) << "n=" << n << " rep=" << rep;
      ASSERT_EQ(pred_s, pred_v) << "n=" << n << " rep=" << rep;
      for (int a = 0; a < n; ++a) {
        if (dist0[a] == kJvParked) {
          ASSERT_EQ(dist_s[a], kJvParked) << a;
        }
        if (row[a] < 0) {
          ASSERT_EQ(pred_s[a], pred0[a]) << a;
        }
      }
    }
  }
}

TEST(SimdKernelTest, JvMinDistBackendsAreIdentical) {
  Rng rng(8);
  for (const int n : kLengths) {
    for (int rep = 0; rep < 60; ++rep) {
      std::vector<int64_t> dist(n);
      for (int64_t& d : dist) d = JvDist(&rng);
      if (rep % 10 == 0) dist.assign(n, kJvParked);  // nothing in play
      ASSERT_EQ(scalar::JvMinDist(dist.data(), n),
                avx2::JvMinDist(dist.data(), n))
          << "n=" << n << " rep=" << rep;
    }
  }
}

#endif  // WGRAP_SIMD_HAVE_AVX2

// The row pass's contract for heavy columns: the dense kernel over a
// column with its zeros in place leaves every running sum with the bits
// the CSC id walk (Instance::GainRow's light-column loop) gives.
TEST(SimdKernelTest, AddColumnGainTermsMatchesTheIdWalk) {
  Rng rng(13);
  for (const auto f : kAllFunctions) {
    for (int n = 0; n <= 67; ++n) {
      for (int rep = 0; rep < 12; ++rep) {
        const double g = ColumnGroupMax(&rng);
        const double p = ColumnPaperWeight(g, &rng);
        std::vector<double> column(n);
        std::vector<int> ids;
        for (int i = 0; i < n; ++i) {
          const double x = ColumnLane(g, p, /*finite=*/true, &rng);
          if (x > 0.0) {
            column[i] = x;  // zero lanes stay +0.0, as in DenseColumn
            ids.push_back(i);
          }
        }
        std::vector<double> walk(n);
        for (double& x : walk) x = RunningGain(&rng);
        std::vector<double> dense = walk;
        std::vector<double> dispatched = walk;
        const double base = core::TopicContribution(f, g, p);
        for (const int i : ids) {
          if (column[i] <= g) continue;
          walk[i] += core::TopicContribution(f, column[i], p) - base;
        }
        scalar::AddColumnGainTerms(f, column.data(), n, g, p, dense.data());
        AddColumnGainTerms(f, column.data(), n, g, p, dispatched.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(walk[i]), Bits(dense[i]))
              << "f=" << static_cast<int>(f) << " n=" << n << " lane=" << i;
          ASSERT_EQ(Bits(walk[i]), Bits(dispatched[i]))
              << "f=" << static_cast<int>(f) << " n=" << n << " lane=" << i;
        }
      }
    }
  }
}

// The scalar JV kernels are the reference every backend must match.
TEST(SimdKernelTest, JvScalarKernelsSkipParkedAndNoEdgeLanes) {
  const int64_t unreached = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> row = {-1, 5, 5, 0, 2};
  const std::vector<int64_t> v = {0, 0, -1, 0, 0};
  std::vector<int64_t> dist = {unreached, kJvParked, unreached, 3, 4};
  std::vector<int> pred = {9, 9, 9, 9, 9};
  scalar::JvRelax(row.data(), v.data(), dist.data(), pred.data(), 5,
                  /*base=*/2, /*t=*/1);
  EXPECT_EQ(dist, (std::vector<int64_t>{unreached, kJvParked, 8, 2, 4}));
  EXPECT_EQ(pred, (std::vector<int>{9, 9, 1, 1, 9}));  // 4 == 4 keeps pred
  EXPECT_EQ(scalar::JvMinDist(dist.data(), 5), 2);
  dist[3] = kJvParked;
  EXPECT_EQ(scalar::JvMinDist(dist.data(), 5), 4);
  EXPECT_EQ(scalar::JvMinDist(dist.data(), 2), unreached);
  EXPECT_EQ(scalar::JvMinDist(dist.data(), 0), unreached);
}

TEST(SimdKernelTest, DispatchReportsABackendName) {
  const Backend active = ActiveBackend();
  EXPECT_TRUE(active == Backend::kScalar || active == Backend::kAvx2);
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
  EXPECT_EQ(ActiveBackendName(), BackendName(active));
#if !defined(WGRAP_SIMD_HAVE_AVX2)
  EXPECT_EQ(active, Backend::kScalar);
#endif
}

}  // namespace
}  // namespace wgrap::simd
