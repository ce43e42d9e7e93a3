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

TEST(SimdKernelTest, MaxFoldBackendsAreByteIdentical) {
  Rng rng(1);
  for (const int n : kLengths) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<double> acc0 = NastyVector(n, &rng);
      const std::vector<double> v = NastyVector(n, &rng);
      std::vector<double> a = acc0;
      std::vector<double> b = acc0;
      scalar::MaxFold(a.data(), v.data(), n);
      avx2::MaxFold(b.data(), v.data(), n);
      for (int t = 0; t < n; ++t) {
        ASSERT_EQ(Bits(a[t]), Bits(b[t]))
            << "n=" << n << " rep=" << rep << " t=" << t << " acc=" << acc0[t]
            << " v=" << v[t];
      }
    }
  }
}

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

#endif  // WGRAP_SIMD_HAVE_AVX2

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
