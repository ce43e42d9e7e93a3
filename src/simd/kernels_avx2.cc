// AVX2 backend. Compiled with -mavx2 -mfma (this file only) and executed
// only when dispatch.cc verified the CPU supports both. Every function
// here must be byte-identical to its scalar twin in kernels_scalar.cc —
// see the per-kernel notes for why each intrinsic choice preserves that
// (the fuzz suite in tests/simd_kernel_test.cc is the enforcement).
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "simd/kernels.h"

namespace wgrap::simd {
namespace avx2 {

double ScoreSum(core::ScoringFunction f, const double* expertise,
                const double* paper, int n) {
  using core::ScoringFunction;
  // The accumulation stays strictly left-to-right (the bit-identity
  // contract); only the per-lane contribution values are vectorized, spilled
  // to `lane` and added in index order. Per-lane exactness:
  //  * kWeightedCoverage: scalar is std::min(e, p) = (p < e) ? p : e, which
  //    is exactly VMINPD(p, e) — including NaN (second operand) and the
  //    ±0.0 tie (second operand).
  //  * kReviewerCoverage / kPaperCoverage: the predicate uses _CMP_GE_OQ
  //    (false on NaN, like scalar e >= p) and the masked lane is +0.0 via
  //    AND. The scalar loop skips the add entirely; adding +0.0 instead is
  //    an identity because the running total can never be -0.0 (it starts
  //    at +0.0, and x + y == -0.0 in round-to-nearest requires both
  //    operands -0.0) — the same argument the CSR scoring kernels
  //    (src/sparse/) make for skipped topics.
  //  * kDotProduct: VMULPD is IEEE-exact per lane.
  alignas(32) double lane[4];
  double total = 0.0;
  int t = 0;
  switch (f) {
    case ScoringFunction::kWeightedCoverage:
      for (; t + 4 <= n; t += 4) {
        const __m256d e = _mm256_loadu_pd(expertise + t);
        const __m256d p = _mm256_loadu_pd(paper + t);
        _mm256_store_pd(lane, _mm256_min_pd(p, e));
        total += lane[0];
        total += lane[1];
        total += lane[2];
        total += lane[3];
      }
      for (; t < n; ++t) total += std::min(expertise[t], paper[t]);
      break;
    case ScoringFunction::kReviewerCoverage:
      for (; t + 4 <= n; t += 4) {
        const __m256d e = _mm256_loadu_pd(expertise + t);
        const __m256d p = _mm256_loadu_pd(paper + t);
        const __m256d keep = _mm256_cmp_pd(e, p, _CMP_GE_OQ);
        _mm256_store_pd(lane, _mm256_and_pd(keep, e));
        total += lane[0];
        total += lane[1];
        total += lane[2];
        total += lane[3];
      }
      for (; t < n; ++t) {
        if (expertise[t] >= paper[t]) total += expertise[t];
      }
      break;
    case ScoringFunction::kPaperCoverage:
      for (; t + 4 <= n; t += 4) {
        const __m256d e = _mm256_loadu_pd(expertise + t);
        const __m256d p = _mm256_loadu_pd(paper + t);
        const __m256d keep = _mm256_cmp_pd(e, p, _CMP_GE_OQ);
        _mm256_store_pd(lane, _mm256_and_pd(keep, p));
        total += lane[0];
        total += lane[1];
        total += lane[2];
        total += lane[3];
      }
      for (; t < n; ++t) {
        if (expertise[t] >= paper[t]) total += paper[t];
      }
      break;
    case ScoringFunction::kDotProduct:
      for (; t + 4 <= n; t += 4) {
        const __m256d e = _mm256_loadu_pd(expertise + t);
        const __m256d p = _mm256_loadu_pd(paper + t);
        _mm256_store_pd(lane, _mm256_mul_pd(e, p));
        total += lane[0];
        total += lane[1];
        total += lane[2];
        total += lane[3];
      }
      for (; t < n; ++t) total += expertise[t] * paper[t];
      break;
  }
  return total;
}

namespace {

// f(r, p) for four lanes (four rows of a column, or four topics of a gain),
// lane for lane the bits of core::TopicContribution:
//  * c:      r < p ? r : p is VMINPD(r, p), NaN and ±0.0 included (the
//            second operand wins both);
//  * cR, cP: r >= p is _CMP_GE_OQ (false on NaN), and the 0.0 arm is the
//            AND with a clear mask;
//  * cD:     VMULPD is IEEE-exact per lane.
template <core::ScoringFunction F>
inline __m256d Contribution(__m256d r, __m256d p) {
  using core::ScoringFunction;
  if constexpr (F == ScoringFunction::kWeightedCoverage) {
    return _mm256_min_pd(r, p);
  } else if constexpr (F == ScoringFunction::kReviewerCoverage) {
    return _mm256_and_pd(_mm256_cmp_pd(r, p, _CMP_GE_OQ), r);
  } else if constexpr (F == ScoringFunction::kPaperCoverage) {
    return _mm256_and_pd(_mm256_cmp_pd(r, p, _CMP_GE_OQ), p);
  } else {
    return _mm256_mul_pd(r, p);
  }
}

template <core::ScoringFunction F>
double MarginalGainSumFor(const double* group, const double* reviewer,
                          const double* paper, int n) {
  // Blocks whose gate _CMP_NLE_UQ (the exact `!(r <= g)`, NaN passes, like
  // the scalar skip) is empty for all four lanes — the common case once a
  // group is established — cost one compare. Otherwise every lane computes
  // f(r, p) − f(g, p) with Contribution's per-lane scalar bits, a
  // gated-out lane is ANDed to +0.0, and the four lanes are added left to
  // right. The gated-in lanes run the scalar operations in the scalar
  // order; a +0.0 added in place of a skipped topic is the identity
  // because the running gain starts at +0.0 and so is never -0.0 (the
  // argument AddColumnGainTerms makes). No FMA: the file builds with
  // -ffp-contract=off, so the cD arm's two VMULPDs and VSUBPD stay apart.
  alignas(32) double lane[4];
  double gain = 0.0;
  int t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d r = _mm256_loadu_pd(reviewer + t);
    const __m256d g = _mm256_loadu_pd(group + t);
    const __m256d keep = _mm256_cmp_pd(r, g, _CMP_NLE_UQ);
    if (_mm256_movemask_pd(keep) == 0) continue;
    const __m256d p = _mm256_loadu_pd(paper + t);
    _mm256_store_pd(lane, _mm256_and_pd(keep,
                                        _mm256_sub_pd(Contribution<F>(r, p),
                                                      Contribution<F>(g, p))));
    gain += lane[0];
    gain += lane[1];
    gain += lane[2];
    gain += lane[3];
  }
  for (; t < n; ++t) {
    if (reviewer[t] <= group[t]) continue;
    gain += core::TopicContribution(F, reviewer[t], paper[t]) -
            core::TopicContribution(F, group[t], paper[t]);
  }
  return gain;
}

template <core::ScoringFunction F>
void AddColumnGainTermsFor(const double* column, int n, double g, double p,
                           double* out) {
  // Each lane is one row's own sum, so vectorizing across rows reorders no
  // addition. The gate _CMP_NLE_UQ is the exact `!(r <= g)` (NaN passes,
  // like scalar); a gated-out lane ANDs its term, whatever it computed, to
  // +0.0 and adds that, as the scalar ternary does.
  const double base = core::TopicContribution(F, g, p);
  const __m256d vg = _mm256_set1_pd(g);
  const __m256d vp = _mm256_set1_pd(p);
  const __m256d vbase = _mm256_set1_pd(base);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(column + i);
    const __m256d keep = _mm256_cmp_pd(r, vg, _CMP_NLE_UQ);
    const __m256d term =
        _mm256_and_pd(keep, _mm256_sub_pd(Contribution<F>(r, vp), vbase));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), term));
  }
  scalar::AddColumnGainTerms(F, column + i, n - i, g, p, out + i);
}

}  // namespace

double MarginalGainSum(core::ScoringFunction f, const double* group,
                       const double* reviewer, const double* paper, int n) {
  using core::ScoringFunction;
  switch (f) {  // one switch per call, not one per term
    case ScoringFunction::kWeightedCoverage:
      return MarginalGainSumFor<ScoringFunction::kWeightedCoverage>(
          group, reviewer, paper, n);
    case ScoringFunction::kReviewerCoverage:
      return MarginalGainSumFor<ScoringFunction::kReviewerCoverage>(
          group, reviewer, paper, n);
    case ScoringFunction::kPaperCoverage:
      return MarginalGainSumFor<ScoringFunction::kPaperCoverage>(
          group, reviewer, paper, n);
    case ScoringFunction::kDotProduct:
      return MarginalGainSumFor<ScoringFunction::kDotProduct>(
          group, reviewer, paper, n);
  }
  return 0.0;
}

void AddColumnGainTerms(core::ScoringFunction f, const double* column, int n,
                        double g, double p, double* out) {
  using core::ScoringFunction;
  switch (f) {
    case ScoringFunction::kWeightedCoverage:
      return AddColumnGainTermsFor<ScoringFunction::kWeightedCoverage>(
          column, n, g, p, out);
    case ScoringFunction::kReviewerCoverage:
      return AddColumnGainTermsFor<ScoringFunction::kReviewerCoverage>(
          column, n, g, p, out);
    case ScoringFunction::kPaperCoverage:
      return AddColumnGainTermsFor<ScoringFunction::kPaperCoverage>(
          column, n, g, p, out);
    case ScoringFunction::kDotProduct:
      return AddColumnGainTermsFor<ScoringFunction::kDotProduct>(
          column, n, g, p, out);
  }
}

int FilterGreaterThan(const double* values, int n, double threshold,
                      int* out_indices) {
  // `values[i] > threshold` as the exact complement of the scalar
  // `values[i] <= threshold` skip: _CMP_NLE_UQ, so NaN passes the filter
  // on both backends. Indices come out ascending either way.
  const __m256d thr = _mm256_set1_pd(threshold);
  int count = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(v, thr, _CMP_NLE_UQ));
    if (mask == 0) continue;
    if (mask == 0xF) {
      out_indices[count] = i;
      out_indices[count + 1] = i + 1;
      out_indices[count + 2] = i + 2;
      out_indices[count + 3] = i + 3;
      count += 4;
      continue;
    }
    for (int l = 0; l < 4; ++l) {
      if ((mask >> l) & 1) out_indices[count++] = i + l;
    }
  }
  for (; i < n; ++i) {
    if (!(values[i] <= threshold)) out_indices[count++] = i;
  }
  return count;
}

namespace {

// Shared top-two machinery: per-lane (best, second, best-position)
// running selection with the scalar strictly-greater update, then a
// cross-lane combine by (value desc, position asc) — which reproduces the
// sequential scan's tie resolution exactly, because the true global
// second-best is always among {lane bests not chosen} ∪ {lane seconds}.
struct LaneTopTwo {
  __m256i best = _mm256_set1_epi64x(kTopTwoNoValue);
  __m256i second = _mm256_set1_epi64x(kTopTwoNoValue);
  __m256i pos = _mm256_set1_epi64x(-1);

  inline void Update(__m256i v1, __m256i lane_pos) {
    const __m256i gt = _mm256_cmpgt_epi64(v1, best);
    const __m256i gts = _mm256_cmpgt_epi64(v1, second);
    const __m256i second_cand = _mm256_blendv_epi8(second, v1, gts);
    second = _mm256_blendv_epi8(second_cand, best, gt);
    best = _mm256_blendv_epi8(best, v1, gt);
    pos = _mm256_blendv_epi8(pos, lane_pos, gt);
  }

  TopTwo Combine() const {
    alignas(32) int64_t b[4];
    alignas(32) int64_t s[4];
    alignas(32) int64_t p[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(b), best);
    _mm256_store_si256(reinterpret_cast<__m256i*>(s), second);
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), pos);
    TopTwo top;
    for (int l = 0; l < 4; ++l) {
      if (b[l] == kTopTwoNoValue) continue;
      if (b[l] > top.best ||
          (b[l] == top.best && p[l] < static_cast<int64_t>(top.index))) {
        if (top.best > top.second) top.second = top.best;
        top.best = b[l];
        top.index = static_cast<int>(p[l]);
      } else if (b[l] > top.second) {
        top.second = b[l];
      }
      if (s[l] > top.second) top.second = s[l];
    }
    return top;
  }
};

// Continue a finished vector scan over the scalar tail [k, n). Tail
// positions all exceed the vector positions, so the plain strictly-greater
// update keeps the lowest-position tie rule intact.
inline void ScalarTailUpdate(TopTwo* top, int64_t v1, int k) {
  if (v1 > top->best) {
    top->second = top->best;
    top->best = v1;
    top->index = k;
  } else if (v1 > top->second) {
    top->second = v1;
  }
}

}  // namespace

TopTwo TopTwoReduced(const int64_t* values, const int* agent_ids, int n,
                     const int64_t* price, int64_t no_price) {
  if (n < 8) return scalar::TopTwoReduced(values, agent_ids, n, price,
                                          no_price);
  const __m256i vnoprice = _mm256_set1_epi64x(no_price);
  const __m256i vnoval = _mm256_set1_epi64x(kTopTwoNoValue);
  const __m256i vinc = _mm256_set1_epi64x(4);
  __m256i vpos = _mm256_set_epi64x(3, 2, 1, 0);
  LaneTopTwo lanes;
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    // Four scalar loads, not VPGATHERQQ: the microcoded gather is slower
    // than discrete loads on most cores (and far slower where the
    // Downfall mitigation applies); the values are identical either way.
    const __m256i p =
        _mm256_set_epi64x(price[agent_ids[k + 3]], price[agent_ids[k + 2]],
                          price[agent_ids[k + 1]], price[agent_ids[k]]);
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + k));
    // Wrapping subtraction is fine: lanes where the agent has no slots
    // (price == no_price) are blended to the sentinel before ranking.
    const __m256i skip = _mm256_cmpeq_epi64(p, vnoprice);
    const __m256i v1 =
        _mm256_blendv_epi8(_mm256_sub_epi64(v, p), vnoval, skip);
    lanes.Update(v1, vpos);
    vpos = _mm256_add_epi64(vpos, vinc);
  }
  TopTwo top = lanes.Combine();
  for (; k < n; ++k) {
    const int64_t p = price[agent_ids[k]];
    if (p == no_price) continue;
    ScalarTailUpdate(&top, values[k] - p, k);
  }
  return top;
}

TopTwo TopTwoNegPrice(const int64_t* price, int n, int64_t no_price) {
  if (n < 8) return scalar::TopTwoNegPrice(price, n, no_price);
  const __m256i vnoprice = _mm256_set1_epi64x(no_price);
  const __m256i vnoval = _mm256_set1_epi64x(kTopTwoNoValue);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vinc = _mm256_set1_epi64x(4);
  __m256i vpos = _mm256_set_epi64x(3, 2, 1, 0);
  LaneTopTwo lanes;
  int a = 0;
  for (; a + 4 <= n; a += 4) {
    const __m256i p = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(price + a));
    const __m256i skip = _mm256_cmpeq_epi64(p, vnoprice);
    const __m256i v1 =
        _mm256_blendv_epi8(_mm256_sub_epi64(vzero, p), vnoval, skip);
    lanes.Update(v1, vpos);
    vpos = _mm256_add_epi64(vpos, vinc);
  }
  TopTwo top = lanes.Combine();
  for (; a < n; ++a) {
    if (price[a] == no_price) continue;
    ScalarTailUpdate(&top, -price[a], a);
  }
  return top;
}

void JvRelax(const int64_t* row, const int64_t* v, int64_t* dist, int* pred,
             int n, int64_t base, int t) {
  // VPADDQ/VPSUBQ wrap like the scalar backend's unsigned sum. The 64-bit
  // take mask is narrowed to the four 32-bit pred lanes by picking the
  // low dword of each qword (both dwords of a mask qword are equal).
  const __m256i vbase = _mm256_set1_epi64x(base);
  const __m256i vnoedge = _mm256_set1_epi64x(-1);
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i vt = _mm_set1_epi32(t);
  int a = 0;
  for (; a + 4 <= n; a += 4) {
    const __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row + a));
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + a));
    const __m256i d = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(dist + a));
    const __m256i nd = _mm256_sub_epi64(_mm256_add_epi64(vbase, c), va);
    const __m256i take = _mm256_and_si256(_mm256_cmpgt_epi64(c, vnoedge),
                                          _mm256_cmpgt_epi64(d, nd));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dist + a),
                        _mm256_blendv_epi8(d, nd, take));
    const __m128i take32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(take, narrow));
    const __m128i p =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pred + a));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pred + a),
                     _mm_blendv_epi8(p, vt, take32));
  }
  scalar::JvRelax(row + a, v + a, dist + a, pred + a, n - a, base, t);
}

int64_t JvMinDist(const int64_t* dist, int n) {
  // No VPMINSQ before AVX-512: the min is compare + blend. Parked lanes
  // are blended to INT64_MAX first, the value an all-parked scan returns.
  const __m256i vparked = _mm256_set1_epi64x(kJvParked);
  const __m256i vmax =
      _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  const auto unparked = [&](const int64_t* p) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return _mm256_blendv_epi8(d, vmax, _mm256_cmpeq_epi64(d, vparked));
  };
  const auto lane_min = [](__m256i x, __m256i y) {
    return _mm256_blendv_epi8(x, y, _mm256_cmpgt_epi64(x, y));
  };
  __m256i m0 = vmax;
  __m256i m1 = vmax;
  int a = 0;
  for (; a + 8 <= n; a += 8) {
    m0 = lane_min(m0, unparked(dist + a));
    m1 = lane_min(m1, unparked(dist + a + 4));
  }
  if (a + 4 <= n) {
    m0 = lane_min(m0, unparked(dist + a));
    a += 4;
  }
  alignas(32) int64_t lane[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), lane_min(m0, m1));
  int64_t m = scalar::JvMinDist(dist + a, n - a);
  for (const int64_t x : lane) m = std::min(m, x);
  return m;
}

}  // namespace avx2
}  // namespace wgrap::simd
