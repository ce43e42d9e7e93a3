// Vector kernels for the hot comparison/selection loops, runtime-dispatched
// between a scalar reference backend and an AVX2 backend (simd/dispatch.h).
//
// The bit-identity contract. Every kernel here returns byte-identical
// results from both backends — that is what lets the solvers call them
// without weakening the repo-wide invariant that every optimization is
// bit-identical to the path it replaces. Selection kernels honor the
// contract for ANY input, NaN and ±inf included. Accumulating kernels
// honor it for any input whose running sum never manufactures a NaN from
// opposite-signed infinities: the sign/payload of an invalid-operation
// NaN depends on which operand the compiler places first in the
// commutative add, which C++ does not pin down (solver inputs are
// validated finite, so the exclusion is theoretical). The contract is
// kept by construction, not by tolerance:
//
//  * Floating-point ACCUMULATION ORDER is never vectorized. ScoreSum and
//    MarginalGainSum add contributions strictly left-to-right, exactly
//    like the dense loops in core/scoring.cc; the AVX2 backend vectorizes
//    only the per-lane contribution values (min/cmp/mul — IEEE-exact per
//    lane) and then sums the lanes in index order. AddColumnGainTerms
//    vectorizes across independent sums instead: lane i adds one term to
//    out[i] and nothing else, so every sum keeps its own order.
//  * Comparison semantics mirror the scalar source expression, including
//    NaN and signed-zero behavior: min lanes use VMINPD, whose
//    (a < b) ? a : b semantics equal TopicContribution's kWeightedCoverage
//    ternary; predicated lanes use the exact predicate complement
//    (_CMP_NLE_UQ for `!(a <= b)`, _CMP_GE_OQ for `a >= b`).
//  * Integer kernels (top-two scans, filters, the JV relax and min) are
//    exact by nature; selections tie to the lowest index, matching the
//    scalar scan order. JvRelax's int64 sum wraps (two's complement) in
//    both backends, so it matches for any input, not only for the bounded
//    distances the JV feeds it.
//  * The JV kernels (JvRelax, JvMinDist) skip parked agents by value,
//    never by a side mask: a parked dist entry is kJvParked, which no
//    relax can undercut and the min ignores. That keeps both O(R) loops
//    of la::SolveCapacitatedAssignment free of per-agent branches.
//
// tests/simd_kernel_test.cc fuzzes every kernel across backends and fails
// on the first differing byte.
#ifndef WGRAP_SIMD_KERNELS_H_
#define WGRAP_SIMD_KERNELS_H_

#include <cstdint>
#include <limits>

#include "core/scoring.h"  // header-only: ScoringFunction + TopicContribution
#include "simd/dispatch.h"

namespace wgrap::simd {

/// Sentinel for "no candidate seen" in the top-two scans — the same value
/// the auction uses for kNoValue.
inline constexpr int64_t kTopTwoNoValue = std::numeric_limits<int64_t>::min();

/// Result of a top-two selection scan: the best and second-best candidate
/// values and the position of the best. `best == kTopTwoNoValue` means no
/// candidate survived the skip predicate (then index == -1); `second ==
/// kTopTwoNoValue` means exactly one did. Ties go to the lowest position,
/// matching a sequential scan with a strictly-greater update.
struct TopTwo {
  int64_t best = kTopTwoNoValue;
  int64_t second = kTopTwoNoValue;
  int index = -1;
};

/// A dist entry of JvRelax/JvMinDist that is out of play: an agent the
/// JV has settled, or one the scanning task already holds.
inline constexpr int64_t kJvParked = std::numeric_limits<int64_t>::min();

// Per-backend entry points. `scalar` is always compiled and is the
// reference; `avx2` exists only in x86-64 builds
// (WGRAP_SIMD_HAVE_AVX2). Call the dispatched wrappers below unless you
// are the equivalence test.
namespace scalar {
double ScoreSum(core::ScoringFunction f, const double* expertise,
                const double* paper, int n);
double MarginalGainSum(core::ScoringFunction f, const double* group,
                       const double* reviewer, const double* paper, int n);
void AddColumnGainTerms(core::ScoringFunction f, const double* column, int n,
                        double g, double p, double* out);
int FilterGreaterThan(const double* values, int n, double threshold,
                      int* out_indices);
TopTwo TopTwoReduced(const int64_t* values, const int* agent_ids, int n,
                     const int64_t* price, int64_t no_price);
TopTwo TopTwoNegPrice(const int64_t* price, int n, int64_t no_price);
void JvRelax(const int64_t* row, const int64_t* v, int64_t* dist, int* pred,
             int n, int64_t base, int t);
int64_t JvMinDist(const int64_t* dist, int n);
}  // namespace scalar

#if defined(WGRAP_SIMD_HAVE_AVX2)
namespace avx2 {
double ScoreSum(core::ScoringFunction f, const double* expertise,
                const double* paper, int n);
double MarginalGainSum(core::ScoringFunction f, const double* group,
                       const double* reviewer, const double* paper, int n);
void AddColumnGainTerms(core::ScoringFunction f, const double* column, int n,
                        double g, double p, double* out);
int FilterGreaterThan(const double* values, int n, double threshold,
                      int* out_indices);
TopTwo TopTwoReduced(const int64_t* values, const int* agent_ids, int n,
                     const int64_t* price, int64_t no_price);
TopTwo TopTwoNegPrice(const int64_t* price, int n, int64_t no_price);
void JvRelax(const int64_t* row, const int64_t* v, int64_t* dist, int* pred,
             int n, int64_t base, int t);
int64_t JvMinDist(const int64_t* dist, int n);
}  // namespace avx2
#endif  // WGRAP_SIMD_HAVE_AVX2

/// Σ_t TopicContribution(f, expertise[t], paper[t]), summed strictly in
/// ascending t — the un-normalized core of core::ScoreVectors (the caller
/// divides by paper mass).
inline double ScoreSum(core::ScoringFunction f, const double* expertise,
                       const double* paper, int n) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::ScoreSum(f, expertise, paper, n);
#endif
  return scalar::ScoreSum(f, expertise, paper, n);
}

/// The un-normalized core of core::MarginalGainVectors: for every t with
/// reviewer[t] > group[t] (exactly `!(reviewer[t] <= group[t])`, NaN
/// included), accumulates the contribution delta in ascending t. The AVX2
/// backend is templated on f (one switch per call) and skips a 4-topic
/// block whose gate is empty; otherwise it computes the four deltas with
/// per-lane scalar bits, ANDs gated-out lanes to +0.0 and adds the four
/// lanes left to right. Adding +0.0 is the identity on the running gain,
/// which starts at +0.0 and so is never -0.0; no FMA.
inline double MarginalGainSum(core::ScoringFunction f, const double* group,
                              const double* reviewer, const double* paper,
                              int n) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::MarginalGainSum(f, group, reviewer, paper, n);
#endif
  return scalar::MarginalGainSum(f, group, reviewer, paper, n);
}

/// One topic of the gain row pass (core::Instance::GainRow) for
/// every row i in [0, n): out[i] += !(column[i] <= g) ? f(column[i], p) -
/// f(g, p) : +0.0, with f = core::TopicContribution. `column` is a heavy
/// topic's dense column (sparse::TopicIndex::DenseColumn), g the group max
/// and p the paper weight at that topic. A masked lane adds +0.0, which
/// leaves any running sum that is not -0.0 unchanged, so on the row pass
/// (sums start at +0.0 and add only non-negative terms) it is the CSC
/// walk's skipped entry to the bit. AVX2 does 4 rows per step: VMINPD for
/// c, _CMP_GE_OQ masks for cR and cP, VMULPD for cD, and the _CMP_NLE_UQ
/// gate; no FMA.
inline void AddColumnGainTerms(core::ScoringFunction f, const double* column,
                               int n, double g, double p, double* out) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::AddColumnGainTerms(f, column, n, g, p, out);
#endif
  scalar::AddColumnGainTerms(f, column, n, g, p, out);
}

/// Writes the indices i with values[i] > threshold (exactly
/// `!(values[i] <= threshold)`, so NaN passes — matching the scalar
/// `if (p <= threshold) continue` filters) to out_indices, ascending.
/// Returns the count. The auction's candidate filters use this with
/// threshold = kTransportForbidden / 2.
inline int FilterGreaterThan(const double* values, int n, double threshold,
                             int* out_indices) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::FilterGreaterThan(values, n, threshold,
                                                out_indices);
#endif
  return scalar::FilterGreaterThan(values, n, threshold, out_indices);
}

/// The auction's real-unit bid scan: over k in [0, n), skip entries whose
/// agent has no slots (price[agent_ids[k]] == no_price), otherwise rank
/// candidate k by values[k] - price[agent_ids[k]]. Returns the top two
/// reduced values and the position k of the best (lowest k on ties).
inline TopTwo TopTwoReduced(const int64_t* values, const int* agent_ids,
                            int n, const int64_t* price, int64_t no_price) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::TopTwoReduced(values, agent_ids, n, price,
                                            no_price);
#endif
  return scalar::TopTwoReduced(values, agent_ids, n, price, no_price);
}

/// The auction's dummy-unit bid scan: over agents a in [0, n), skip
/// price[a] == no_price, rank by -price[a] (the cheapest slot wins,
/// lowest agent id on ties).
inline TopTwo TopTwoNegPrice(const int64_t* price, int n, int64_t no_price) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::TopTwoNegPrice(price, n, no_price);
#endif
  return scalar::TopTwoNegPrice(price, n, no_price);
}

/// The Jonker–Volgenant relax of one scanned task t: for a in [0, n),
/// with nd = base + row[a] - v[a] (wrapping), sets dist[a] = nd and
/// pred[a] = t when row[a] >= 0 (a negative cost marks no edge) and
/// nd < dist[a]. A kJvParked entry is never lowered.
inline void JvRelax(const int64_t* row, const int64_t* v, int64_t* dist,
                    int* pred, int n, int64_t base, int t) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::JvRelax(row, v, dist, pred, n, base, t);
#endif
  scalar::JvRelax(row, v, dist, pred, n, base, t);
}

/// min over dist[a] != kJvParked, a in [0, n); INT64_MAX when every entry
/// is parked or n == 0. The JV finds which agent holds it (its tie rule)
/// in a second pass.
inline int64_t JvMinDist(const int64_t* dist, int n) {
#if defined(WGRAP_SIMD_HAVE_AVX2)
  if (UseAvx2()) return avx2::JvMinDist(dist, n);
#endif
  return scalar::JvMinDist(dist, n);
}

}  // namespace wgrap::simd

#endif  // WGRAP_SIMD_KERNELS_H_
