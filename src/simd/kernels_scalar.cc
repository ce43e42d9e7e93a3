// The scalar reference backend: these are the exact loops the solvers ran
// before the kernel layer existed (core/scoring.cc, la/auction.cc,
// la/hungarian.cc), moved here so the AVX2 backend has a single source of
// truth to be byte-identical against.
#include <algorithm>
#include <cstdint>
#include <limits>

#include "simd/kernels.h"

namespace wgrap::simd {

namespace scalar {

double ScoreSum(core::ScoringFunction f, const double* expertise,
                const double* paper, int n) {
  using core::ScoringFunction;
  double total = 0.0;
  switch (f) {  // switch outside the loop keeps the hot path branch-free
    case ScoringFunction::kWeightedCoverage:
      for (int t = 0; t < n; ++t) {
        total += std::min(expertise[t], paper[t]);
      }
      break;
    case ScoringFunction::kReviewerCoverage:
      for (int t = 0; t < n; ++t) {
        if (expertise[t] >= paper[t]) total += expertise[t];
      }
      break;
    case ScoringFunction::kPaperCoverage:
      for (int t = 0; t < n; ++t) {
        if (expertise[t] >= paper[t]) total += paper[t];
      }
      break;
    case ScoringFunction::kDotProduct:
      for (int t = 0; t < n; ++t) {
        total += expertise[t] * paper[t];
      }
      break;
  }
  return total;
}

double MarginalGainSum(core::ScoringFunction f, const double* group,
                       const double* reviewer, const double* paper, int n) {
  double gain = 0.0;
  for (int t = 0; t < n; ++t) {
    if (reviewer[t] <= group[t]) continue;  // max unchanged at this topic
    gain += core::TopicContribution(f, reviewer[t], paper[t]) -
            core::TopicContribution(f, group[t], paper[t]);
  }
  return gain;
}

namespace {

template <core::ScoringFunction F>
void AddColumnGainTermsFor(const double* column, int n, double g, double p,
                           double* out) {
  const double base = core::TopicContribution(F, g, p);
  for (int i = 0; i < n; ++i) {
    const double r = column[i];
    out[i] += !(r <= g) ? core::TopicContribution(F, r, p) - base : 0.0;
  }
}

}  // namespace

void AddColumnGainTerms(core::ScoringFunction f, const double* column, int n,
                        double g, double p, double* out) {
  using core::ScoringFunction;
  switch (f) {  // one loop per scoring, as in ScoreSum
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
  int count = 0;
  for (int i = 0; i < n; ++i) {
    if (values[i] <= threshold) continue;
    out_indices[count++] = i;
  }
  return count;
}

TopTwo TopTwoReduced(const int64_t* values, const int* agent_ids, int n,
                     const int64_t* price, int64_t no_price) {
  TopTwo top;
  for (int k = 0; k < n; ++k) {
    const int64_t p = price[agent_ids[k]];
    if (p == no_price) continue;  // agent has no slots
    const int64_t v1 = values[k] - p;
    if (v1 > top.best) {
      top.second = top.best;
      top.best = v1;
      top.index = k;
    } else if (v1 > top.second) {
      top.second = v1;
    }
  }
  return top;
}

TopTwo TopTwoNegPrice(const int64_t* price, int n, int64_t no_price) {
  TopTwo top;
  for (int a = 0; a < n; ++a) {
    if (price[a] == no_price) continue;  // agent has no slots
    const int64_t v1 = -price[a];
    if (v1 > top.best) {
      top.second = top.best;
      top.best = v1;
      top.index = a;
    } else if (v1 > top.second) {
      top.second = v1;
    }
  }
  return top;
}

void JvRelax(const int64_t* row, const int64_t* v, int64_t* dist, int* pred,
             int n, int64_t base, int t) {
  for (int a = 0; a < n; ++a) {
    // Unsigned arithmetic: the wrapping sum the AVX2 lanes compute, and
    // no signed overflow for any input.
    const int64_t nd = static_cast<int64_t>(static_cast<uint64_t>(base) +
                                            static_cast<uint64_t>(row[a]) -
                                            static_cast<uint64_t>(v[a]));
    const bool take = row[a] >= 0 && nd < dist[a];
    dist[a] = take ? nd : dist[a];
    pred[a] = take ? t : pred[a];
  }
}

int64_t JvMinDist(const int64_t* dist, int n) {
  int64_t m = std::numeric_limits<int64_t>::max();
  for (int a = 0; a < n; ++a) {
    if (dist[a] != kJvParked && dist[a] < m) m = dist[a];
  }
  return m;
}

}  // namespace scalar

}  // namespace wgrap::simd
