// The scalar reference backend: these are the exact loops the solvers ran
// before the kernel layer existed (core/scoring.cc, la/auction.cc), moved
// here verbatim so the AVX2 backend has a single source of truth to be
// byte-identical against.
#include <algorithm>

#include "simd/kernels.h"

namespace wgrap::simd {

namespace scalar {

void MaxFold(double* acc, const double* v, int n) {
  for (int t = 0; t < n; ++t) acc[t] = std::max(acc[t], v[t]);
}

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

}  // namespace scalar

}  // namespace wgrap::simd
