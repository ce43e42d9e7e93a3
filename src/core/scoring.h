// Assignment-quality scoring functions (Definition 1 and Appendix B,
// Table 5 of the paper). All four are submodular set functions over
// reviewer groups: they are sums of per-topic contributions (C.1), each
// monotone in the reviewer/group expertise (C.2), so the SDGA approximation
// guarantee (Theorem 1/2) holds for every choice.
#ifndef WGRAP_CORE_SCORING_H_
#define WGRAP_CORE_SCORING_H_

#include <string>

#include "common/status.h"

namespace wgrap::core {

/// Which per-topic contribution f(r[t], p[t]) to use (Table 5).
enum class ScoringFunction {
  /// min{r[t], p[t]} — the paper's default weighted coverage c.
  kWeightedCoverage,
  /// r[t] if r[t] >= p[t] else 0 — winner-takes-all on the reviewer side.
  kReviewerCoverage,
  /// p[t] if r[t] >= p[t] else 0 — winner-takes-all on the paper side.
  kPaperCoverage,
  /// r[t] * p[t] — dot product.
  kDotProduct,
};

/// "c", "cR", "cP", "cD" (paper notation).
std::string ScoringFunctionName(ScoringFunction f);
/// The inverse of ScoringFunctionName — the one parser of the scoring
/// spellings every front end takes; kInvalidArgument on anything else.
Result<ScoringFunction> ParseScoringFunction(const std::string& name);

/// Per-topic contribution f(r_t, p_t) of expertise r_t to paper weight p_t.
inline double TopicContribution(ScoringFunction f, double r_t, double p_t) {
  switch (f) {
    case ScoringFunction::kWeightedCoverage:
      return r_t < p_t ? r_t : p_t;
    case ScoringFunction::kReviewerCoverage:
      return r_t >= p_t ? r_t : 0.0;
    case ScoringFunction::kPaperCoverage:
      return r_t >= p_t ? p_t : 0.0;
    case ScoringFunction::kDotProduct:
      return r_t * p_t;
  }
  return 0.0;
}

/// Whether topic t can contribute a nonzero term to any Definition 8 gain
/// against group max g_t and paper weight p_t. The gain kernels add
/// f(r_t, p_t) − f(g_t, p_t) only when r_t > g_t, and that term is exactly
/// +0.0 for every r_t > g_t when
///   c, cP: g_t ≥ p_t (both sides evaluate to p_t);
///   cD:    p_t = 0   (both products are zero, their difference +0.0);
/// cR has no such topic: r_t − g_t > 0 whenever r_t ≥ p_t, even at p_t = 0.
/// Adding +0.0 to the non-negative running gain is the identity, so a
/// kernel may skip every topic this rejects without changing a bit.
/// Assumes finite, non-negative weights, which ValidateVector in
/// data/dataset.cc enforces for every dataset an Instance is built from
/// (and InstanceUpdater::ValidateTopics for online updates).
inline bool TopicCanGain(ScoringFunction f, double g_t, double p_t) {
  switch (f) {
    case ScoringFunction::kWeightedCoverage:
    case ScoringFunction::kPaperCoverage:
      return g_t < p_t;
    case ScoringFunction::kDotProduct:
      return p_t != 0.0;
    case ScoringFunction::kReviewerCoverage:
      return true;
  }
  return true;
}

/// c(r→, p→): sum of per-topic contributions normalized by the paper mass
/// Σ_t p[t] (Eq. 1). `expertise` may be a single reviewer vector or a group
/// max-vector (Definition 2) — both length `num_topics`. Contract:
/// `paper_mass` must equal Σ_t paper[t] and be > 0 (Instance::PaperMass
/// guarantees both); result is in [0, 1] for kWeightedCoverage and
/// kPaperCoverage. O(num_topics), branch-free hot path.
double ScoreVectors(ScoringFunction f, const double* expertise,
                    const double* paper, int num_topics, double paper_mass);

/// Marginal gain of raising the group expertise from `group` to
/// max(group, reviewer) element-wise (Definition 8), without materializing
/// the merged vector. Equals ScoreVectors(max(group, reviewer)) −
/// ScoreVectors(group); always ≥ 0 (monotonicity, property C.2), and
/// non-increasing in the group (submodularity, property C.1) — the two
/// facts the SDGA/greedy guarantees rest on. O(num_topics).
double MarginalGainVectors(ScoringFunction f, const double* group,
                           const double* reviewer, const double* paper,
                           int num_topics, double paper_mass);

}  // namespace wgrap::core

#endif  // WGRAP_CORE_SCORING_H_
