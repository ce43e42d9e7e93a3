#include "core/scoring.h"

#include "common/check.h"
#include "simd/kernels.h"

namespace wgrap::core {

std::string ScoringFunctionName(ScoringFunction f) {
  switch (f) {
    case ScoringFunction::kWeightedCoverage:
      return "c";
    case ScoringFunction::kReviewerCoverage:
      return "cR";
    case ScoringFunction::kPaperCoverage:
      return "cP";
    case ScoringFunction::kDotProduct:
      return "cD";
  }
  return "?";
}

Result<ScoringFunction> ParseScoringFunction(const std::string& name) {
  for (ScoringFunction f :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
        ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct}) {
    if (name == ScoringFunctionName(f)) return f;
  }
  return Status::InvalidArgument("unknown scoring '" + name +
                                 "' (use c, cR, cP, cD)");
}

double ScoreVectors(ScoringFunction f, const double* expertise,
                    const double* paper, int num_topics, double paper_mass) {
  WGRAP_CHECK(paper_mass > 0.0);
  // The row reduction lives in simd/kernels.h now: the scalar backend is
  // the former loop verbatim, the AVX2 backend vectorizes the per-lane
  // contributions while keeping the left-to-right sum — byte-identical
  // either way (the kernel-layer contract).
  return simd::ScoreSum(f, expertise, paper, num_topics) / paper_mass;
}

double MarginalGainVectors(ScoringFunction f, const double* group,
                           const double* reviewer, const double* paper,
                           int num_topics, double paper_mass) {
  WGRAP_CHECK(paper_mass > 0.0);
  return simd::MarginalGainSum(f, group, reviewer, paper, num_topics) /
         paper_mass;
}

}  // namespace wgrap::core
