// Case-study reporting (Figs. 19/20): for one paper and an assigned group,
// show the paper's weight and each reviewer's expertise on the paper's
// top-k topics, plus the group coverage score — the data behind the bar
// charts in the paper's Appendix C.
#ifndef WGRAP_CORE_CASE_STUDY_H_
#define WGRAP_CORE_CASE_STUDY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "data/dataset.h"

namespace wgrap::core {

struct CaseStudyRow {
  std::string label;            // "Paper" or reviewer name
  std::vector<double> weights;  // on the selected top topics
};

struct CaseStudyReport {
  std::vector<int> top_topics;  // topic ids, most relevant first
  std::vector<CaseStudyRow> rows;
  double group_score = 0.0;
};

/// Indices of the k most relevant topics of paper p, best first.
std::vector<int> TopTopics(const Instance& instance, int paper, int k);

/// Builds the report for `paper` under `assignment`, labelling reviewers
/// with names from `dataset` (which must be the instance's source).
/// kOutOfRange for a paper id outside [0, P), as the JRA solvers answer;
/// kInvalidArgument for top_k < 1.
Result<CaseStudyReport> BuildCaseStudy(const Instance& instance,
                                       const Assignment& assignment,
                                       const data::RapDataset& dataset,
                                       int paper, int top_k = 5);

/// Renders rows of the report as an aligned text table with a score line.
std::string FormatCaseStudy(const CaseStudyReport& report,
                            const std::string& method_name);

}  // namespace wgrap::core

#endif  // WGRAP_CORE_CASE_STUDY_H_
