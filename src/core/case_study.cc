#include "core/case_study.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace wgrap::core {

std::vector<int> TopTopics(const Instance& instance, int paper, int k) {
  WGRAP_CHECK(paper >= 0 && paper < instance.num_papers());
  std::vector<int> order(instance.num_topics());
  std::iota(order.begin(), order.end(), 0);
  const double* pv = instance.PaperVector(paper);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (pv[a] != pv[b]) return pv[a] > pv[b];
    return a < b;
  });
  order.resize(std::min<size_t>(order.size(), k));
  return order;
}

Result<CaseStudyReport> BuildCaseStudy(const Instance& instance,
                                       const Assignment& assignment,
                                       const data::RapDataset& dataset,
                                       int paper, int top_k) {
  if (paper < 0 || paper >= instance.num_papers()) {
    return Status::OutOfRange("paper id out of range");
  }
  if (top_k < 1) {
    return Status::InvalidArgument("case study requires top-k topics >= 1");
  }
  CaseStudyReport report;
  report.top_topics = TopTopics(instance, paper, top_k);
  report.group_score = assignment.PaperScore(paper);

  CaseStudyRow paper_row;
  paper_row.label = "Paper";
  const double* pv = instance.PaperVector(paper);
  for (int t : report.top_topics) paper_row.weights.push_back(pv[t]);
  report.rows.push_back(std::move(paper_row));

  for (int r : assignment.GroupFor(paper)) {
    CaseStudyRow row;
    row.label = r < static_cast<int>(dataset.reviewers.size())
                    ? dataset.reviewers[r].name
                    : StrFormat("reviewer %d", r);
    const double* rv = instance.ReviewerVector(r);
    for (int t : report.top_topics) row.weights.push_back(rv[t]);
    report.rows.push_back(std::move(row));
  }
  return report;
}

std::string FormatCaseStudy(const CaseStudyReport& report,
                            const std::string& method_name) {
  std::vector<std::string> header = {"who"};
  for (int t : report.top_topics) header.push_back(StrFormat("t%d", t));
  TablePrinter table(std::move(header));
  for (const auto& row : report.rows) {
    std::vector<std::string> cells = {row.label};
    for (double w : row.weights) cells.push_back(TablePrinter::Num(w, 3));
    table.AddRow(std::move(cells));
  }
  return StrFormat("%s (Score = %.2f)\n", method_name.c_str(),
                   report.group_score) +
         table.ToString();
}

}  // namespace wgrap::core
