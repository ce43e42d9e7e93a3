// Figures 19 and 20 (Appendix C case studies): per-topic coverage of the
// reviewer groups chosen by ILP, BRGG, Greedy and SDGA-SRA for individual
// papers — the data behind the paper's bar charts. We pick the two DB'08
// papers whose topic vectors are the most interdisciplinary (highest
// entropy over the top-5 topics), mirroring the paper's choice of a privacy
// + graphs paper and an XML + complexity paper.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/case_study.h"

namespace {

double TopicEntropy(const wgrap::core::Instance& instance, int paper) {
  const double* pv = instance.PaperVector(paper);
  double h = 0.0;
  for (int t = 0; t < instance.num_topics(); ++t) {
    if (pv[t] > 1e-12) h -= pv[t] * std::log(pv[t]);
  }
  return h;
}

}  // namespace

int main() {
  using namespace wgrap;
  std::printf("=== Figures 19-20: case studies (DB08, dp = 3) ===\n\n");
  auto setup = bench::MakeConference(data::Area::kDatabases, 2008,
                                     /*group_size=*/3);

  // Two most interdisciplinary papers.
  std::vector<int> papers(setup.instance.num_papers());
  for (int p = 0; p < setup.instance.num_papers(); ++p) papers[p] = p;
  std::sort(papers.begin(), papers.end(), [&](int a, int b) {
    return TopicEntropy(setup.instance, a) > TopicEntropy(setup.instance, b);
  });
  const std::vector<int> cases = {papers[0], papers[1]};

  for (size_t i = 0; i < cases.size(); ++i) {
    const int paper = cases[i];
    std::printf("--- Case study %zu: \"%s\" ---\n", i + 1,
                setup.dataset.papers[paper].title.c_str());
    for (const auto& method : bench::PaperCraMethods()) {
      if (method.name == "SM" || method.name == "SDGA") continue;  // as paper
      auto assignment = method.run(setup.instance, /*budget=*/8.0);
      bench::DieOnError(assignment.status(), method.name);
      const auto report = core::BuildCaseStudy(setup.instance, *assignment,
                                               setup.dataset, paper, 5);
      bench::DieOnError(report.status(), "case study");
      std::printf("%s",
                  core::FormatCaseStudy(*report, method.name).c_str());
      std::printf("\n");
    }
  }
  std::printf("Expected shape (paper): SDGA-SRA attains the highest group "
              "score and covers side topics the per-pair methods miss.\n");
  return 0;
}
