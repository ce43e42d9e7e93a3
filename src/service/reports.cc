#include "service/reports.h"

#include <cstdio>
#include <optional>

#include "common/table_printer.h"
#include "core/metrics.h"
#include "data/io.h"

namespace wgrap::service {

namespace {

// printf-exact formatting into a std::string; every formatter below funnels
// through here so the CLI (printf) and the service (payload strings) can
// never drift.
template <typename... Args>
std::string Sprintf(const char* format, Args... args) {
  const int n = std::snprintf(nullptr, 0, format, args...);
  std::string out(n, '\0');
  std::snprintf(out.data(), n + 1, format, args...);
  return out;
}

// The optimality ratio in percent; nullopt when there is no usable
// denominator — AI infeasible, or c(AI) = 0 (no paper can be covered).
std::optional<double> OptimalityPercent(const core::Assignment& assignment,
                                        std::optional<double> ideal_score) {
  if (!ideal_score.has_value() || !(*ideal_score > 0.0)) return std::nullopt;
  return 100.0 * core::OptimalityRatio(assignment, *ideal_score);
}

}  // namespace

std::string SolveReportLine(const std::string& algo,
                            const core::Instance& instance,
                            const core::Assignment& assignment,
                            const std::string& wrote_path) {
  return Sprintf(
      "%s: coverage %.3f (optimality %.1f%%), lowest paper %.3f%s\n",
      algo.c_str(), assignment.TotalScore(),
      OptimalityPercent(assignment, core::IdealScore(instance)).value_or(0.0),
      core::LowestCoverage(assignment),
      wrote_path.empty() ? "" : (", wrote " + wrote_path).c_str());
}

std::string EvaluationReport(const core::Instance& instance,
                             const core::Assignment& assignment) {
  const Status valid = assignment.ValidateComplete();
  const std::optional<double> optimality =
      OptimalityPercent(assignment, core::IdealScore(instance));
  std::string out;
  out += Sprintf("pairs: %lld\n", static_cast<long long>(assignment.size()));
  out += Sprintf("feasible: %s\n",
                 valid.ok() ? "yes" : valid.ToString().c_str());
  out += Sprintf("coverage score: %.4f\n", assignment.TotalScore());
  if (optimality.has_value()) {
    out += Sprintf("optimality ratio: %.2f%%\n", *optimality);
  }
  out += Sprintf("lowest paper coverage: %.4f\n",
                 core::LowestCoverage(assignment));
  return out;
}

std::string MutationReport(const core::UpdateReport& report,
                           const core::Instance& instance) {
  std::string out;
  out += Sprintf("applied %d updates (%zu evictions)\n", report.applied,
                 report.evicted.size());
  out += Sprintf("instance: P=%d R=%d dp=%d dr=%d\n", instance.num_papers(),
                 instance.num_reviewers(), instance.group_size(),
                 instance.reviewer_workload());
  return out;
}

std::string ResolveReport(const core::ResolveReport& report,
                          const core::Assignment& assignment) {
  const Status valid = assignment.ValidateComplete();
  std::string out;
  out += Sprintf(
      "incremental: score %.6f -> %.6f, repaired %d papers, added %lld "
      "pairs\n",
      report.score_before, report.score_after, report.repaired_papers,
      static_cast<long long>(report.added_pairs));
  out += Sprintf("feasible: %s\n",
                 valid.ok() ? "yes" : valid.ToString().c_str());
  return out;
}

std::string AssignmentCsv(const core::Assignment& assignment) {
  return data::AssignmentPairsToCsv(assignment.Pairs());
}

std::string JraReport(const std::vector<core::JraResult>& results) {
  std::string out;
  for (size_t i = 0; i < results.size(); ++i) {
    out += Sprintf("#%zu score %.4f:", i + 1, results[i].score);
    for (int r : results[i].group) out += Sprintf(" r%d", r);
    out += "\n";
  }
  return out;
}

std::string SolversReport(const core::SolverRegistry& registry,
                          bool verbose) {
  TablePrinter table({"name", "family", "paper name", "summary"});
  for (const auto* s : registry.List()) {
    table.AddRow({s->name,
                  s->family == core::SolverFamily::kCra ? "CRA" : "JRA",
                  s->paper_name,
                  s->produces_feasible ? s->summary
                                       : s->summary + " [infeasible output]"});
  }
  std::string out = table.ToString();
  if (!verbose) return out;
  // The knob schemas, one section per solver — the self-describing part of
  // the API: clients learn the legal `extra` keys from here, not headers.
  for (const auto* s : registry.List()) {
    out += Sprintf("\n%s knobs:\n", s->name.c_str());
    if (s->knobs.empty()) {
      out += "  (none)\n";
      continue;
    }
    for (const auto& knob : s->knobs) {
      out += Sprintf("  %s\n", core::FormatKnobSpec(knob).c_str());
    }
  }
  return out;
}

}  // namespace wgrap::service
