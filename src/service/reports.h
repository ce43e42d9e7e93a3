// Shared report formatters: the single source of truth for the text the
// one-shot CLI prints and the service returns. Both front ends call these
// (tools/wgrap_cli.cc for stdout, service/api.cc for response payloads),
// which is what makes the service's solve/refine/update/evaluate payloads
// byte-identical to the equivalent CLI runs — the property the CI serve
// smoke diffs and tests/service_protocol_test.cc pins.
//
// Formatting rules that keep payloads byte-stable across runs: no wall
// -clock numbers (timings go to stderr or the job accounting fields, never
// into a report), and every float is printed with a fixed printf format.
#ifndef WGRAP_SERVICE_REPORTS_H_
#define WGRAP_SERVICE_REPORTS_H_

#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/jra.h"
#include "core/registry.h"
#include "core/update.h"

namespace wgrap::service {

/// The `wgrap_cli solve` summary line:
///   "<algo>: coverage %.3f (optimality %.1f%%), lowest paper %.3f[, wrote
///   <path>]\n"
/// Pass an empty `wrote_path` (the service does) to omit the suffix. The
/// optimality reads 0.0 when c(AI) is unusable (AI infeasible or c(AI) = 0);
/// c(AI) comes from core::IdealScore.
std::string SolveReportLine(const std::string& algo,
                            const core::Instance& instance,
                            const core::Assignment& assignment,
                            const std::string& wrote_path);

/// The `wgrap_cli evaluate` block: pairs, feasibility, coverage score,
/// optimality ratio (when c(AI) is usable: AI feasible and c(AI) > 0),
/// lowest paper coverage. c(AI) comes from core::IdealScore, so only the
/// papers the instance's memo lacks are re-derived.
std::string EvaluationReport(const core::Instance& instance,
                             const core::Assignment& assignment);

/// The first half of the `wgrap_cli update` output — what applying the
/// mutation script did:
///   "applied %d updates (%zu evictions)\ninstance: P=%d R=%d dp=%d dr=%d\n"
std::string MutationReport(const core::UpdateReport& report,
                           const core::Instance& instance);

/// The second half — what the incremental re-solve did plus the
/// feasibility verdict of the repaired assignment:
///   "incremental: score %.6f -> %.6f, repaired %d papers, added %lld
///   pairs\nfeasible: %s\n"
std::string ResolveReport(const core::ResolveReport& report,
                          const core::Assignment& assignment);

/// "paper_id,reviewer_id" CSV of the assignment's pairs in (paper asc,
/// group order) — the exact bytes `wgrap_cli solve --out` writes.
std::string AssignmentCsv(const core::Assignment& assignment);

/// One line per group, best first: "#%zu score %.4f: r3 r7 r12\n" —
/// reviewer ids, not names (service sessions track the live instance,
/// whose entities may outlive the original dataset's name list).
std::string JraReport(const std::vector<core::JraResult>& results);

/// The `wgrap_cli solvers` table; with `verbose` each solver is followed
/// by its declared knob schema, one "  knob ..." line per KnobSpec
/// (core::FormatKnobSpec) — the DescribeSolvers payload.
std::string SolversReport(const core::SolverRegistry& registry, bool verbose);

}  // namespace wgrap::service

#endif  // WGRAP_SERVICE_REPORTS_H_
