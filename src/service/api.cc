#include "service/api.h"

#include <cstdio>
#include <utility>

#include "common/stopwatch.h"
#include "core/update.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "service/reports.h"

namespace wgrap::service {

namespace {

JobQueue::Options QueueOptions(const ServiceOptions& options) {
  JobQueue::Options queue;
  queue.workers = options.job_workers;
  queue.max_results = options.max_results;
  queue.max_queue_depth = options.max_queue_depth;
  return queue;
}

const char* KindLabel(core::SolverRequest::Kind kind) {
  switch (kind) {
    case core::SolverRequest::Kind::kSolveCra:
      return "solve";
    case core::SolverRequest::Kind::kRefineCra:
      return "refine";
    case core::SolverRequest::Kind::kSolveJra:
      return "jra";
    case core::SolverRequest::Kind::kSolveJraTopK:
      return "topk";
  }
  return "?";
}

/// Observes the wall-clock of one endpoint call on scope exit — success
/// and error paths alike, so error-heavy traffic still shows up in the
/// latency page.
class ScopedEndpointTimer {
 public:
  explicit ScopedEndpointTimer(obs::Histogram* histogram)
      : histogram_(histogram) {}
  ~ScopedEndpointTimer() {
    if (histogram_ != nullptr) histogram_->Observe(watch_.ElapsedSeconds());
  }
  ScopedEndpointTimer(const ScopedEndpointTimer&) = delete;
  ScopedEndpointTimer& operator=(const ScopedEndpointTimer&) = delete;

 private:
  obs::Histogram* const histogram_;
  Stopwatch watch_;
};

/// Fixed wire format for solver progress frames. %.6f (not shortest
/// round-trip) keeps a `watch` replay byte-deterministic for a fixed seed
/// across libc float printers.
std::string RenderProgressFrame(const core::ProgressFrame& frame) {
  char line[128];
  std::snprintf(line, sizeof(line), "progress %s round %lld best %.6f\n",
                frame.phase, static_cast<long long>(frame.round),
                frame.best_score);
  return line;
}

// The run parameters and knobs of a submit or resolve request.
template <typename Request>
core::SolverRunOptions RunOptions(const Request& request) {
  core::SolverRunOptions options;
  options.time_limit_seconds = request.time_limit_seconds;
  options.seed = request.seed;
  options.extra = request.knobs;
  return options;
}

// `options` plus the job's cancel token and progress sink.
core::SolverRunOptions WithJobContext(core::SolverRunOptions options,
                                      const JobContext& context) {
  options.cancel = context.cancel;
  if (context.progress) {
    options.progress =
        [sink = context.progress](const core::ProgressFrame& frame) {
          sink(RenderProgressFrame(frame));
        };
  }
  return options;
}

void CountCasConflict(const Status& install) {
  if (install.ok() || install.code() != StatusCode::kFailedPrecondition) {
    return;
  }
  static obs::Counter* const conflicts = obs::Registry::Global().GetCounter(
      "wgrap_service_cas_conflicts_total");
  if (conflicts) conflicts->Add();
}

}  // namespace

ServiceApi::ServiceApi(const ServiceOptions& options)
    : jobs_(QueueOptions(options)) {}

Result<SessionResponse> ServiceApi::Open(const OpenRequest& request) {
  static obs::Histogram* const latency =
      obs::Registry::Global().GetHistogram("wgrap_service_open_seconds");
  ScopedEndpointTimer timer(latency);
  auto dataset = data::DatasetFromCsv(request.dataset_csv);
  if (!dataset.ok()) return dataset.status();
  auto snapshot = store_.Open(request.session, *dataset, request.params);
  if (!snapshot.ok()) return snapshot.status();
  SessionResponse response;
  response.info = InfoOf(*snapshot);
  return response;
}

std::vector<SessionInfo> ServiceApi::ListSessions() const {
  return store_.List();
}

Status ServiceApi::CloseSession(const std::string& session) {
  return store_.Close(session);
}

Result<SessionResponse> ServiceApi::PutAssignment(const std::string& session,
                                                  const std::string& csv) {
  auto pairs = data::AssignmentPairsFromCsv(csv);
  if (!pairs.ok()) return pairs.status();
  auto snapshot = store_.InstallAssignment(session, *pairs);
  if (!snapshot.ok()) return snapshot.status();
  SessionResponse response;
  response.info = InfoOf(*snapshot);
  return response;
}

Result<TextResponse> ServiceApi::GetAssignment(
    const std::string& session) const {
  auto snapshot = store_.Get(session);
  if (!snapshot.ok()) return snapshot.status();
  if (snapshot->assignment == nullptr) {
    return Status::FailedPrecondition("session '" + session +
                                      "' has no assignment");
  }
  TextResponse response;
  response.text = AssignmentCsv(*snapshot->assignment);
  return response;
}

Result<TextResponse> ServiceApi::Evaluate(const std::string& session) const {
  static obs::Histogram* const latency =
      obs::Registry::Global().GetHistogram("wgrap_service_evaluate_seconds");
  ScopedEndpointTimer timer(latency);
  auto snapshot = store_.Get(session);
  if (!snapshot.ok()) return snapshot.status();
  if (snapshot->assignment == nullptr) {
    return Status::FailedPrecondition("session '" + session +
                                      "' has no assignment");
  }
  TextResponse response;
  response.text = EvaluationReport(*snapshot->instance, *snapshot->assignment);
  return response;
}

Result<TextResponse> ServiceApi::DescribeSolvers(
    const DescribeSolversRequest& request) const {
  TextResponse response;
  response.text =
      SolversReport(core::SolverRegistry::Default(), request.verbose);
  return response;
}

Result<SubmitResponse> ServiceApi::Submit(const SubmitRequest& request) {
  static obs::Histogram* const latency =
      obs::Registry::Global().GetHistogram("wgrap_service_submit_seconds");
  ScopedEndpointTimer timer(latency);
  auto snapshot = store_.Get(request.session);
  if (!snapshot.ok()) return snapshot.status();
  if (request.kind == core::SolverRequest::Kind::kRefineCra &&
      snapshot->assignment == nullptr) {
    return Status::FailedPrecondition("session '" + request.session +
                                      "' has no assignment to refine");
  }
  SessionSnapshot snap = *std::move(snapshot);
  core::SolverRequest solver_request;
  solver_request.kind = request.kind;
  solver_request.solver = request.solver;
  solver_request.paper = request.paper;
  solver_request.k = request.k;
  solver_request.initial = snap.assignment.get();
  solver_request.options = RunOptions(request);
  // Fail fast: whatever the job's Run would reject before solving (an
  // unknown solver, a family or top-k mismatch, a bad knob) fails here,
  // before a job id is handed out. The job repeats the checks on the same
  // snapshot.
  WGRAP_RETURN_IF_ERROR(
      core::SolverRegistry::Default().Validate(solver_request).status());

  const Result<int64_t> id = jobs_.Submit(
      std::string(KindLabel(request.kind)) + ":" + request.solver,
      [this, solver_request = std::move(solver_request),
       install = request.install,
       snap = std::move(snap)](const JobContext& context) {
        JobResult result;
        core::SolverRequest run = solver_request;
        run.options = WithJobContext(run.options, context);
        auto response = core::SolverRegistry::Default().Run(run,
                                                            *snap.instance);
        if (!response.ok()) {
          result.status = response.status();
          return result;
        }
        if (response->assignment.has_value()) {
          result.report = SolveReportLine(run.solver, *snap.instance,
                                          *response->assignment, "");
          result.pairs = response->assignment->Pairs();
          if (install) {
            // CAS install: only when no mutation superseded the snapshot
            // this solve ran on. A lost race is not a job failure — the
            // result stays fetchable either way (but it is counted).
            auto installed = store_.InstallAssignmentIfCurrent(
                snap.name, snap.version, *std::move(response->assignment));
            CountCasConflict(installed.status());
          }
        } else {
          result.report = JraReport(response->jra);
        }
        return result;
      });
  if (!id.ok()) return id.status();  // admission shed (kUnavailable)
  SubmitResponse response;
  response.job = *id;
  return response;
}

Result<MutateResponse> ServiceApi::Mutate(const MutateRequest& request) {
  static obs::Histogram* const latency =
      obs::Registry::Global().GetHistogram("wgrap_service_mutate_seconds");
  ScopedEndpointTimer timer(latency);
  auto updates = core::ParseMutationScript(request.script);
  if (!updates.ok()) return updates.status();
  auto outcome = store_.Mutate(request.session, *updates);
  if (!outcome.ok()) return outcome.status();
  MutateResponse response;
  response.info = InfoOf(outcome->snapshot);
  response.text =
      MutationReport(outcome->report, *outcome->snapshot.instance);
  return response;
}

Result<SubmitResponse> ServiceApi::Resolve(const ResolveRequest& request) {
  static obs::Histogram* const latency =
      obs::Registry::Global().GetHistogram("wgrap_service_resolve_seconds");
  ScopedEndpointTimer timer(latency);
  auto snapshot = store_.Get(request.session);
  if (!snapshot.ok()) return snapshot.status();
  core::SolverRunOptions options = RunOptions(request);
  WGRAP_RETURN_IF_ERROR(
      core::DecodeKnobs("update", core::IncrementalResolveKnobSpecs(), options)
          .status());
  if (snapshot->assignment == nullptr) {
    return Status::FailedPrecondition("session '" + request.session +
                                      "' has no assignment to resolve");
  }

  SessionSnapshot snap = *std::move(snapshot);
  const Result<int64_t> id = jobs_.Submit(
      "resolve:" + request.session,
      [this, snap = std::move(snap),
       options = std::move(options)](const JobContext& context) {
        JobResult result;
        // Work on a private copy of the snapshot's assignment (bound to
        // the same snapshot instance) — the snapshot itself stays
        // immutable for other readers. IncrementalResolve normalizes it
        // with RecomputeAll before it reads a score.
        core::Assignment working = *snap.assignment;
        auto report = core::IncrementalResolve(
            *snap.instance, &working, WithJobContext(options, context));
        if (!report.ok()) {
          result.status = report.status();
          return result;
        }
        result.report = ResolveReport(*report, working);
        result.pairs = working.Pairs();
        auto installed = store_.InstallAssignmentIfCurrent(
            snap.name, snap.version, std::move(working));
        CountCasConflict(installed.status());
        return result;
      });
  if (!id.ok()) return id.status();  // admission shed (kUnavailable)
  SubmitResponse response;
  response.job = *id;
  return response;
}

Result<JobStatus> ServiceApi::GetJobStatus(int64_t job) const {
  return jobs_.GetStatus(job);
}

Result<JobResult> ServiceApi::GetJobResult(int64_t job) const {
  return jobs_.GetResult(job);
}

Result<JobResult> ServiceApi::WaitJob(int64_t job) { return jobs_.Wait(job); }

Result<ProgressPage> ServiceApi::WaitJobProgress(int64_t job,
                                                 std::size_t from) {
  return jobs_.WaitProgress(job, from);
}

Status ServiceApi::CancelJob(int64_t job) { return jobs_.Cancel(job); }

}  // namespace wgrap::service
