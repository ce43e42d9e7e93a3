// ServiceApi: the protocol-neutral facade over InstanceStore + JobQueue.
// Requests and responses are plain structs — no transport types anywhere
// in the signatures — so the line protocol (service/protocol.h), the TCP
// front end, tests and the bench driver all speak to the same object, and
// a future transport (HTTP, RPC) is a new serializer, not a new service.
//
// Division of labour: synchronous methods (Open, Mutate, Evaluate, ...)
// touch only the store and return immediately; solver work (Submit,
// Resolve) is enqueued on the JobQueue and runs against the snapshot
// taken at submit time — snapshot isolation, so concurrent mutations
// never race a running solve. Response payloads are rendered by
// service/reports.h, the same formatters the one-shot CLI prints with,
// which keeps service responses byte-identical to CLI output.
#ifndef WGRAP_SERVICE_API_H_
#define WGRAP_SERVICE_API_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/registry.h"
#include "service/instance_store.h"
#include "service/job_queue.h"

namespace wgrap::service {

struct ServiceOptions {
  /// JobQueue workers (concurrent solves).
  int job_workers = 2;
  /// Bounded result store size (JobQueue::Options::max_results).
  int max_results = 64;
  /// Admission control (JobQueue::Options::max_queue_depth): queued-job
  /// limit past which Submit/Resolve shed with kUnavailable. 0 = off.
  int max_queue_depth = 0;
};

struct OpenRequest {
  std::string session;
  /// Dataset CSV (data/io.h schema) the instance is built from.
  std::string dataset_csv;
  core::InstanceParams params;
};

struct SessionResponse {
  SessionInfo info;
};

struct DescribeSolversRequest {
  /// Render each solver's declared knob schema (KnobSpec list).
  bool verbose = false;
};

struct TextResponse {
  std::string text;
};

/// One solver job. `kind` reuses the registry's unified request kinds;
/// refine takes the session's current assignment as the initial one.
struct SubmitRequest {
  std::string session;
  core::SolverRequest::Kind kind = core::SolverRequest::Kind::kSolveCra;
  std::string solver;
  int paper = 0;  // kSolveJra / kSolveJraTopK
  int k = 1;      // kSolveJraTopK
  double time_limit_seconds = 0.0;
  uint64_t seed = 20150531;
  /// Solver knobs. Submit runs core::SolverRegistry::Validate on the whole
  /// request (solver, kind, k, knobs against the solver's KnobSpec
  /// schema): a request the job's Run would reject fails the Submit call
  /// itself, and the job is never created.
  std::map<std::string, std::string> knobs;
  /// CRA kinds: install the solved assignment into the session when it is
  /// still at the snapshot's version (compare-and-set; a concurrent
  /// mutation wins and the result stays job-only).
  bool install = true;
};

struct SubmitResponse {
  int64_t job = 0;
};

struct MutateRequest {
  std::string session;
  /// Mutation script (core::ParseMutationScript line grammar).
  std::string script;
};

struct MutateResponse {
  SessionInfo info;
  /// The `wgrap_cli update` "applied ..." block (reports::MutationReport).
  std::string text;
};

/// Incremental re-solve of the session's (mutated) assignment — the
/// IncrementalResolve pipeline as an async job. Knobs are decoded by
/// core::DecodeIncrementalResolveKnobs at submit time.
struct ResolveRequest {
  std::string session;
  double time_limit_seconds = 0.0;
  uint64_t seed = 20150531;
  std::map<std::string, std::string> knobs;
};

class ServiceApi {
 public:
  explicit ServiceApi(const ServiceOptions& options = {});

  ServiceApi(const ServiceApi&) = delete;
  ServiceApi& operator=(const ServiceApi&) = delete;

  // --- sessions ----------------------------------------------------------
  Result<SessionResponse> Open(const OpenRequest& request);
  std::vector<SessionInfo> ListSessions() const;
  Status CloseSession(const std::string& session);

  /// Installs an assignment from CSV (data/io.h pair schema).
  Result<SessionResponse> PutAssignment(const std::string& session,
                                        const std::string& csv);
  /// The session's current assignment as CSV; kFailedPrecondition when
  /// none is installed.
  Result<TextResponse> GetAssignment(const std::string& session) const;
  /// The `wgrap_cli evaluate` block for the current assignment. c(AI)
  /// comes from the snapshot instance's memo (core::IdealScore), which
  /// re-derives only the papers mutated since it was last filled.
  Result<TextResponse> Evaluate(const std::string& session) const;

  // --- capability discovery ---------------------------------------------
  /// The `wgrap_cli solvers [--verbose]` text: the solver table, plus the
  /// per-solver knob schemas when verbose — how remote clients learn the
  /// legal knobs instead of reading headers.
  Result<TextResponse> DescribeSolvers(
      const DescribeSolversRequest& request) const;

  // --- solver jobs -------------------------------------------------------
  Result<SubmitResponse> Submit(const SubmitRequest& request);
  Result<MutateResponse> Mutate(const MutateRequest& request);
  Result<SubmitResponse> Resolve(const ResolveRequest& request);

  Result<JobStatus> GetJobStatus(int64_t job) const;
  /// A finished job's JobResult: the `report` the protocol's `wait` and
  /// `result` print and, for a CRA solve or a resolve, its assignment's
  /// `pairs`, kept unformatted (no job renders a CSV; the `assignment`
  /// verb formats the session's current one on demand).
  Result<JobResult> GetJobResult(int64_t job) const;
  Result<JobResult> WaitJob(int64_t job);
  /// One page of the job's progress stream (see JobQueue::WaitProgress);
  /// the `watch` protocol verb drains this from index 0.
  Result<ProgressPage> WaitJobProgress(int64_t job, std::size_t from);
  Status CancelJob(int64_t job);

  InstanceStore& store() { return store_; }
  JobQueue& jobs() { return jobs_; }

 private:
  InstanceStore store_;
  JobQueue jobs_;
};

}  // namespace wgrap::service

#endif  // WGRAP_SERVICE_API_H_
