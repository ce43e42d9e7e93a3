// Async job execution for the service layer: submit returns immediately
// with a monotonically increasing id (1, 2, ... — deterministic, so a
// fully scripted session can predict them), a fixed set of workers drains
// the FIFO queue, and results are kept in a bounded store with
// oldest-first eviction.
//
// Cancellation is cooperative, end to end: every job gets a fresh cancel
// source (common/cancel.h) that Cancel() flips. A queued job is skipped
// (its result is Status::Cancelled without the body ever running); a
// running job sees the flag through SolverRunOptions::cancel at the
// solvers' deadline-poll sites and aborts with kCancelled mid-search.
//
// Relationship to wgrap::ThreadPool: the pool is a fork-join parallel-for
// substrate, intentionally without a task queue, so job-level concurrency
// lives here on dedicated worker threads — while the data-parallel work
// *inside* a job (SDGA stages, cache refreshes) keeps riding the pool via
// the `threads` knob. One job = one solver run; nesting stays sane.
#ifndef WGRAP_SERVICE_JOB_QUEUE_H_
#define WGRAP_SERVICE_JOB_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace wgrap::service {

enum class JobState { kQueued, kRunning, kDone };

const char* JobStateToString(JobState state);

/// What a job produced. `status` is the solver outcome (kCancelled for a
/// cancelled job, kResourceExhausted for a blown budget, ...). When ok,
/// `report` is the rendered reply (`wait`/`result` print it) and `pairs`
/// the (paper, reviewer) pairs of a CRA solve's or a resolve's assignment
/// in Assignment::Pairs() order (empty for JRA jobs), kept for library
/// callers unformatted: data::AssignmentPairsToCsv renders them as
/// `wgrap_cli solve --out` would.
struct JobResult {
  Status status = Status::OK();
  std::string report;
  std::vector<std::pair<int, int>> pairs;
  /// Wall-clock of the job body (accounting only — never rendered into
  /// `report`, which must stay byte-deterministic).
  double seconds = 0.0;
};

struct JobStatus {
  int64_t id = 0;
  std::string label;
  JobState state = JobState::kQueued;
  /// False once the bounded store evicted the payload (the status row
  /// itself survives).
  bool result_available = false;
};

/// Everything a job body gets from the queue: the cancel token it must
/// poll, and a progress sink. Frames pushed into `progress` are retained
/// per job (bounded) and replayable through WaitProgress — the `watch`
/// protocol verb streams them. The sink is safe to call from the worker
/// thread only (one job = one worker), and is a no-op after the frame cap.
struct JobContext {
  CancelToken cancel;
  std::function<void(const std::string&)> progress;
};

/// One page of a job's progress stream: the frames at indices
/// [from, from + frames.size()) plus whether the job has finished (no
/// further frames will ever arrive once `done`).
struct ProgressPage {
  std::vector<std::string> frames;
  bool done = false;
};

class JobQueue {
 public:
  struct Options {
    /// Concurrent jobs. Results are independent of this (each job is
    /// deterministic on its own inputs); only completion order varies.
    int workers = 2;
    /// Completed results retained; beyond this the oldest completed job's
    /// payload is dropped and GetResult reports the eviction.
    int max_results = 64;
    /// Admission control: once this many jobs are queued (not yet
    /// running), Submit sheds with kUnavailable + a retry-after hint
    /// instead of growing the queue. 0 = unbounded (the default — tests
    /// and one-shot CLI sessions never shed).
    int max_queue_depth = 0;
  };

  explicit JobQueue(const Options& options);
  /// Cancels everything still queued and joins the workers.
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// The job body: runs on a worker with the job's context (cancel token —
  /// expected to be polled, solvers do through SolverRunOptions::cancel —
  /// plus the progress sink).
  using JobFn = std::function<JobResult(const JobContext&)>;

  /// Frames retained per job; further progress calls are dropped. Large
  /// enough for every solver's round-boundary cadence, small enough that a
  /// runaway emitter cannot grow the store unboundedly.
  static constexpr std::size_t kMaxProgressFrames = 1024;

  /// Enqueues and returns the job id (ids start at 1; an id is only
  /// allocated on admission, so shed submissions do not perturb the
  /// deterministic id sequence). kUnavailable when the queue is full.
  Result<int64_t> Submit(std::string label, JobFn fn);

  /// kNotFound for unknown ids.
  Result<JobStatus> GetStatus(int64_t id) const;

  /// The result of a finished job. kFailedPrecondition while queued or
  /// running ("use wait"), kResourceExhausted once evicted, kNotFound for
  /// unknown ids. A failed job's result is returned with its status
  /// inside (the caller renders it as an error reply).
  Result<JobResult> GetResult(int64_t id) const;

  /// Blocks until the job finishes, then behaves like GetResult.
  Result<JobResult> Wait(int64_t id);

  /// Blocks until the job has emitted a frame with index >= `from` or has
  /// finished, then returns every retained frame from `from` on plus the
  /// done flag. Frames are never dropped from the front while the job's
  /// result is retained, so a watcher starting at 0 replays the stream
  /// deterministically. kNotFound for unknown ids, kResourceExhausted once
  /// the job's payload (and with it the frames) was evicted.
  Result<ProgressPage> WaitProgress(int64_t id, std::size_t from);

  /// Flips the job's cancel flag. Queued jobs finish as kCancelled without
  /// running; running jobs abort at the solver's next poll site.
  /// kFailedPrecondition if the job already finished; kNotFound otherwise.
  Status Cancel(int64_t id);

  /// Waits for every submitted job to finish (test/bench barrier).
  void Drain();

 private:
  struct Job {
    int64_t id = 0;
    std::string label;
    JobState state = JobState::kQueued;
    bool evicted = false;
    std::shared_ptr<std::atomic<bool>> cancel;
    JobFn fn;
    JobResult result;
    /// Progress frames in emission order (bounded by kMaxProgressFrames);
    /// cleared together with the payload on eviction.
    std::vector<std::string> progress;
    /// Measures queued time (submit → dequeue) for the wait histogram.
    Stopwatch queued;
  };

  void WorkerLoop();

  const int max_results_;
  const int max_queue_depth_;
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;  // workers wait for queue_
  std::condition_variable job_done_;    // Wait()/Drain() wait on this
  std::deque<int64_t> queue_;
  std::map<int64_t, Job> jobs_;
  std::deque<int64_t> done_order_;  // completed ids, oldest first
  int64_t next_id_ = 1;
  int in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wgrap::service

#endif  // WGRAP_SERVICE_JOB_QUEUE_H_
