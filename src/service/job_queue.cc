#include "service/job_queue.h"

#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace wgrap::service {
namespace {

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Global().GetGauge("wgrap_jobs_queue_depth");
  return gauge;
}

obs::Counter* ShedCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("wgrap_service_shed_total");
  return counter;
}

}  // namespace
}  // namespace wgrap::service

namespace wgrap::service {

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
  }
  return "unknown";
}

JobQueue::JobQueue(const Options& options)
    : max_results_(options.max_results < 1 ? 1 : options.max_results),
      max_queue_depth_(options.max_queue_depth < 0 ? 0
                                                   : options.max_queue_depth) {
  const int workers = options.workers < 1 ? 1 : options.workers;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobQueue::~JobQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Queued jobs never run; mark them cancelled so Wait()ers unblock.
    for (int64_t id : queue_) {
      Job& job = jobs_[id];
      job.state = JobState::kDone;
      job.result.status = Status::Cancelled("job queue shut down");
    }
    if (obs::Gauge* depth = QueueDepthGauge()) {
      depth->Add(-static_cast<int64_t>(queue_.size()));
    }
    queue_.clear();
    shutdown_ = true;
  }
  work_ready_.notify_all();
  job_done_.notify_all();
  for (auto& worker : workers_) worker.join();
}

Result<int64_t> JobQueue::Submit(std::string label, JobFn fn) {
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_queue_depth_ > 0 &&
        static_cast<int>(queue_.size()) >= max_queue_depth_) {
      if (obs::Counter* shed = ShedCounter()) shed->Add();
      return Status::Unavailable(
          "job queue full (depth " + std::to_string(queue_.size()) +
          "); retry after 1s");
    }
    id = next_id_++;
    Job& job = jobs_[id];
    job.id = id;
    job.label = std::move(label);
    job.cancel = MakeCancelSource();
    job.fn = std::move(fn);
    job.queued.Restart();
    queue_.push_back(id);
  }
  if (obs::Gauge* depth = QueueDepthGauge()) depth->Add(1);
  work_ready_.notify_one();
  return id;
}

void JobQueue::WorkerLoop() {
  static obs::Histogram* const wait_seconds = obs::Registry::Global().GetHistogram(
      "wgrap_jobs_wait_seconds");
  static obs::Counter* const completed =
      obs::Registry::Global().GetCounter("wgrap_jobs_completed_total");
  static obs::Counter* const evicted =
      obs::Registry::Global().GetCounter("wgrap_jobs_evicted_total");
  for (;;) {
    Job* job = nullptr;
    int64_t job_id = 0;
    JobFn fn;
    CancelToken cancel;
    double queued_seconds = 0.0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown
      const int64_t id = queue_.front();
      queue_.pop_front();
      job = &jobs_[id];
      job_id = id;
      job->state = JobState::kRunning;
      ++in_flight_;
      fn = std::move(job->fn);
      job->fn = nullptr;
      cancel = job->cancel;
      queued_seconds = job->queued.ElapsedSeconds();
    }
    if (obs::Gauge* depth = QueueDepthGauge()) depth->Add(-1);
    if (wait_seconds) wait_seconds->Observe(queued_seconds);
    JobResult result;
    if (IsCancelled(cancel)) {
      // Cancelled while queued: never run the body.
      result.status = Status::Cancelled("job cancelled before start");
    } else {
      JobContext context;
      context.cancel = cancel;
      // The sink appends under the queue lock (the body runs unlocked, so
      // this cannot deadlock) and wakes WaitProgress blockers via the same
      // cv job completion uses.
      context.progress = [this, job_id](const std::string& frame) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          Job& self = jobs_[job_id];
          if (self.progress.size() >= kMaxProgressFrames) return;
          self.progress.push_back(frame);
        }
        job_done_.notify_all();
      };
      Stopwatch watch;
      if (const Status start = WGRAP_INJECT_FAULT("job.start");
          !start.ok()) {
        // The fault stands in for the body failing to launch (e.g. solver
        // construction): the body never runs, the job reports the status.
        result.status = start;
      } else {
        // A job body is a solver run and must not throw — but a worker
        // thread dying of an escaped exception would take the whole
        // process down, so the boundary converts throws into kInternal.
        try {
          result = fn(context);
        } catch (const std::exception& e) {
          result = JobResult{};
          result.status =
              Status::Internal(std::string("job body threw: ") + e.what());
        } catch (...) {
          result = JobResult{};
          result.status = Status::Internal("job body threw a non-standard "
                                           "exception");
        }
        if (const Status finish = WGRAP_INJECT_FAULT("job.finish");
            !finish.ok()) {
          // Result publication fails: payloads are dropped with the status
          // so a watcher never sees half a result.
          result = JobResult{};
          result.status = finish;
        }
      }
      result.seconds = watch.ElapsedSeconds();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->result = std::move(result);
      job->state = JobState::kDone;
      --in_flight_;
      done_order_.push_back(job->id);
      while (static_cast<int>(done_order_.size()) > max_results_) {
        Job& victim = jobs_[done_order_.front()];
        done_order_.pop_front();
        victim.evicted = true;
        victim.result.report.clear();
        victim.result.pairs.clear();
        victim.result.pairs.shrink_to_fit();
        victim.progress.clear();
        victim.progress.shrink_to_fit();
        if (evicted) evicted->Add();
      }
    }
    if (completed) completed->Add();
    job_done_.notify_all();
  }
}

Result<JobStatus> JobQueue::GetStatus(int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  JobStatus status;
  status.id = id;
  status.label = it->second.label;
  status.state = it->second.state;
  status.result_available =
      it->second.state == JobState::kDone && !it->second.evicted;
  return status;
}

Result<JobResult> JobQueue::GetResult(int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  const Job& job = it->second;
  if (job.state != JobState::kDone) {
    return Status::FailedPrecondition("job " + std::to_string(id) +
                                      " is still " +
                                      JobStateToString(job.state) +
                                      "; use wait");
  }
  if (job.evicted) {
    return Status::ResourceExhausted("job " + std::to_string(id) +
                                     " result was evicted");
  }
  return job.result;
}

Result<JobResult> JobQueue::Wait(int64_t id) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    job_done_.wait(lock, [&] {
      return jobs_[id].state == JobState::kDone;
    });
  }
  return GetResult(id);
}

Result<ProgressPage> JobQueue::WaitProgress(int64_t id, std::size_t from) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  job_done_.wait(lock, [&] {
    const Job& job = jobs_[id];
    return job.state == JobState::kDone || job.progress.size() > from;
  });
  const Job& job = it->second;
  if (job.evicted) {
    return Status::ResourceExhausted("job " + std::to_string(id) +
                                     " result was evicted");
  }
  ProgressPage page;
  page.done = job.state == JobState::kDone;
  for (std::size_t i = from; i < job.progress.size(); ++i) {
    page.frames.push_back(job.progress[i]);
  }
  return page;
}

Status JobQueue::Cancel(int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  if (it->second.state == JobState::kDone) {
    return Status::FailedPrecondition("job " + std::to_string(id) +
                                      " already finished");
  }
  it->second.cancel->store(true);
  return Status::OK();
}

void JobQueue::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [this] {
    return queue_.empty() && in_flight_ == 0;
  });
}

}  // namespace wgrap::service
