#include "common/thread_pool.h"

#include <algorithm>

namespace wgrap {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkOn(Job* job) {
  for (;;) {
    int64_t chunk_begin, chunk_end;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job->abort || job->next >= job->end) return;
      chunk_begin = job->next;
      chunk_end = std::min(job->end, chunk_begin + job->grain);
      job->next = chunk_end;
      ++job->in_flight;
    }
    try {
      (*job->fn)(chunk_begin, chunk_end);
      std::lock_guard<std::mutex> lock(mutex_);
      --job->in_flight;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      --job->in_flight;
      if (!job->error) job->error = std::current_exception();
      job->abort = true;  // remaining chunks are skipped
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Job* job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] {
        return shutdown_ || (job_ != nullptr && !job_->abort &&
                             job_->next < job_->end);
      });
      if (shutdown_) return;
      job = job_;
      // Pin the job: the caller must not destroy it while this worker still
      // holds the pointer, even if other threads drain all chunks first.
      ++job->attached;
    }
    WorkOn(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --job->attached;
    }
    work_done_.notify_all();
  }
}

void ThreadPool::ParallelForChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<int64_t>(1, grain);
  if (num_threads_ == 1 || end - begin <= grain) {
    // Inline fast path: no workers to involve; preserve the chunking so the
    // body sees the same (chunk_begin, chunk_end) pairs as a pooled run.
    for (int64_t b = begin; b < end; b += grain) {
      fn(b, std::min(end, b + grain));
    }
    return;
  }

  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.next = begin;
  job.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
  }
  work_ready_.notify_all();
  WorkOn(&job);  // the caller is a worker too
  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [&job] {
      return job.in_flight == 0 && job.attached == 0 &&
             (job.abort || job.next >= job.end);
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t)>& fn) {
  ParallelForChunks(begin, end, grain,
                    [&fn](int64_t chunk_begin, int64_t chunk_end) {
                      for (int64_t i = chunk_begin; i < chunk_end; ++i) fn(i);
                    });
}

}  // namespace wgrap
