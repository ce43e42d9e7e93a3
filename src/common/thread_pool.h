// Fixed-size thread pool with a deterministic parallel-for: the shared
// concurrency substrate under the parallel SDGA stages, SRA refinement
// rounds and BRGG group construction.
//
// Determinism contract: ParallelFor splits [begin, end) into fixed chunks
// of `grain` indices — chunk boundaries depend only on (begin, end, grain),
// never on the worker count or on scheduling. A loop body that writes only
// to slots keyed by its own index therefore produces bit-identical results
// at any thread count, including 1. Reductions must be performed by the
// caller in index order after the loop returns; random decisions inside the
// body must draw from Rng::ForStream(seed, index) streams, not from a
// shared generator.
//
// A pool of size 1 spawns no threads at all: every chunk runs inline on the
// caller, so `--threads 1` has zero synchronization overhead and serves as
// the reference execution for the determinism tests.
#ifndef WGRAP_COMMON_THREAD_POOL_H_
#define WGRAP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wgrap {

class ThreadPool {
 public:
  /// Creates `num_threads - 1` worker threads (the calling thread is the
  /// remaining worker). Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [begin, end). Work is handed out in chunks
  /// of `grain` consecutive indices (grain < 1 is clamped to 1); the caller
  /// participates and blocks until all chunks finish. If any invocation
  /// throws, the first exception (by completion order) is rethrown here
  /// after the loop has drained; remaining chunks are skipped.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t)>& fn);

  /// Chunk-granular variant: fn(chunk_begin, chunk_end) is invoked once per
  /// chunk, letting the body reuse scratch buffers across the indices of a
  /// chunk. Same chunking and exception contract as ParallelFor.
  void ParallelForChunks(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& fn);

 private:
  struct Job {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t next = 0;         // next chunk start, guarded by mutex_
    int64_t in_flight = 0;    // chunks currently executing
    int64_t attached = 0;     // workers holding a pointer to this job
    bool abort = false;       // set when a chunk threw
    std::exception_ptr error;
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
  };

  // Runs chunks of the current job until it is exhausted. Returns when no
  // work is left to claim (chunks may still be running on other threads).
  void WorkOn(Job* job);
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;   // workers wait for a job
  std::condition_variable work_done_;    // caller waits for completion
  Job* job_ = nullptr;                   // nullptr when idle
  bool shutdown_ = false;
};

}  // namespace wgrap

#endif  // WGRAP_COMMON_THREAD_POOL_H_
