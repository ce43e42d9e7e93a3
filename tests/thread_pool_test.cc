// ThreadPool contract tests: full coverage of the range, deterministic
// chunking, empty/degenerate ranges, exception propagation and pool reuse,
// plus the Rng stream-splitting used by every parallel sampler.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace wgrap {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(0, n, /*grain=*/7,
                     [&](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 0, 1, [&](int64_t) { ++calls; });
  pool.ParallelFor(5, 5, 1, [&](int64_t) { ++calls; });
  pool.ParallelFor(9, 3, 1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsOneChunk) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.ParallelForChunks(3, 9, /*grain=*/1000,
                         [&](int64_t begin, int64_t end) {
                           std::lock_guard<std::mutex> lock(mu);
                           chunks.emplace_back(begin, end);
                         });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{3, 9}));
}

TEST(ThreadPoolTest, ChunkBoundariesAreThreadCountInvariant) {
  // The determinism contract: chunk layout depends only on
  // (begin, end, grain), never on the worker count.
  auto layout = [](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelForChunks(2, 103, /*grain=*/10,
                           [&](int64_t begin, int64_t end) {
                             std::lock_guard<std::mutex> lock(mu);
                             chunks.emplace(begin, end);
                           });
    return chunks;
  };
  const auto serial = layout(1);
  EXPECT_EQ(serial.size(), 11u);  // ceil(101 / 10)
  EXPECT_EQ(layout(3), serial);
  EXPECT_EQ(layout(8), serial);
}

TEST(ThreadPoolTest, NonZeroGrainClampAndNegativeGrain) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 100, /*grain=*/0, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 1,
                       [](int64_t i) {
                         if (i == 123) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive an aborted loop and run the next one fully.
  std::atomic<int64_t> count{0};
  pool.ParallelFor(0, 500, 3, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, ManySmallLoopsStressJobLifecycle) {
  // Exercises the job setup/teardown path that TSan watches: repeated
  // loops with ranges comparable to the worker count.
  ThreadPool pool(4);
  int64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 5, 1, [&](int64_t i) { sum.fetch_add(i + 1); });
    total += sum.load();
  }
  EXPECT_EQ(total, 200 * 15);
}

TEST(RngStreamTest, StreamsAreReproducibleAndDistinct) {
  Rng a = Rng::ForStream(42, 7);
  Rng b = Rng::ForStream(42, 7);
  Rng c = Rng::ForStream(42, 8);
  Rng d = Rng::ForStream(43, 7);
  bool c_differs = false, d_differs = false;
  for (int i = 0; i < 16; ++i) {
    const uint64_t va = a.NextU64();
    ASSERT_EQ(va, b.NextU64());
    c_differs |= va != c.NextU64();
    d_differs |= va != d.NextU64();
  }
  EXPECT_TRUE(c_differs) << "neighbouring streams must decorrelate";
  EXPECT_TRUE(d_differs) << "neighbouring seeds must decorrelate";
}

TEST(RngStreamTest, StreamValuesMatchAcrossPoolSizes) {
  // Sampling keyed by item index is identical however the items are
  // scheduled — the property every parallel solver relies on.
  auto draw = [](int threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(256);
    pool.ParallelFor(0, 256, 5, [&](int64_t i) {
      Rng rng = Rng::ForStream(99, static_cast<uint64_t>(i));
      out[i] = rng.NextU64();
    });
    return out;
  };
  EXPECT_EQ(draw(1), draw(6));
}

}  // namespace
}  // namespace wgrap
