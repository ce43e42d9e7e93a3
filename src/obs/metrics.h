// Low-overhead telemetry registry: counters, gauges and fixed-bucket
// histograms, designed so a hook on a solver hot path costs one branch
// plus one relaxed atomic add — never a lock, never an allocation.
//
// Write path: counter and histogram cells are sharded per thread
// (cache-line-aligned atomics, relaxed ordering) so concurrent writers
// from the ThreadPool never contend on one line; readers merge the shards
// at scrape time. That makes every instrument TSan-clean by construction
// (tests/obs_test.cc hammers them from 8 threads under the TSan CI job).
//
// Kill switch: when telemetry is off (`WGRAP_OBS=0` in the environment)
// the registry registers nothing and every Get* returns nullptr, so the
// canonical call-site idiom reduces to a single never-taken branch:
//
//   static obs::Counter* const fallbacks =
//       obs::Registry::Global().GetCounter("wgrap_lap_auction_fallbacks");
//   if (fallbacks) fallbacks->Add();
//
// Invariant carried from every prior PR: telemetry never perturbs
// results. Nothing here feeds back into solver decisions, response
// payloads, or any byte-diffed output — metrics are observed through the
// `stats` protocol command / RenderPrometheus() only.
#ifndef WGRAP_OBS_METRICS_H_
#define WGRAP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wgrap::obs {

/// Process-wide runtime kill switch: false when the environment says
/// WGRAP_OBS=0|off|false (read once, at first use).
bool Enabled();

/// Threads map onto this many write shards; a power of two so the modulo
/// folds to a mask. 16 covers the repo's thread-pool fan-outs without
/// false sharing.
inline constexpr unsigned kNumShards = 16;

/// Stable per-thread shard index in [0, kNumShards).
unsigned ShardIndex();

/// Monotone event count. Add() is wait-free: one relaxed fetch_add on the
/// calling thread's shard.
class Counter {
 public:
  void Add(int64_t n = 1) {
    cells_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Merged value across shards (scrape-time read; monotone between
  /// scrapes as long as all Adds are non-negative).
  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };
  Cell cells_[kNumShards];
};

/// Last-write-wins instantaneous value (queue depth, resident sessions).
/// Gauges are written on coarse boundaries (submit/dequeue), so one atomic
/// is enough — no sharding.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// finite buckets (ascending); one implicit +Inf bucket catches the rest.
/// Observe() is two relaxed atomic adds on the caller's shard. Sum is
/// maintained in nanounits (value × 1e9, rounded) so the shard cells stay
/// plain int64 atomics — exact enough for latency accounting and portable
/// (no atomic<double> RMW needed).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  int64_t Count() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged per-bucket counts, size bounds().size() + 1 (last = +Inf).
  std::vector<int64_t> BucketCounts() const;
  /// Bucket-interpolated quantile (q in [0, 1]): the classic Prometheus
  /// histogram_quantile estimate. 0 when empty; values landing in the
  /// +Inf bucket report the largest finite bound.
  double Quantile(double q) const;

  void Reset();

 private:
  struct alignas(64) Shard {
    explicit Shard(size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<int64_t>> counts;  // bounds.size() + 1
    std::atomic<int64_t> sum_nano{0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// `count` upper edges starting at `start`, each ×`factor`: the standard
/// exponential latency grid.
std::vector<double> ExponentialBounds(double start, double factor, int count);

/// 10 µs … ~80 s in ×2 steps — wide enough for both a sub-millisecond
/// evaluate and a multi-second cold solve.
const std::vector<double>& DefaultLatencyBounds();

/// Named-instrument registry. Get* registers on first use and returns a
/// stable handle (never invalidated; instruments are never erased), or
/// nullptr when the registry is disabled — in which case nothing is
/// registered at all and RenderPrometheus() stays empty.
///
/// `Global()` is the process registry every instrumented call site uses;
/// separate instances exist for tests.
class Registry {
 public:
  /// `enabled` defaults to the process kill switch.
  explicit Registry(bool enabled = Enabled());

  static Registry& Global();

  bool enabled() const { return enabled_; }

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Empty `bounds` selects DefaultLatencyBounds(). The bounds of the
  /// first registration win; later calls with the same name return the
  /// existing histogram regardless.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Registered instrument names, sorted (empty when disabled).
  std::vector<std::string> Names() const;

  /// Prometheus text exposition, instruments sorted by name — the payload
  /// of the line protocol's `stats` command.
  std::string RenderPrometheus() const;

  /// Zeroes every registered instrument (test/bench isolation).
  void Reset();

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace wgrap::obs

#endif  // WGRAP_OBS_METRICS_H_
