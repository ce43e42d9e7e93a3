#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wgrap::obs {

bool Enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("WGRAP_OBS");
    if (env == nullptr) return true;
    return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
           std::strcmp(env, "false") != 0;
  }();
  return enabled;
}

unsigned ShardIndex() {
  static std::atomic<unsigned> next{0};
  // Round-robin assignment at first use per thread; short-lived pool
  // threads recycle shard slots, which is fine — shards only reduce
  // contention, they carry no identity.
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return index;
}

namespace {

constexpr double kNanoScale = 1e9;

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBounds();
  std::sort(bounds_.begin(), bounds_.end());
  shards_.reserve(kNumShards);
  for (unsigned i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::Observe(double value) {
  // lower_bound: the first bound >= value, i.e. `le` edges are inclusive
  // (the Prometheus convention the header documents).
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  Shard& shard = *shards_[ShardIndex()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  const double nano = value * kNanoScale;
  // Saturate instead of overflowing on absurd observations; the sum is
  // accounting, not arithmetic anyone branches on.
  const int64_t add =
      std::isfinite(nano)
          ? static_cast<int64_t>(std::llround(std::clamp(
                nano, -9.2e18, 9.2e18)))
          : 0;
  shard.sum_nano.fetch_add(add, std::memory_order_relaxed);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& cell : shard->counts) {
      total += cell.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  int64_t nano = 0;
  for (const auto& shard : shards_) {
    nano += shard->sum_nano.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nano) / kNanoScale;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> merged(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t b = 0; b < merged.size(); ++b) {
      merged[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

double Histogram::Quantile(double q) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const double next = cumulative + static_cast<double>(counts[b]);
    if (next >= rank && counts[b] > 0) {
      if (b >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
      const double lower = b == 0 ? 0.0 : bounds_[b - 1];
      const double upper = bounds_[b];
      const double within =
          (rank - cumulative) / static_cast<double>(counts[b]);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (auto& cell : shard->counts) {
      cell.store(0, std::memory_order_relaxed);
    }
    shard->sum_nano.store(0, std::memory_order_relaxed);
  }
}

std::vector<double> ExponentialBounds(double start, double factor,
                                      int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(count, 0)));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

const std::vector<double>& DefaultLatencyBounds() {
  static const std::vector<double> bounds =
      ExponentialBounds(1e-5, 2.0, 24);  // 10 µs … ~84 s
  return bounds;
}

Registry::Registry(bool enabled) : enabled_(enabled) {}

Registry& Registry::Global() {
  static Registry* const registry = new Registry();  // never destroyed:
  // instrument handles are cached in function-local statics across the
  // codebase and may be touched during late shutdown.
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::vector<std::string> Registry::Names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, _] : counters_) names.push_back(name);
  for (const auto& [name, _] : gauges_) names.push_back(name);
  for (const auto& [name, _] : histograms_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // One rendered block per instrument, merged across the three typed maps
  // and sorted globally by name, so the page reads as one alphabetical
  // listing regardless of instrument kind.
  std::vector<std::pair<std::string, std::string>> blocks;
  for (const auto& [name, counter] : counters_) {
    blocks.emplace_back(name, "# TYPE " + name + " counter\n" + name + " " +
                                  std::to_string(counter->Value()) + "\n");
  }
  for (const auto& [name, gauge] : gauges_) {
    blocks.emplace_back(name, "# TYPE " + name + " gauge\n" + name + " " +
                                  std::to_string(gauge->Value()) + "\n");
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string block = "# TYPE " + name + " histogram\n";
    const std::vector<int64_t> counts = histogram->BucketCounts();
    const std::vector<double>& bounds = histogram->bounds();
    int64_t cumulative = 0;
    for (size_t b = 0; b < bounds.size(); ++b) {
      cumulative += counts[b];
      block += name + "_bucket{le=\"" + FormatDouble(bounds[b]) + "\"} " +
               std::to_string(cumulative) + "\n";
    }
    cumulative += counts.back();
    block +=
        name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    block += name + "_sum " + FormatDouble(histogram->Sum()) + "\n";
    block += name + "_count " + std::to_string(cumulative) + "\n";
    blocks.emplace_back(name, std::move(block));
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (const auto& [name, block] : blocks) out += block;
  return out;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, counter] : counters_) counter->Reset();
  for (auto& [_, gauge] : gauges_) gauge->Reset();
  for (auto& [_, histogram] : histograms_) histogram->Reset();
}

}  // namespace wgrap::obs
