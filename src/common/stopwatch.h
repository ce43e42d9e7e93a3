// Wall-clock timing helpers used by solvers (time budgets) and benches.
#ifndef WGRAP_COMMON_STOPWATCH_H_
#define WGRAP_COMMON_STOPWATCH_H_

#include <chrono>

namespace wgrap {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft deadline: solvers poll Expired() on coarse-grained boundaries and
/// return Status::ResourceExhausted when it fires. A non-positive budget
/// means "no limit".
class Deadline {
 public:
  /// No limit.
  Deadline() : limit_seconds_(-1.0) {}

  explicit Deadline(double limit_seconds) : limit_seconds_(limit_seconds) {}

  bool HasLimit() const { return limit_seconds_ > 0.0; }

  bool Expired() const {
    return HasLimit() && watch_.ElapsedSeconds() >= limit_seconds_;
  }

 private:
  double limit_seconds_;
  Stopwatch watch_;
};

}  // namespace wgrap

#endif  // WGRAP_COMMON_STOPWATCH_H_
