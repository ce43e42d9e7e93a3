#include "common/failpoint.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace wgrap::failpoint {

namespace {

Status InjectedStatus(StatusCode code, const char* name);

struct Armed {
  bool error = false;
  StatusCode code = StatusCode::kInternal;
  int delay_ms = 0;
  bool oneshot = false;
  int64_t trips = 0;
  /// Per-name obs counter (wgrap_failpoint_trips_total{name="..."}),
  /// null when telemetry is disabled.
  obs::Counter* counter = nullptr;
};

/// The process-wide armed set. `armed_count` is the hot-path gate: sites
/// load it relaxed and bail before ever touching the mutex, so a disarmed
/// build pays one uncontended atomic load per boundary crossing.
class Registry {
 public:
  static Registry& Get() {
    static Registry* const registry = new Registry();
    return *registry;
  }

  Status Check(const char* name) {
    Armed hit;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = armed_.find(name);
      if (it == armed_.end()) return Status::OK();
      ++it->second.trips;
      if (it->second.counter != nullptr) it->second.counter->Add();
      hit = it->second;
      if (it->second.oneshot) {
        armed_.erase(it);
        count_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (hit.delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(hit.delay_ms));
    }
    if (hit.error) return InjectedStatus(hit.code, name);
    return Status::OK();
  }

  Status Arm(const std::string& name, const Armed& armed) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = armed_.try_emplace(name);
    it->second = armed;
    it->second.counter = obs::Registry::Global().GetCounter(
        "wgrap_failpoint_trips_total{name=\"" + name + "\"}");
    if (inserted) count_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Disarm(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (armed_.erase(name) == 0) {
      return Status::NotFound("failpoint '" + name + "' is not armed");
    }
    count_.fetch_sub(1, std::memory_order_relaxed);
    return Status::OK();
  }

  void DisarmAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_.clear();
    count_.store(0, std::memory_order_relaxed);
  }

  std::vector<ArmedInfo> List() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ArmedInfo> out;
    for (const auto& [name, armed] : armed_) {  // std::map: name-sorted
      ArmedInfo info;
      info.name = name;
      info.spec = RenderSpec(armed);
      info.trips = armed.trips;
      out.push_back(std::move(info));
    }
    return out;
  }

  bool AnyArmed() const {
    return count_.load(std::memory_order_relaxed) != 0;
  }

  static std::string RenderSpec(const Armed& armed) {
    std::string spec;
    auto append = [&spec](const std::string& action) {
      if (!spec.empty()) spec += '|';
      spec += action;
    };
    if (armed.error) {
      append(std::string("error:") + StatusCodeToString(armed.code));
    }
    if (armed.delay_ms > 0) {
      append("delay:" + std::to_string(armed.delay_ms));
    }
    if (armed.oneshot) append("oneshot");
    return spec;
  }

 private:
  Registry() {
    // Schedules from the environment arm before the first site can trip —
    // both the gate and Check() funnel through Get().
    if (const char* env = std::getenv("WGRAP_FAILPOINTS");
        env != nullptr && *env != '\0') {
      // A malformed env schedule must not be silently dropped in a server
      // that is about to "survive" a chaos run vacuously.
      const Status armed = ArmListLocked(env);
      if (!armed.ok()) {
        std::fprintf(stderr, "WGRAP_FAILPOINTS: %s\n",
                     armed.ToString().c_str());
        std::abort();
      }
    }
  }

  Status ArmListLocked(const std::string& list);

  mutable std::mutex mutex_;
  std::map<std::string, Armed> armed_;
  std::atomic<int> count_{0};
};

/// The Status an armed `error[:Code]` action injects, message-stamped with
/// the site name so a chaos failure log reads back to its schedule.
Status InjectedStatus(StatusCode code, const char* name) {
  const std::string message = std::string("failpoint '") + name +
                              "' injected " + StatusCodeToString(code);
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kCancelled:
      return Status::Cancelled(message);
    case StatusCode::kInfeasible:
      return Status::Infeasible(message);
    case StatusCode::kUnbounded:
      return Status::Unbounded(message);
    case StatusCode::kNumericalError:
      return Status::NumericalError(message);
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(message);
}

Result<StatusCode> ParseCodeName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument,   StatusCode::kNotFound,
      StatusCode::kOutOfRange,        StatusCode::kFailedPrecondition,
      StatusCode::kResourceExhausted, StatusCode::kUnavailable,
      StatusCode::kCancelled,         StatusCode::kInfeasible,
      StatusCode::kUnbounded,         StatusCode::kNumericalError,
      StatusCode::kInternal,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  return Status::InvalidArgument("unknown status code '" + name +
                                 "' in failpoint spec");
}

Result<Armed> ParseSpec(const std::string& spec) {
  Armed armed;
  if (spec.empty()) {
    return Status::InvalidArgument("empty failpoint spec");
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t bar = spec.find('|', start);
    const std::string action =
        spec.substr(start, bar == std::string::npos ? spec.size() - start
                                                    : bar - start);
    if (action == "error") {
      armed.error = true;
      armed.code = StatusCode::kInternal;
    } else if (action.rfind("error:", 0) == 0) {
      auto code = ParseCodeName(action.substr(6));
      if (!code.ok()) return code.status();
      armed.error = true;
      armed.code = *code;
    } else if (action.rfind("delay:", 0) == 0) {
      const std::string ms = action.substr(6);
      int value = 0;
      if (!ParseInt(ms, &value) || value < 0 || value > 60'000) {
        return Status::InvalidArgument(
            "bad delay '" + ms + "' in failpoint spec (0..60000 ms)");
      }
      armed.delay_ms = value;
    } else if (action == "oneshot") {
      armed.oneshot = true;
    } else {
      return Status::InvalidArgument(
          "unknown failpoint action '" + action +
          "' (use error[:Code], delay:<ms>, oneshot)");
    }
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  if (!armed.error && armed.delay_ms == 0) {
    return Status::InvalidArgument(
        "failpoint spec '" + spec + "' has no error or delay action");
  }
  return armed;
}

Status Registry::ArmListLocked(const std::string& list) {
  // Private to the constructor: mutex_ is not held yet and no other thread
  // can reach the registry before Get() returns.
  std::size_t start = 0;
  while (start < list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected name=spec, got '" + entry +
                                     "'");
    }
    auto armed = ParseSpec(entry.substr(eq + 1));
    if (!armed.ok()) return armed.status();
    WGRAP_RETURN_IF_ERROR(Arm(entry.substr(0, eq), *armed));
  }
  return Status::OK();
}

}  // namespace

bool CompiledIn() {
#ifdef WGRAP_FAILPOINT_DISABLED
  return false;
#else
  return true;
#endif
}

Status Check(const char* name) {
  Registry& registry = Registry::Get();
  if (!registry.AnyArmed()) return Status::OK();
  return registry.Check(name);
}

Status Arm(const std::string& name, const std::string& spec) {
#ifdef WGRAP_FAILPOINT_DISABLED
  (void)name;
  (void)spec;
  return Status::FailedPrecondition(
      "failpoints compiled out (WGRAP_FAILPOINT_DISABLED)");
#else
  if (name.empty()) {
    return Status::InvalidArgument("failpoint name must be non-empty");
  }
  auto armed = ParseSpec(spec);
  if (!armed.ok()) return armed.status();
  return Registry::Get().Arm(name, *armed);
#endif
}

Status ArmList(const std::string& list) {
  std::size_t start = 0;
  while (start < list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected name=spec, got '" + entry +
                                     "'");
    }
    WGRAP_RETURN_IF_ERROR(Arm(entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

Status Disarm(const std::string& name) {
#ifdef WGRAP_FAILPOINT_DISABLED
  (void)name;
  return Status::FailedPrecondition(
      "failpoints compiled out (WGRAP_FAILPOINT_DISABLED)");
#else
  return Registry::Get().Disarm(name);
#endif
}

void DisarmAll() {
#ifndef WGRAP_FAILPOINT_DISABLED
  Registry::Get().DisarmAll();
#endif
}

std::vector<ArmedInfo> List() {
#ifdef WGRAP_FAILPOINT_DISABLED
  return {};
#else
  return Registry::Get().List();
#endif
}

}  // namespace wgrap::failpoint
