// Cooperative cancellation for long-running solves. A CancelToken is a
// shared flag the owner (typically the service job queue) flips to true;
// solvers poll it at the same coarse-grained boundaries where they poll
// their Deadline (SDGA stage starts, SRA/LS rounds, greedy/BRGG commits,
// RRAP reviewer scans, ILP-ARAP's JV unit insertions) and abort with
// Status::Cancelled. Like the time budget, cancellation is best-effort and
// coarse: a solve that finishes before the next poll returns its result
// normally.
#ifndef WGRAP_COMMON_CANCEL_H_
#define WGRAP_COMMON_CANCEL_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "common/status.h"

namespace wgrap {

/// Shared cancellation flag. Null = never cancelled. shared_ptr so the
/// requesting side (which may outlive or predecease the solve) and the
/// solver can both hold it safely.
using CancelToken = std::shared_ptr<const std::atomic<bool>>;

/// Allocates a fresh, unset token (the owner keeps the mutable alias).
inline std::shared_ptr<std::atomic<bool>> MakeCancelSource() {
  return std::make_shared<std::atomic<bool>>(false);
}

inline bool IsCancelled(const CancelToken& token) {
  return token != nullptr && token->load(std::memory_order_relaxed);
}

inline Status CheckNotCancelled(const CancelToken& token, const char* what) {
  // Every solver polls here at its deadline-check boundaries, so this one
  // site gives the chaos suite a hook into all of them ("solver.poll").
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("solver.poll"));
  if (IsCancelled(token)) {
    return Status::Cancelled(std::string(what) + " cancelled");
  }
  return Status::OK();
}

}  // namespace wgrap

#endif  // WGRAP_COMMON_CANCEL_H_
