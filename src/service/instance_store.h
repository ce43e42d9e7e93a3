// Named-session store: the resident-state half of the service layer. Each
// session owns a live Instance (with its CSR sparse views) and an optional
// tracked Assignment, kept consistent through typed mutations by the
// core/update.h machinery, so the server stays up and instances never get
// re-parsed.
//
// Concurrency model — snapshots with copy-on-mutate:
//   - The master lineage (Instance + Assignment + the InstanceUpdater
//     tracking them) is mutable and guarded by the store mutex. Mutations
//     patch it in place.
//   - Readers never touch the master. Every accessor returns the current
//     SessionSnapshot: shared_ptr<const ...> copies published after each
//     change. An in-flight solve holds its snapshot for the whole run, so
//     a concurrent mutation can never race it — the solve sees the exact
//     version it started from, bit for bit (snapshot isolation; pinned by
//     tests/service_test.cc against a sequential run).
//   - Versions are monotonic per session. Installing a solve result uses
//     compare-and-set on the version, so a result computed against a
//     snapshot that a mutation has since superseded is kept as a job
//     result but not installed over newer state.
//
// c(AI) is not store state: a snapshot's instance shares its c(AI) memo
// with the master it was copied from (core/instance.h), and a mutation of
// the master detaches it, so `evaluate` on a snapshot re-derives only the
// papers mutated since the memo was last filled.
#ifndef WGRAP_SERVICE_INSTANCE_STORE_H_
#define WGRAP_SERVICE_INSTANCE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "core/update.h"
#include "data/dataset.h"

namespace wgrap::service {

/// Immutable view of one session at one version. `instance` is always
/// set; `assignment` is null until one is installed (by PutAssignment or
/// a completed solve job) and is bound to exactly this `instance`.
struct SessionSnapshot {
  std::string name;
  int64_t version = 0;
  core::InstanceParams params;
  std::shared_ptr<const core::Instance> instance;
  std::shared_ptr<const core::Assignment> assignment;
};

/// Summary row for listings (`sessions` command).
struct SessionInfo {
  std::string name;
  int64_t version = 0;
  int papers = 0;
  int reviewers = 0;
  int topics = 0;
  bool has_assignment = false;
};

/// The listing row of one snapshot: every reply that names a session
/// (open, install, mutate, `sessions`) renders from this.
SessionInfo InfoOf(const SessionSnapshot& snapshot);

/// What a Mutate did: the new snapshot plus the update report (applied op
/// count, evicted pairs) the response text is rendered from.
struct MutateOutcome {
  SessionSnapshot snapshot;
  core::UpdateReport report;
};

/// Thread-safe session store. All methods may be called concurrently.
class InstanceStore {
 public:
  InstanceStore();
  ~InstanceStore();

  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;

  /// Builds an Instance from the dataset and opens a session under `name`.
  /// kFailedPrecondition if the name is taken; construction errors pass
  /// through.
  Result<SessionSnapshot> Open(const std::string& name,
                               const data::RapDataset& dataset,
                               const core::InstanceParams& params);
  /// Opens a session over an instance built elsewhere — e.g. one carrying
  /// COIs or bids (Instance::SetBids), which a dataset cannot. `params`
  /// must be the ones `instance` was built with.
  Result<SessionSnapshot> Open(const std::string& name,
                               core::Instance instance,
                               const core::InstanceParams& params);

  /// Current snapshot. kNotFound for unknown sessions.
  Result<SessionSnapshot> Get(const std::string& name) const;

  std::vector<SessionInfo> List() const;

  Status Close(const std::string& name);

  /// Installs (replacing any previous) the tracked assignment from
  /// (paper, reviewer) pairs and publishes a new snapshot. The master is
  /// built by core::Assignment::FromPairs: AddUnchecked's checks in pair
  /// order, groups in pair order, one RecomputeAll. The first invalid pair
  /// (out of range, duplicate, COI) rejects the whole install with
  /// AddUnchecked's Status and leaves the session unchanged.
  Result<SessionSnapshot> InstallAssignment(
      const std::string& name, const std::vector<std::pair<int, int>>& pairs);

  /// Compare-and-set variant for async solve results: installs only when
  /// the session is still at `expected_version` (i.e. no mutation landed
  /// while the solve ran). Returns kFailedPrecondition with the current
  /// version otherwise; the caller keeps its result, the session keeps
  /// newer state.
  Result<SessionSnapshot> InstallAssignmentIfCurrent(
      const std::string& name, int64_t expected_version,
      const std::vector<std::pair<int, int>>& pairs);

  /// Applies the updates to the master lineage (assignment evictions
  /// included, via InstanceUpdater) and publishes a new snapshot. Atomic
  /// at the snapshot level: on a mid-batch failure the already-applied
  /// prefix is rolled back by rebuilding the master from the last
  /// published snapshot, so readers and the master never see a
  /// half-applied batch.
  Result<MutateOutcome> Mutate(const std::string& name,
                               const std::vector<core::InstanceUpdate>& updates);

 private:
  struct Session {
    core::InstanceParams params;
    // Master lineage — mutable, guarded by mutex_.
    std::unique_ptr<core::Instance> instance;
    std::unique_ptr<core::Assignment> assignment;  // null until installed
    std::unique_ptr<core::InstanceUpdater> updater;
    int64_t version = 0;
    // Published copy (readers take shared_ptr copies of this).
    SessionSnapshot snapshot;
  };

  /// Registers a new session over `instance` and publishes v1.
  Result<SessionSnapshot> Insert(const std::string& name,
                                 core::Instance instance,
                                 const core::InstanceParams& params);
  /// Copies the master into session.snapshot (bumping the version). A
  /// `normalized` master assignment (InstallLocked just built it with
  /// FromPairs) is copied, rebound to the copied instance
  /// (Assignment::ReboundTo: O(P·(δp + T)) copies). A master the updater
  /// patched is rebuilt as FromPairs of its Pairs() on the copied instance
  /// (O(P·δp²) pair checks and one RecomputeAll: O(P·δp·T) folds and P
  /// scores). Either way the snapshot is bitwise the FromPairs build of
  /// its groups, so its scores equal any other assignment's with the same
  /// groups; no marginal gain is summed per pair.
  void Publish(Session* session, bool normalized);
  Status InstallLocked(Session* session,
                       const std::vector<std::pair<int, int>>& pairs);
  /// Rebuilds the master lineage from the published snapshot (mutation
  /// rollback path).
  void RestoreFromSnapshot(Session* session);

  mutable std::mutex mutex_;
  std::map<std::string, Session> sessions_;
};

}  // namespace wgrap::service

#endif  // WGRAP_SERVICE_INSTANCE_STORE_H_
