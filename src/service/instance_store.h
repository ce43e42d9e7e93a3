// Named-session store: the resident-state half of the service layer. Each
// session owns a live Instance (with its topic views) and an optional
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
// What a write publishes — each from state it already holds, and each
// snapshot bitwise the Assignment::FromPairs build of its pairs on its own
// instance, with no stale row and in step with that instance's revision
// (Assignment::RecomputeAll):
//   - An install (PutAssignment's pairs, or a job's finished result at a
//     matched version) leaves the instance as it was, so the new snapshot
//     shares the published shared_ptr<const Instance>. The installed
//     assignment is normalized (FromPairs, or RecomputeAll on the job's
//     result, which re-derives only the rows the job's Adds left stale),
//     becomes the snapshot's assignment as is, and the master gets an
//     Assignment::ReboundTo copy of it, flags and revision included.
//   - A mutate changed the master instance, so the snapshot gets a copy of
//     it. The master assignment needs no rebuild: the updater tracking it
//     changes it only through Remove and per-paper recomputes, which keep
//     every paper's group vector and score exact, and keeps it in step
//     with the instance's revision. Only its total depends on the mutation
//     history, so Assignment::RecomputeAll re-derives no row and re-sums
//     it in paper order, and the snapshot gets the master ReboundTo the
//     instance copy: O(instance + P·(δp + T)) copies, no fold and no
//     score. A resolve of that snapshot therefore starts with no row to
//     re-derive.
//   - A rolled-back batch restores the master from the published snapshot
//     (an instance copy and a ReboundTo copy of its assignment). A session
//     holding an assignment then republishes that snapshot's state under
//     the next version, so versions only move forward.
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
  /// (paper, reviewer) pairs and publishes a new snapshot over the same
  /// instance. The assignment is built by core::Assignment::FromPairs on
  /// the published instance: AddUnchecked's checks in pair order, groups
  /// in pair order, one RecomputeAll. The first invalid pair (out of
  /// range, duplicate, COI) rejects the whole install with AddUnchecked's
  /// Status and leaves the session unchanged.
  Result<SessionSnapshot> InstallAssignment(
      const std::string& name, const std::vector<std::pair<int, int>>& pairs);

  /// Compare-and-set install of a job's finished result: installs only
  /// when the session is still at `expected_version` (i.e. no mutation
  /// landed while the job ran). `result` must be bound to the instance of
  /// the snapshot at that version (WGRAP_CHECKed); its cached scores may
  /// carry any accumulation history, since one RecomputeAll (its stale
  /// rows, and the total) normalizes it before it is published as is over
  /// the same instance. Returns
  /// kFailedPrecondition with the current version otherwise; the caller
  /// keeps its result, the session keeps newer state.
  Result<SessionSnapshot> InstallAssignmentIfCurrent(
      const std::string& name, int64_t expected_version,
      core::Assignment result);

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
  /// Bumps the version and publishes `instance` and `assignment` (null,
  /// or bound to `instance`) as the session's snapshot.
  void Publish(Session* session,
               std::shared_ptr<const core::Instance> instance,
               std::shared_ptr<const core::Assignment> assignment);
  /// Publishes the master after its instance changed (open, mutate): an
  /// instance copy, and the master assignment with its total re-summed in
  /// paper order, ReboundTo that copy.
  void PublishCopy(Session* session);
  /// Makes `assignment` (normalized, bound to the published instance) the
  /// master's, by a ReboundTo copy, and publishes it over that instance.
  void InstallLocked(Session* session, core::Assignment assignment);
  /// Rebuilds the master lineage from the published snapshot (mutation
  /// rollback path).
  void RestoreFromSnapshot(Session* session);

  mutable std::mutex mutex_;
  std::map<std::string, Session> sessions_;
};

}  // namespace wgrap::service

#endif  // WGRAP_SERVICE_INSTANCE_STORE_H_
