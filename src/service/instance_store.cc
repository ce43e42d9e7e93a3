#include "service/instance_store.h"

#include <utility>

#include "common/check.h"
#include "common/failpoint.h"

namespace wgrap::service {

InstanceStore::InstanceStore() = default;

InstanceStore::~InstanceStore() = default;

namespace {

// What both Open overloads check before building or touching anything.
Status CheckOpen(const std::string& name) {
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("store.open"));
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  return Status::OK();
}

}  // namespace

Result<SessionSnapshot> InstanceStore::Open(
    const std::string& name, const data::RapDataset& dataset,
    const core::InstanceParams& params) {
  WGRAP_RETURN_IF_ERROR(CheckOpen(name));
  auto instance = core::Instance::FromDataset(dataset, params);
  if (!instance.ok()) return instance.status();
  return Insert(name, *std::move(instance), params);
}

Result<SessionSnapshot> InstanceStore::Open(
    const std::string& name, core::Instance instance,
    const core::InstanceParams& params) {
  WGRAP_RETURN_IF_ERROR(CheckOpen(name));
  return Insert(name, std::move(instance), params);
}

Result<SessionSnapshot> InstanceStore::Insert(
    const std::string& name, core::Instance instance,
    const core::InstanceParams& params) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.count(name) != 0) {
    return Status::FailedPrecondition("session '" + name +
                                      "' is already open");
  }
  Session& session = sessions_[name];
  session.params = params;
  session.instance = std::make_unique<core::Instance>(std::move(instance));
  session.updater = std::make_unique<core::InstanceUpdater>(
      session.instance.get(), params);
  session.snapshot.name = name;
  session.snapshot.params = params;
  Publish(&session);
  return session.snapshot;
}

Result<SessionSnapshot> InstanceStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + name + "'");
  }
  return it->second.snapshot;
}

SessionInfo InfoOf(const SessionSnapshot& snapshot) {
  SessionInfo info;
  info.name = snapshot.name;
  info.version = snapshot.version;
  info.papers = snapshot.instance->num_papers();
  info.reviewers = snapshot.instance->num_reviewers();
  info.topics = snapshot.instance->num_topics();
  info.has_assignment = snapshot.assignment != nullptr;
  return info;
}

std::vector<SessionInfo> InstanceStore::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionInfo> out;
  // The published snapshot equals the master lineage whenever the lock is
  // free, so its row is the session's.
  for (const auto& [name, session] : sessions_) {
    out.push_back(InfoOf(session.snapshot));
  }
  return out;
}

Status InstanceStore::Close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.erase(name) == 0) {
    return Status::NotFound("no session '" + name + "'");
  }
  // Snapshots held by in-flight jobs keep their shared_ptrs alive; only
  // the master lineage dies here.
  return Status::OK();
}

Status InstanceStore::InstallLocked(
    Session* session, const std::vector<std::pair<int, int>>& pairs) {
  // Build the candidate first; the session is only touched on success.
  auto assignment =
      std::make_unique<core::Assignment>(session->instance.get());
  for (const auto& [p, r] : pairs) {
    WGRAP_RETURN_IF_ERROR(assignment->AddUnchecked(p, r));
  }
  session->assignment = std::move(assignment);
  session->updater->TrackAssignment(session->assignment.get());
  Publish(session);
  return Status::OK();
}

Result<SessionSnapshot> InstanceStore::InstallAssignment(
    const std::string& name, const std::vector<std::pair<int, int>>& pairs) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + name + "'");
  }
  // Before InstallLocked, never inside it: RestoreFromSnapshot replays
  // through InstallLocked and (correctly) asserts that replay cannot fail.
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("store.install"));
  WGRAP_RETURN_IF_ERROR(InstallLocked(&it->second, pairs));
  return it->second.snapshot;
}

Result<SessionSnapshot> InstanceStore::InstallAssignmentIfCurrent(
    const std::string& name, int64_t expected_version,
    const std::vector<std::pair<int, int>>& pairs) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + name + "'");
  }
  if (it->second.version != expected_version) {
    return Status::FailedPrecondition(
        "session '" + name + "' moved to v" +
        std::to_string(it->second.version) + " (result was for v" +
        std::to_string(expected_version) + ")");
  }
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("store.cas"));
  WGRAP_RETURN_IF_ERROR(InstallLocked(&it->second, pairs));
  return it->second.snapshot;
}

Result<MutateOutcome> InstanceStore::Mutate(
    const std::string& name, const std::vector<core::InstanceUpdate>& updates) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + name + "'");
  }
  Session& session = it->second;
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("store.mutate"));
  auto report = session.updater->ApplyAll(updates);
  if (!report.ok()) {
    // ApplyAll stops at the first bad op with the prefix applied; roll the
    // master back to the published snapshot so the batch stays atomic.
    RestoreFromSnapshot(&session);
    return report.status();
  }
  // A publish fault lands after the whole batch applied cleanly — the
  // hardest rollback case, exercising RestoreFromSnapshot's full replay.
  if (const Status publish = WGRAP_INJECT_FAULT("store.publish");
      !publish.ok()) {
    RestoreFromSnapshot(&session);
    return publish;
  }
  Publish(&session);
  MutateOutcome outcome;
  outcome.snapshot = session.snapshot;
  outcome.report = *std::move(report);
  return outcome;
}

void InstanceStore::Publish(Session* session) {
  ++session->version;
  session->snapshot.version = session->version;
  auto instance = std::make_shared<core::Instance>(*session->instance);
  session->snapshot.instance = instance;
  if (session->assignment != nullptr) {
    auto copy = std::make_shared<core::Assignment>(instance.get());
    for (int p = 0; p < instance->num_papers(); ++p) {
      for (int r : session->assignment->GroupFor(p)) {
        const Status added = copy->AddUnchecked(p, r);
        WGRAP_CHECK_MSG(added.ok(), "snapshot replay must accept the "
                                    "master's own pairs");
      }
    }
    // Normalize so snapshot scores are independent of the master's
    // accumulation history (same move core/update.h documents).
    copy->RecomputeAll();
    session->snapshot.assignment = std::move(copy);
  } else {
    session->snapshot.assignment.reset();
  }
}

void InstanceStore::RestoreFromSnapshot(Session* session) {
  const SessionSnapshot& snap = session->snapshot;
  session->instance = std::make_unique<core::Instance>(*snap.instance);
  session->updater = std::make_unique<core::InstanceUpdater>(
      session->instance.get(), session->params);
  session->assignment.reset();
  if (snap.assignment != nullptr) {
    std::vector<std::pair<int, int>> pairs;
    for (int p = 0; p < snap.instance->num_papers(); ++p) {
      for (int r : snap.assignment->GroupFor(p)) pairs.emplace_back(p, r);
    }
    const Status restored = InstallLocked(session, pairs);
    WGRAP_CHECK_MSG(restored.ok(),
                    "restoring the published snapshot cannot fail");
    // InstallLocked published a fresh snapshot (version bump) — that is
    // fine: versions only ever move forward, even on rollback.
  }
}

}  // namespace wgrap::service
