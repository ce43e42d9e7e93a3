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
  PublishCopy(&session);
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

Result<SessionSnapshot> InstanceStore::InstallAssignment(
    const std::string& name, const std::vector<std::pair<int, int>>& pairs) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + name + "'");
  }
  WGRAP_RETURN_IF_ERROR(WGRAP_INJECT_FAULT("store.install"));
  Session& session = it->second;
  // Build the candidate first; the session is only touched on success.
  auto assignment =
      core::Assignment::FromPairs(session.snapshot.instance.get(), pairs);
  if (!assignment.ok()) return assignment.status();
  InstallLocked(&session, *std::move(assignment));
  return session.snapshot;
}

Result<SessionSnapshot> InstanceStore::InstallAssignmentIfCurrent(
    const std::string& name, int64_t expected_version,
    core::Assignment result) {
  // The result and the snapshot instance it is bound to are immutable to
  // everyone else, so it is normalized before the lock is taken.
  result.RecomputeAll();
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
  InstallLocked(&it->second, std::move(result));
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
  // hardest rollback case, exercising RestoreFromSnapshot's full rebuild.
  if (const Status publish = WGRAP_INJECT_FAULT("store.publish");
      !publish.ok()) {
    RestoreFromSnapshot(&session);
    return publish;
  }
  PublishCopy(&session);
  MutateOutcome outcome;
  outcome.snapshot = session.snapshot;
  outcome.report = *std::move(report);
  return outcome;
}

void InstanceStore::Publish(Session* session,
                            std::shared_ptr<const core::Instance> instance,
                            std::shared_ptr<const core::Assignment> assignment) {
  session->snapshot.version = ++session->version;
  session->snapshot.instance = std::move(instance);
  session->snapshot.assignment = std::move(assignment);
}

void InstanceStore::PublishCopy(Session* session) {
  auto instance = std::make_shared<const core::Instance>(*session->instance);
  std::shared_ptr<const core::Assignment> assignment;
  if (session->assignment != nullptr) {
    session->assignment->RecomputeAll();
    assignment = std::make_shared<const core::Assignment>(
        session->assignment->ReboundTo(instance.get()));
  }
  Publish(session, std::move(instance), std::move(assignment));
}

void InstanceStore::InstallLocked(Session* session,
                                  core::Assignment assignment) {
  WGRAP_CHECK_MSG(&assignment.instance() == session->snapshot.instance.get(),
                  "an installed assignment must be bound to the published "
                  "instance");
  session->assignment = std::make_unique<core::Assignment>(
      assignment.ReboundTo(session->instance.get()));
  session->updater->TrackAssignment(session->assignment.get());
  Publish(session, session->snapshot.instance,
          std::make_shared<const core::Assignment>(std::move(assignment)));
}

void InstanceStore::RestoreFromSnapshot(Session* session) {
  const SessionSnapshot& snap = session->snapshot;
  session->instance = std::make_unique<core::Instance>(*snap.instance);
  session->updater = std::make_unique<core::InstanceUpdater>(
      session->instance.get(), session->params);
  session->assignment.reset();
  if (snap.assignment != nullptr) {
    session->assignment = std::make_unique<core::Assignment>(
        snap.assignment->ReboundTo(session->instance.get()));
    session->updater->TrackAssignment(session->assignment.get());
    // The restored state is republished under the next version: versions
    // only move forward, even on rollback, so a job that started before
    // the failed batch does not install.
    Publish(session, snap.instance, snap.assignment);
  }
}

}  // namespace wgrap::service
