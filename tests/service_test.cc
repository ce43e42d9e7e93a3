// Service-layer contracts: InstanceStore snapshot isolation and CAS
// installs, JobQueue lifecycle / eviction / cancellation, and the
// ServiceApi end-to-end properties the server depends on — most
// importantly that a solve racing a mutation produces byte-for-byte the
// result of a sequential solve on the snapshot it started from. The CI
// sanitizer jobs run this suite under TSan.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "core/update.h"
#include "data/io.h"
#include "fuzz_util.h"
#include "service/api.h"
#include "service/instance_store.h"
#include "service/job_queue.h"
#include "service/reports.h"

namespace wgrap::service {
namespace {

core::FuzzInstanceConfig SmallConfig() {
  core::FuzzInstanceConfig config;
  config.reviewers = 12;
  config.papers = 8;
  config.num_topics = 10;
  config.group_size = 3;
  config.seed = 99;
  return config;
}

std::string SmallDatasetCsv() {
  auto dataset = core::MakeFuzzDataset(SmallConfig());
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return data::DatasetToCsv(*dataset);
}

core::InstanceParams SmallParams() { return core::MakeFuzzParams(SmallConfig()); }

/// Opens `name` with the small dataset on `api` and fails the test on error.
SessionInfo OpenSmall(ServiceApi& api, const std::string& name) {
  OpenRequest request;
  request.session = name;
  request.dataset_csv = SmallDatasetCsv();
  request.params = SmallParams();
  auto response = api.Open(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response->info;
}

std::vector<std::pair<int, int>> SolvePairs(const core::Instance& instance) {
  auto assignment =
      core::SolverRegistry::Default().SolveCra("greedy", instance, {});
  EXPECT_TRUE(assignment.ok()) << assignment.status().ToString();
  std::vector<std::pair<int, int>> pairs;
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r : assignment->GroupFor(p)) pairs.emplace_back(p, r);
  }
  return pairs;
}

// --- InstanceStore -----------------------------------------------------------

TEST(InstanceStoreTest, OpenGetCloseLifecycle) {
  InstanceStore store;
  auto dataset = core::MakeFuzzDataset(SmallConfig());
  ASSERT_TRUE(dataset.ok());

  auto opened = store.Open("conf", *dataset, SmallParams());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->name, "conf");
  EXPECT_EQ(opened->version, 1);
  EXPECT_EQ(opened->instance->num_papers(), 8);
  EXPECT_EQ(opened->assignment, nullptr);

  // Duplicate names are rejected, empty names are invalid.
  EXPECT_EQ(store.Open("conf", *dataset, SmallParams()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Open("", *dataset, SmallParams()).status().code(),
            StatusCode::kInvalidArgument);

  auto got = store.Get("conf");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, 1);
  EXPECT_EQ(store.Get("nope").status().code(), StatusCode::kNotFound);

  EXPECT_EQ(store.List().size(), 1u);
  EXPECT_TRUE(store.Close("conf").ok());
  EXPECT_EQ(store.Close("conf").code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.List().empty());
}

TEST(InstanceStoreTest, InstallAssignmentPublishesNewVersion) {
  InstanceStore store;
  auto dataset = core::MakeFuzzDataset(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(store.Open("conf", *dataset, SmallParams()).ok());

  const auto pairs = SolvePairs(*store.Get("conf")->instance);
  auto installed = store.InstallAssignment("conf", pairs);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_EQ(installed->version, 2);
  ASSERT_NE(installed->assignment, nullptr);
  EXPECT_EQ(static_cast<size_t>(installed->assignment->size()), pairs.size());

  // An invalid pair rejects the whole install and leaves the session as-is.
  auto bad = store.InstallAssignment("conf", {{0, 0}, {0, 0}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(store.Get("conf")->version, 2);
}

TEST(InstanceStoreTest, SnapshotIsolationAcrossMutation) {
  InstanceStore store;
  auto dataset = core::MakeFuzzDataset(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(store.Open("conf", *dataset, SmallParams()).ok());
  ASSERT_TRUE(
      store.InstallAssignment("conf", SolvePairs(*store.Get("conf")->instance))
          .ok());

  // Pin the snapshot, then mutate the session underneath it.
  auto before = store.Get("conf");
  ASSERT_TRUE(before.ok());
  const int papers_before = before->instance->num_papers();
  const double score_before = before->assignment->TotalScore();

  auto mutated = store.Mutate(
      "conf", {core::InstanceUpdate::RemovePaper(0),
               core::InstanceUpdate::SetCoi(1, 1, true)});
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_EQ(mutated->snapshot.instance->num_papers(), papers_before - 1);
  EXPECT_GT(mutated->snapshot.version, before->version);

  // The pinned snapshot is bitwise untouched — this is what lets an
  // in-flight solve keep running against it.
  EXPECT_EQ(before->instance->num_papers(), papers_before);
  EXPECT_EQ(before->assignment->TotalScore(), score_before);
}

TEST(InstanceStoreTest, CompareAndSetInstallRespectsVersions) {
  InstanceStore store;
  auto dataset = core::MakeFuzzDataset(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(store.Open("conf", *dataset, SmallParams()).ok());
  auto snap = store.Get("conf");
  ASSERT_TRUE(snap.ok());
  // A job's result: solved on the snapshot's instance.
  auto result = core::SolverRegistry::Default().SolveCra(
      "greedy", *snap->instance, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Same version: install lands, over the same instance.
  auto installed =
      store.InstallAssignmentIfCurrent("conf", snap->version, *result);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_EQ(installed->version, snap->version + 1);
  EXPECT_EQ(installed->instance, snap->instance);
  EXPECT_EQ(installed->assignment->Pairs(), result->Pairs());

  // Stale version (the install itself moved it): install refused.
  auto stale =
      store.InstallAssignmentIfCurrent("conf", snap->version, *result);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Get("conf")->version, installed->version);
}

TEST(InstanceStoreTest, FailedMutationRollsBackTheBatch) {
  InstanceStore store;
  auto dataset = core::MakeFuzzDataset(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(store.Open("conf", *dataset, SmallParams()).ok());
  auto before = store.Get("conf");
  ASSERT_TRUE(before.ok());

  // First update applies, second is out of range — the batch must not be
  // half-visible afterwards.
  auto outcome = store.Mutate(
      "conf", {core::InstanceUpdate::SetCoi(0, 0, true),
               core::InstanceUpdate::RemovePaper(10'000)});
  ASSERT_FALSE(outcome.ok());
  auto after = store.Get("conf");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->version, before->version);
  EXPECT_FALSE(after->instance->IsConflict(0, 0));
}

// --- Publish by FromPairs against the replay -------------------------------

// The store's master lineage as it was before Assignment::FromPairs:
// installs replay every pair through AddUnchecked, a failed batch or
// publish restores the last committed instance and replays its pairs. It
// takes the same installs and mutations as the store under test, so its
// groups are the ones every published snapshot must carry.
class ReplayLineage {
 public:
  ReplayLineage(const core::Instance& instance,
                const core::InstanceParams& params)
      : params_(params), committed_(instance) {
    Restore();
  }

  Status Install(const std::vector<std::pair<int, int>>& pairs) {
    auto replayed = std::make_unique<core::Assignment>(instance_.get());
    for (const auto& [p, r] : pairs) {
      WGRAP_RETURN_IF_ERROR(replayed->AddUnchecked(p, r));
    }
    assignment_ = std::move(replayed);
    updater_->TrackAssignment(assignment_.get());
    Commit();
    return Status::OK();
  }

  // Applies the batch; a rejected op or `publish_fails` rolls it back.
  Status Mutate(const std::vector<core::InstanceUpdate>& updates,
                bool publish_fails) {
    auto report = updater_->ApplyAll(updates);
    if (!report.ok() || publish_fails) {
      Restore();
      return report.ok() ? Status::Internal("publish fault") : report.status();
    }
    Commit();
    return Status::OK();
  }

  std::vector<std::pair<int, int>> Pairs() const {
    return assignment_->Pairs();
  }

 private:
  void Commit() {
    committed_ = *instance_;
    committed_pairs_ = Pairs();
  }

  void Restore() {
    instance_ = std::make_unique<core::Instance>(committed_);
    updater_ = std::make_unique<core::InstanceUpdater>(instance_.get(),
                                                       params_);
    assignment_ = std::make_unique<core::Assignment>(instance_.get());
    for (const auto& [p, r] : committed_pairs_) {
      EXPECT_TRUE(assignment_->AddUnchecked(p, r).ok());
    }
    updater_->TrackAssignment(assignment_.get());
  }

  core::InstanceParams params_;
  core::Instance committed_;
  std::vector<std::pair<int, int>> committed_pairs_;
  std::unique_ptr<core::Instance> instance_;
  std::unique_ptr<core::Assignment> assignment_;
  std::unique_ptr<core::InstanceUpdater> updater_;
};

// Seeded sequences of installs (good and bad), mutations, resolves, a
// rejected batch and an armed store.publish fault. After every step the
// published assignment must memcmp-equal the replay oracle — the replay
// lineage's pairs through AddUnchecked onto the snapshot's own instance,
// then RecomputeAll — and a bad install must answer the replay's Status
// and leave the version where it was. A resolve's report and pairs must be
// the ones IncrementalResolve gives on a replayed copy of its snapshot.
TEST(StorePublishTest, FromPairsPublishesMatchTheReplayOracle) {
  using core::InstanceUpdate;
  failpoint::DisarmAll();
  for (const bool sparse : {false, true}) {
    const core::ScopedTopicKernel kernel(sparse);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      core::FuzzInstanceConfig config;
      config.reviewers = 13;
      config.papers = 9;
      config.num_topics = 10;
      config.group_size = 3;
      config.conflict_rate = 0.1;
      config.with_bids = seed != 2;
      config.seed = seed;
      const int T = config.num_topics;
      const core::InstanceParams params = core::MakeFuzzParams(config);
      auto built = core::MakeFuzzInstance(config);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/4});
      InstanceStore& store = api.store();
      ASSERT_TRUE(store.Open("conf", *built, params).ok());
      ReplayLineage oracle(*built, params);
      const auto first = SolvePairs(*built);
      ASSERT_TRUE(store.InstallAssignment("conf", first).ok());
      ASSERT_TRUE(oracle.Install(first).ok());
      const std::string tag = std::string(sparse ? "sparse" : "dense") +
                              " seed " + std::to_string(seed);

      Rng rng(seed * 4099 + (sparse ? 7 : 0));
      for (int step = 0; step < 40; ++step) {
        const SessionSnapshot snap = *store.Get("conf");
        const core::Instance& instance = *snap.instance;
        const int P = instance.num_papers();
        const int R = instance.num_reviewers();
        std::string where = tag + " step " + std::to_string(step);
        std::vector<std::pair<int, int>> pairs = snap.assignment->Pairs();
        switch (rng.NextInt(0, 7)) {
          case 0: {  // reinstall the groups in a shuffled pair order
            for (size_t i = pairs.size(); i > 1; --i) {
              std::swap(pairs[i - 1], pairs[rng.NextBounded(i)]);
            }
            where += " shuffled install";
            ASSERT_TRUE(store.InstallAssignment("conf", pairs).ok()) << where;
            ASSERT_TRUE(oracle.Install(pairs).ok()) << where;
            break;
          }
          case 1: {  // a bad pair somewhere in the list
            std::pair<int, int> bad = {P, 0};
            switch (rng.NextInt(0, 2)) {
              case 0:
                bad = {rng.NextInt(0, P - 1), R};
                break;
              case 1:
                if (!pairs.empty()) bad = pairs[rng.NextBounded(pairs.size())];
                break;
              default:
                for (int p = 0; p < P; ++p) {
                  for (int r = 0; r < R; ++r) {
                    if (instance.IsConflict(r, p)) bad = {p, r};
                  }
                }
            }
            pairs.insert(pairs.begin() + static_cast<std::ptrdiff_t>(
                                             rng.NextBounded(pairs.size() + 1)),
                         bad);
            where += " bad install";
            auto refused = store.InstallAssignment("conf", pairs);
            const Status replayed = oracle.Install(pairs);
            ASSERT_FALSE(refused.ok()) << where;
            ASSERT_FALSE(replayed.ok()) << where;
            EXPECT_EQ(refused.status().code(), replayed.code()) << where;
            EXPECT_EQ(refused.status().message(), replayed.message()) << where;
            EXPECT_EQ(store.Get("conf")->version, snap.version) << where;
            break;
          }
          case 2:
          case 3: {  // a COI on an assigned pair evicts it
            const int p = rng.NextInt(0, P - 1);
            const std::vector<int>& group = snap.assignment->GroupFor(p);
            if (group.empty()) continue;
            const std::vector<InstanceUpdate> batch = {InstanceUpdate::SetCoi(
                group[rng.NextBounded(group.size())], p, true)};
            where += " set_coi";
            ASSERT_TRUE(store.Mutate("conf", batch).ok()) << where;
            ASSERT_TRUE(oracle.Mutate(batch, false).ok()) << where;
            break;
          }
          case 4: {  // topic and roster edits
            std::vector<InstanceUpdate> batch = {
                InstanceUpdate::SetPaperTopics(rng.NextInt(0, P - 1),
                                               core::RandomTopics(&rng, T)),
                InstanceUpdate::AddReviewer(core::RandomTopics(&rng, T))};
            if (R > config.group_size + 6) {
              batch.push_back(InstanceUpdate::RemoveReviewer(
                  rng.NextInt(0, R - 1)));
            }
            where += " topics and roster";
            ASSERT_TRUE(store.Mutate("conf", batch).ok()) << where;
            ASSERT_TRUE(oracle.Mutate(batch, false).ok()) << where;
            break;
          }
          case 5: {  // rejected mid-batch, or a publish fault after it
            const bool publish_fault = rng.NextDouble() < 0.5;
            std::vector<InstanceUpdate> batch = {InstanceUpdate::SetCoi(
                rng.NextInt(0, R - 1), rng.NextInt(0, P - 1), true)};
            if (publish_fault) {
              ASSERT_TRUE(failpoint::Arm("store.publish", "error").ok());
              where += " store.publish fault";
            } else {
              batch.push_back(InstanceUpdate::RemovePaper(P + 3));
              where += " rejected batch";
            }
            auto outcome = store.Mutate("conf", batch);
            failpoint::DisarmAll();
            ASSERT_FALSE(outcome.ok()) << where;
            ASSERT_FALSE(oracle.Mutate(batch, publish_fault).ok()) << where;
            break;
          }
          default: {  // repair-only or LS resolve, installed by CAS
            ResolveRequest resolve;
            resolve.session = "conf";
            resolve.knobs["update_refine"] = rng.NextDouble() < 0.5 ? "none"
                                                                    : "ls";
            where += " resolve " + resolve.knobs["update_refine"];
            auto job = api.Resolve(resolve);
            ASSERT_TRUE(job.ok()) << where << ": " << job.status().ToString();
            auto result = api.WaitJob(job->job);
            ASSERT_TRUE(result.ok()) << where;
            auto working = core::ReplayPairs(&instance, pairs);
            ASSERT_TRUE(working.ok()) << where;
            core::SolverRunOptions options;
            options.seed = resolve.seed;
            options.extra = resolve.knobs;
            auto report =
                core::IncrementalResolve(instance, &*working, options);
            ASSERT_EQ(result->status.ok(), report.ok()) << where;
            if (!report.ok()) {
              EXPECT_EQ(result->status.message(), report.status().message())
                  << where;
              break;
            }
            EXPECT_EQ(result->report, ResolveReport(*report, *working))
                << where;
            EXPECT_EQ(result->pairs, working->Pairs()) << where;
            ASSERT_TRUE(oracle.Install(working->Pairs()).ok()) << where;
          }
        }
        const SessionSnapshot now = *store.Get("conf");
        auto expected = core::ReplayPairs(now.instance.get(), oracle.Pairs());
        ASSERT_TRUE(expected.ok())
            << where << ": " << expected.status().ToString();
        ASSERT_EQ(core::AssignmentMismatch(*now.assignment, *expected), "")
            << where;
      }
    }
  }
}

// A snapshot must carry its own instance's assignment, memcmp-equal to the
// replay oracle on that instance.
void ExpectSnapshotIsTheReplay(const SessionSnapshot& snap,
                               const std::string& where) {
  ASSERT_NE(snap.assignment, nullptr) << where;
  EXPECT_EQ(&snap.assignment->instance(), snap.instance.get()) << where;
  auto expected =
      core::ReplayPairs(snap.instance.get(), snap.assignment->Pairs());
  ASSERT_TRUE(expected.ok()) << where << ": " << expected.status().ToString();
  EXPECT_EQ(core::AssignmentMismatch(*snap.assignment, *expected), "")
      << where;
}

// Every install publishes the installed assignment over the instance
// already published, a mutate publishes an instance copy with the master's
// assignment rebound to it, and a rollback republishes the restored state.
// A solve-job install, an install=false result, a pair install, a CAS-lost
// result, a mutate that evicts, a resolve-job install, a rollback and a
// mutate after it must each leave a snapshot bound to its own instance and
// memcmp-equal to the replay oracle (so must an older snapshot after the
// master moved on), and each job's pairs must be the direct run's Pairs().
TEST(StorePublishTest, InstallAndResolveSnapshotsEqualTheReplayOracle) {
  using core::InstanceUpdate;
  failpoint::DisarmAll();
  for (const bool sparse : {false, true}) {
    const core::ScopedTopicKernel kernel(sparse);
    core::FuzzInstanceConfig config;
    config.reviewers = 14;
    config.papers = 9;
    config.num_topics = 10;
    config.group_size = 3;
    config.conflict_rate = 0.05;
    config.with_bids = true;
    config.seed = 17;
    auto built = core::MakeFuzzInstance(config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/8});
    InstanceStore& store = api.store();
    ASSERT_TRUE(store.Open("conf", *built, core::MakeFuzzParams(config)).ok());
    const std::string tag = sparse ? "sparse" : "dense";
    const SessionSnapshot opened = *store.Get("conf");

    // A solve job installs its own result over the instance it ran on.
    SubmitRequest solve;
    solve.session = "conf";
    solve.solver = "sdga-sra";
    solve.seed = 5;
    auto job = api.Submit(solve);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    auto result = api.WaitJob(job->job);
    ASSERT_TRUE(result.ok() && result->status.ok()) << tag;
    core::SolverRunOptions options;
    options.seed = 5;
    auto direct = core::SolverRegistry::Default().SolveCra(
        "sdga-sra", *opened.instance, options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(result->pairs, direct->Pairs()) << tag;
    const SessionSnapshot solved = *store.Get("conf");
    EXPECT_EQ(solved.version, opened.version + 1) << tag;
    EXPECT_EQ(solved.instance, opened.instance) << tag;
    EXPECT_EQ(solved.assignment->Pairs(), direct->Pairs()) << tag;
    ExpectSnapshotIsTheReplay(solved, tag + " solve install");

    // install=false: the job keeps its result, the session its state.
    solve.solver = "greedy";
    solve.install = false;
    job = api.Submit(solve);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    result = api.WaitJob(job->job);
    ASSERT_TRUE(result.ok() && result->status.ok()) << tag;
    auto greedy = core::SolverRegistry::Default().SolveCra(
        "greedy", *solved.instance, options);
    ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
    EXPECT_EQ(result->pairs, greedy->Pairs()) << tag;
    EXPECT_EQ(store.Get("conf")->version, solved.version) << tag;
    EXPECT_EQ(store.Get("conf")->assignment, solved.assignment) << tag;

    // A pair install, in an order other than Pairs().
    std::vector<std::pair<int, int>> pairs = SolvePairs(*built);
    std::reverse(pairs.begin(), pairs.end());
    auto installed = store.InstallAssignment("conf", pairs);
    ASSERT_TRUE(installed.ok()) << installed.status().ToString();
    EXPECT_EQ(installed->instance, opened.instance) << tag;
    ExpectSnapshotIsTheReplay(*installed, tag + " install");

    // CAS lost: while a blocker holds the only worker, a solve is submitted
    // on `installed` and a COI evicting one of its pairs lands before it
    // runs.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    auto blocker = api.jobs().Submit("block", [released](const JobContext&) {
      released.wait();
      return JobResult{};
    });
    solve.install = true;
    auto lost = api.Submit(solve);
    const int evicted = installed->assignment->GroupFor(0)[0];
    auto mutated =
        store.Mutate("conf", {InstanceUpdate::SetCoi(evicted, 0, true)});
    release.set_value();
    ASSERT_TRUE(blocker.ok() && lost.ok()) << tag;
    ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
    EXPECT_EQ(mutated->report.evicted.size(), 1u) << tag;
    result = api.WaitJob(lost->job);
    ASSERT_TRUE(result.ok() && result->status.ok()) << tag;
    EXPECT_EQ(result->pairs, greedy->Pairs()) << tag;
    const SessionSnapshot after_mutate = *store.Get("conf");
    EXPECT_EQ(after_mutate.version, mutated->snapshot.version) << tag;
    EXPECT_NE(after_mutate.instance, installed->instance) << tag;
    EXPECT_FALSE(after_mutate.assignment->Contains(0, evicted)) << tag;
    ExpectSnapshotIsTheReplay(after_mutate, tag + " mutate that evicts");
    ExpectSnapshotIsTheReplay(*installed, tag + " install, master moved on");

    // A resolve job installs its repaired copy over the same instance.
    ResolveRequest resolve;
    resolve.session = "conf";
    resolve.knobs["update_refine"] = "none";
    job = api.Resolve(resolve);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    result = api.WaitJob(job->job);
    ASSERT_TRUE(result.ok() && result->status.ok()) << tag;
    core::Assignment working = *after_mutate.assignment;
    core::SolverRunOptions resolve_options;
    resolve_options.seed = resolve.seed;
    resolve_options.extra = resolve.knobs;
    ASSERT_TRUE(core::IncrementalResolve(*after_mutate.instance, &working,
                                         resolve_options)
                    .ok());
    EXPECT_EQ(result->pairs, working.Pairs()) << tag;
    const SessionSnapshot resolved = *store.Get("conf");
    EXPECT_EQ(resolved.version, after_mutate.version + 1) << tag;
    EXPECT_EQ(resolved.instance, after_mutate.instance) << tag;
    EXPECT_EQ(resolved.assignment->Pairs(), working.Pairs()) << tag;
    EXPECT_FALSE(resolved.assignment->Contains(0, evicted)) << tag;
    ExpectSnapshotIsTheReplay(resolved, tag + " resolve install");

    // A rollback republishes the resolved state; the master it restored
    // publishes the next mutate.
    ASSERT_TRUE(failpoint::Arm("store.publish", "error").ok());
    EXPECT_FALSE(
        store.Mutate("conf", {InstanceUpdate::SetCoi(0, 1, true)}).ok());
    failpoint::DisarmAll();
    const SessionSnapshot restored = *store.Get("conf");
    EXPECT_GT(restored.version, resolved.version) << tag;
    ExpectSnapshotIsTheReplay(restored, tag + " rollback");
    EXPECT_EQ(core::AssignmentMismatch(*restored.assignment,
                                       *resolved.assignment),
              "")
        << tag;
    const int p = 1;
    const int r = restored.assignment->GroupFor(p)[0];
    ASSERT_TRUE(store.Mutate("conf", {InstanceUpdate::SetCoi(r, p, true)})
                    .ok());
    const SessionSnapshot remutated = *store.Get("conf");
    EXPECT_FALSE(remutated.assignment->Contains(p, r)) << tag;
    ExpectSnapshotIsTheReplay(remutated, tag + " mutate after rollback");
  }
}

// --- Per-paper c(AI) --------------------------------------------------------

// Papers core::IdealScore has re-derived so far; -1 when telemetry is off.
int64_t IdealPapersRefreshed() {
  obs::Counter* counter = obs::Registry::Global().GetCounter(
      "wgrap_ideal_papers_refreshed_total");
  return counter != nullptr ? counter->Value() : -1;
}

// A from-scratch twin of a snapshot instance without bids: the
// FromDataset rebuild of its topics plus its COIs, with an empty c(AI)
// memo (core/update.h's contract makes it bitwise equal).
core::Instance FreshTwin(const core::Instance& instance,
                         const core::InstanceParams& params) {
  auto fresh =
      core::Instance::FromDataset(core::SnapshotDataset(instance), params);
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      if (instance.IsConflict(r, p)) fresh->AddConflict(r, p);
    }
  }
  return *std::move(fresh);
}

// The evaluate block of `assignment`'s groups over a fresh twin of its
// instance, the pairs replayed and normalized (bitwise what Publish's
// FromPairs gives) — what a cold evaluate of the same snapshot prints.
std::string ScratchEvaluation(const core::Assignment& assignment,
                              const core::InstanceParams& params) {
  const core::Instance fresh = FreshTwin(assignment.instance(), params);
  auto rebound = core::ReplayPairs(&fresh, assignment.Pairs());
  EXPECT_TRUE(rebound.ok()) << rebound.status().ToString();
  return EvaluationReport(fresh, *rebound);
}

// c(AI) from the instance's memo memcmp-equals a from-scratch AI build,
// or both are infeasible.
void ExpectIdealScoreMatchesScratch(const core::Instance& instance,
                                    const std::string& where) {
  const std::optional<double> cached = core::IdealScore(instance);
  auto ideal = core::BuildIdealAssignment(instance);
  ASSERT_EQ(cached.has_value(), ideal.ok()) << where;
  if (ideal.ok()) {
    const double scratch = ideal->TotalScore();
    EXPECT_EQ(std::memcmp(&*cached, &scratch, sizeof(double)), 0)
        << where << ": " << *cached << " vs " << scratch;
  }
}

// Evaluates `session`, checks that the reply is the snapshot's evaluate
// block and that the c(AI) behind it memcmp-equals a from-scratch AI build
// (the block reads c(AI) only through those bits); `refreshed` is the
// number of papers the evaluate must have re-derived.
void ExpectEvaluateMatchesScratch(ServiceApi& api, const std::string& session,
                                  int64_t refreshed, const std::string& where) {
  const int64_t before = IdealPapersRefreshed();
  auto reply = api.Evaluate(session);
  ASSERT_TRUE(reply.ok()) << where << ": " << reply.status().ToString();
  if (before >= 0) {
    EXPECT_EQ(IdealPapersRefreshed() - before, refreshed) << where;
  }
  auto snap = api.store().Get(session);
  ASSERT_TRUE(snap.ok()) << where;
  ExpectIdealScoreMatchesScratch(*snap->instance, where);
  if (before >= 0) {  // nothing changed since the evaluate: no re-derivation
    EXPECT_EQ(IdealPapersRefreshed() - before, refreshed) << where;
  }
  ASSERT_NE(snap->assignment, nullptr) << where;
  EXPECT_EQ(reply->text, EvaluationReport(*snap->instance, *snap->assignment))
      << where;
}

TEST(IdealScoreCacheTest, SeededMutationsKeepEvaluateByteExact) {
  using core::InstanceUpdate;
  failpoint::DisarmAll();
  for (const bool sparse : {false, true}) {
    const core::ScopedTopicKernel kernel(sparse);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      core::FuzzInstanceConfig config;
      config.reviewers = 12;
      config.papers = 9;
      config.num_topics = 10;
      config.group_size = 3;
      config.conflict_rate = 0.1;
      config.with_bids = true;
      config.seed = seed;
      const int T = config.num_topics;
      auto built = core::MakeFuzzInstance(config);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/4});
      ASSERT_TRUE(api.store()
                      .Open("conf", *std::move(built),
                            core::MakeFuzzParams(config))
                      .ok());
      const SessionSnapshot opened = *api.store().Get("conf");
      const int papers = opened.instance->num_papers();
      ASSERT_TRUE(api.store()
                      .InstallAssignment("conf", SolvePairs(*opened.instance))
                      .ok());
      const std::string tag = std::string(sparse ? "sparse" : "dense") +
                              " seed " + std::to_string(seed);
      // The first evaluate is the full build.
      ExpectEvaluateMatchesScratch(api, "conf", papers, tag + " open");

      Rng rng(seed * 7919);
      for (int step = 0; step < 48; ++step) {
        const SessionSnapshot snap = *api.store().Get("conf");
        const core::Instance& instance = *snap.instance;
        const core::Assignment& assignment = *snap.assignment;
        const int P = instance.num_papers();
        const int R = instance.num_reviewers();
        const int p = rng.NextInt(0, P - 1);
        const int r = rng.NextInt(0, R - 1);
        std::vector<InstanceUpdate> batch;
        bool local = true;   // the batch touches only paper p's AI picks
        int local_rows = 1;  // c(AI) rows a local batch makes stale
        bool expect_ok = true;
        const int kind = rng.NextInt(0, 12);
        std::string what;
        switch (kind) {
          case 0: {  // COI on an assigned pair: evicts it
            const std::vector<int>& group = assignment.GroupFor(p);
            if (group.empty()) continue;
            const int member =
                group[rng.NextInt(0, static_cast<int>(group.size()) - 1)];
            batch = {InstanceUpdate::SetCoi(member, p, true)};
            local_rows = core::CoiMovesAPick(instance, member, p) ? 1 : 0;
            what = "set_coi assigned on";
            break;
          }
          case 1: {  // COI on or off an unassigned pair
            if (assignment.Contains(p, r)) continue;
            const bool on = rng.NextDouble() < 0.5;
            batch = {InstanceUpdate::SetCoi(r, p, on)};
            // An `off` always re-derives its row; an `on` only when r is
            // one of AI's picks for p.
            local_rows = !on || core::CoiMovesAPick(instance, r, p) ? 1 : 0;
            what = "set_coi unassigned";
            break;
          }
          case 2: {  // lift a COI of p, if it has one
            int conflicted = -1;
            for (int q = 0; q < R && conflicted < 0; ++q) {
              if (instance.IsConflict(q, p)) conflicted = q;
            }
            if (conflicted < 0) continue;
            batch = {InstanceUpdate::SetCoi(conflicted, p, false)};
            what = "set_coi off";
            break;
          }
          case 3:
            batch = {InstanceUpdate::SetBid(p, r, rng.NextDouble())};
            what = "set_bid";
            break;
          case 4:
            batch = {InstanceUpdate::SetPaperTopics(
                p, core::RandomTopics(&rng, T))};
            what = "set_paper_topics";
            break;
          case 5:
            batch = {InstanceUpdate::AddPaper(core::RandomTopics(&rng, T))};
            local = false;
            what = "add_paper";
            break;
          case 6:
            if (P <= 5) continue;
            batch = {InstanceUpdate::RemovePaper(p)};
            local = false;
            what = "remove_paper";
            break;
          case 7:
            batch = {InstanceUpdate::AddReviewer(core::RandomTopics(&rng, T))};
            local = false;
            what = "add_reviewer";
            break;
          case 8:
            if (R <= config.group_size + 5) continue;
            batch = {InstanceUpdate::RemoveReviewer(r)};
            local = false;
            what = "remove_reviewer";
            break;
          case 9:
            batch = {InstanceUpdate::SetReviewerTopics(
                r, core::RandomTopics(&rng, T))};
            local = false;
            what = "set_reviewer_topics";
            break;
          case 10:  // rejected mid-batch: the prefix is rolled back
            batch = {InstanceUpdate::SetPaperTopics(
                         p, core::RandomTopics(&rng, T)),
                     InstanceUpdate::RemovePaper(P + 3)};
            expect_ok = false;
            what = "rejected batch";
            break;
          case 11:  // fails after the whole batch applied cleanly
            ASSERT_TRUE(failpoint::Arm("store.publish", "error").ok());
            batch = {InstanceUpdate::AddPaper(core::RandomTopics(&rng, T))};
            expect_ok = false;
            what = "store.publish fault";
            break;
          default: {  // refill the evicted slots
            ResolveRequest resolve;
            resolve.session = "conf";
            resolve.knobs["update_refine"] = "none";
            auto job = api.Resolve(resolve);
            ASSERT_TRUE(job.ok()) << job.status().ToString();
            ASSERT_TRUE(api.WaitJob(job->job).ok());
            ExpectEvaluateMatchesScratch(
                api, "conf", 0,
                tag + " step " + std::to_string(step) + " resolve");
            continue;
          }
        }
        auto outcome = api.store().Mutate("conf", batch);
        failpoint::DisarmAll();
        const std::string where =
            tag + " step " + std::to_string(step) + " " + what;
        ASSERT_EQ(outcome.ok(), expect_ok)
            << where << ": " << outcome.status().ToString();
        const int now = api.store().Get("conf")->instance->num_papers();
        ExpectEvaluateMatchesScratch(
            api, "conf", !expect_ok ? 0 : (local ? local_rows : now), where);
      }
    }
  }
}

// The COI rule on the service path: `set_coi ... on` for a reviewer that
// is none of AI's picks for the paper re-derives no c(AI) row, for a pick
// one row, and `off` one row; every evaluate reply equals a cold evaluate
// of its snapshot.
TEST(IdealScoreCacheTest, ACoiRefreshesItsRowOnlyWhenItHitsAPick) {
  ServiceApi api;
  OpenSmall(api, "conf");
  ASSERT_TRUE(api.store()
                  .InstallAssignment(
                      "conf", SolvePairs(*api.store().Get("conf")->instance))
                  .ok());
  ExpectEvaluateMatchesScratch(api, "conf", SmallConfig().papers, "open");
  constexpr int kPaper = 2;
  const SessionSnapshot opened = *api.store().Get("conf");
  const std::optional<std::vector<int>> picks =
      core::ScratchIdealPicks(*opened.instance, kPaper);
  ASSERT_TRUE(picks.has_value());
  int non_pick = 0;
  while (opened.instance->IsConflict(non_pick, kPaper) ||
         std::find(picks->begin(), picks->end(), non_pick) != picks->end()) {
    ++non_pick;
  }
  const auto mutate_and_evaluate = [&](const core::InstanceUpdate& update,
                                       int64_t rows, const std::string& what) {
    ASSERT_TRUE(api.store().Mutate("conf", {update}).ok()) << what;
    ExpectEvaluateMatchesScratch(api, "conf", rows, what);
    const SessionSnapshot snap = *api.store().Get("conf");
    auto reply = api.Evaluate("conf");
    ASSERT_TRUE(reply.ok()) << what;
    EXPECT_EQ(reply->text, ScratchEvaluation(*snap.assignment, snap.params))
        << what;
  };
  mutate_and_evaluate(core::InstanceUpdate::SetCoi(non_pick, kPaper, true),
                      0, "on, non-pick");
  mutate_and_evaluate(core::InstanceUpdate::SetCoi((*picks)[0], kPaper, true),
                      1, "on, pick");
  mutate_and_evaluate(core::InstanceUpdate::SetCoi(non_pick, kPaper, false),
                      1, "off");
}

// Rows Assignment::RecomputeAll has re-derived so far; -1 when telemetry
// is off.
int64_t RowsRederived() {
  obs::Counter* counter = obs::Registry::Global().GetCounter(
      "wgrap_assignment_rows_rederived_total");
  return counter != nullptr ? counter->Value() : -1;
}

// A published snapshot's rows are exact, so a repair-only resolve after
// one evicting set_coi re-derives only the row its repair refilled: none
// when IncrementalResolve normalizes the snapshot's copy, one when the
// install normalizes the result. One spare slot per reviewer lets the
// repair refill the paper directly. The installed snapshot is the replay.
TEST(StorePublishTest, ResolveReDerivesOnlyTheRowsItsRepairTouched) {
  core::FuzzInstanceConfig config = SmallConfig();
  config.extra_workload = 1;
  auto dataset = core::MakeFuzzDataset(config);
  ASSERT_TRUE(dataset.ok());
  ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/4});
  ASSERT_TRUE(
      api.store().Open("conf", *dataset, core::MakeFuzzParams(config)).ok());
  ASSERT_TRUE(api.store()
                  .InstallAssignment(
                      "conf", SolvePairs(*api.store().Get("conf")->instance))
                  .ok());
  const SessionSnapshot installed = *api.store().Get("conf");
  constexpr int kPaper = 4;
  const int evicted = installed.assignment->GroupFor(kPaper)[0];
  auto mutated = api.store().Mutate(
      "conf", {core::InstanceUpdate::SetCoi(evicted, kPaper, true)});
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  ASSERT_EQ(mutated->report.evicted.size(), 1u);
  const SessionSnapshot broken = mutated->snapshot;

  const int64_t before = RowsRederived();
  ResolveRequest resolve;
  resolve.session = "conf";
  resolve.knobs["update_refine"] = "none";
  auto job = api.Resolve(resolve);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto result = api.WaitJob(job->job);
  ASSERT_TRUE(result.ok() && result->status.ok());
  const SessionSnapshot resolved = *api.store().Get("conf");
  ASSERT_EQ(resolved.version, broken.version + 1);
  int changed = 0;
  for (int p = 0; p < resolved.instance->num_papers(); ++p) {
    if (resolved.assignment->GroupFor(p) != broken.assignment->GroupFor(p)) {
      ++changed;
    }
  }
  EXPECT_EQ(changed, 1);
  if (before >= 0) {
    EXPECT_EQ(RowsRederived() - before, changed);
  }
  ExpectSnapshotIsTheReplay(resolved, "resolve install");
}

TEST(IdealScoreCacheTest, InfeasibleIdealDropsTheRatioUntilLifted) {
  // Conflicting every reviewer of one paper makes AI infeasible: evaluate
  // omits the optimality line, exactly like the from-scratch report; lifting
  // the COIs again brings the cached c(AI) back to the rebuilt bits.
  ServiceApi api;
  OpenSmall(api, "conf");
  ASSERT_TRUE(api.store()
                  .InstallAssignment(
                      "conf", SolvePairs(*api.store().Get("conf")->instance))
                  .ok());
  ExpectEvaluateMatchesScratch(api, "conf", 8, "open");
  const int R = SmallConfig().reviewers;
  std::vector<core::InstanceUpdate> on, off;
  for (int r = 0; r < R; ++r) {
    on.push_back(core::InstanceUpdate::SetCoi(r, 5, true));
    off.push_back(core::InstanceUpdate::SetCoi(r, 5, false));
  }
  ASSERT_TRUE(api.store().Mutate("conf", on).ok());
  ExpectEvaluateMatchesScratch(api, "conf", 1, "all COIs on");
  auto reply = api.Evaluate("conf");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->text.find("optimality"), std::string::npos);
  ASSERT_TRUE(api.store().Mutate("conf", off).ok());
  ExpectEvaluateMatchesScratch(api, "conf", 1, "all COIs off");
}

// Readers evaluate one shared snapshot on several threads while the master
// lineage takes mutations, which detach its c(AI) memo from the readers'.
// Every reply must equal a cold evaluate of the snapshot it was rendered
// from. Run under TSan in CI.
TEST(IdealScoreCacheTest, ConcurrentEvaluatesMatchTheirSnapshots) {
  core::FuzzInstanceConfig config = SmallConfig();
  config.reviewers = 20;
  config.papers = 16;
  ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/4});
  auto dataset = core::MakeFuzzDataset(config);
  ASSERT_TRUE(dataset.ok());
  const core::InstanceParams params = core::MakeFuzzParams(config);
  ASSERT_TRUE(api.store().Open("conf", *dataset, params).ok());
  ASSERT_TRUE(api.store()
                  .InstallAssignment(
                      "conf", SolvePairs(*api.store().Get("conf")->instance))
                  .ok());

  constexpr int kReaders = 3;
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    // All readers share this one snapshot and start on it together with
    // the round's mutation.
    const SessionSnapshot shared = *api.store().Get("conf");
    std::vector<std::string> replies(kReaders);
    std::vector<std::thread> readers;
    for (int i = 0; i < kReaders; ++i) {
      readers.emplace_back([&shared, &replies, i] {
        replies[i] = EvaluationReport(*shared.instance, *shared.assignment);
      });
    }
    Rng rng(round + 1);
    const int P = shared.instance->num_papers();
    const int R = shared.instance->num_reviewers();
    std::vector<core::InstanceUpdate> batch;
    if (round % 4 == 3) {
      batch = {core::InstanceUpdate::SetReviewerTopics(
          rng.NextInt(0, R - 1), core::RandomTopics(&rng, config.num_topics))};
    } else {
      const int p = rng.NextInt(0, P - 1);
      batch = {core::InstanceUpdate::SetCoi(rng.NextInt(0, R - 1), p,
                                            round % 2 == 0),
               core::InstanceUpdate::SetPaperTopics(
                   p, core::RandomTopics(&rng, config.num_topics))};
    }
    ASSERT_TRUE(api.store().Mutate("conf", batch).ok());
    // The next snapshot's evaluate races the readers of this one.
    auto next = api.Evaluate("conf");
    for (std::thread& reader : readers) reader.join();
    ASSERT_TRUE(next.ok()) << next.status().ToString();

    const std::string expected =
        ScratchEvaluation(*shared.assignment, shared.params);
    for (int i = 0; i < kReaders; ++i) {
      EXPECT_EQ(replies[i], expected) << "round " << round << " reader " << i;
    }
    const SessionSnapshot now = *api.store().Get("conf");
    EXPECT_EQ(next->text, ScratchEvaluation(*now.assignment, now.params))
        << "round " << round;
    ExpectIdealScoreMatchesScratch(*shared.instance,
                                   "round " + std::to_string(round));
  }
}

// --- JobQueue ----------------------------------------------------------------

JobQueue::Options QueueOptions(int workers, int max_results) {
  JobQueue::Options options;
  options.workers = workers;
  options.max_results = max_results;
  return options;
}

TEST(JobQueueTest, SubmitWaitResultLifecycle) {
  JobQueue queue(QueueOptions(2, 8));
  const int64_t id = *queue.Submit("t", [](const JobContext&) {
    JobResult result;
    result.report = "hello\n";
    return result;
  });
  EXPECT_EQ(id, 1);
  auto result = queue.Wait(id);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->status.ok());
  EXPECT_EQ(result->report, "hello\n");

  auto status = queue.GetStatus(id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->result_available);
  EXPECT_EQ(status->label, "t");

  EXPECT_EQ(queue.GetResult(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.Wait(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.Cancel(id).code(), StatusCode::kFailedPrecondition);
}

TEST(JobQueueTest, BoundedResultStoreEvictsOldestFirst) {
  JobQueue queue(QueueOptions(1, 2));
  for (int i = 0; i < 3; ++i) {
    queue.Submit("t", [i](const JobContext&) {
      JobResult result;
      result.report = "r" + std::to_string(i) + "\n";
      return result;
    });
  }
  queue.Drain();
  // Jobs finish in submit order on one worker: job 1's payload is evicted.
  EXPECT_EQ(queue.GetResult(1).status().code(),
            StatusCode::kResourceExhausted);
  auto status1 = queue.GetStatus(1);
  ASSERT_TRUE(status1.ok());  // the status row survives eviction
  EXPECT_FALSE(status1->result_available);
  ASSERT_TRUE(queue.GetResult(2).ok());
  EXPECT_EQ(queue.GetResult(2)->report, "r1\n");
  EXPECT_EQ(queue.GetResult(3)->report, "r2\n");
}

TEST(JobQueueTest, CancellingAQueuedJobSkipsItsBody) {
  JobQueue queue(QueueOptions(1, 8));
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  // Blocker occupies the single worker so the next job stays queued.
  const int64_t blocker = *queue.Submit("blocker", [&](const JobContext&) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    return JobResult();
  });
  std::atomic<bool> body_ran{false};
  const int64_t victim = *queue.Submit("victim", [&](const JobContext&) {
    body_ran.store(true);
    return JobResult();
  });
  EXPECT_TRUE(queue.Cancel(victim).ok());
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  queue.Drain();
  ASSERT_TRUE(queue.Wait(blocker).ok());
  auto result = queue.Wait(victim);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(body_ran.load());
}

TEST(JobQueueTest, RunningJobSeesItsCancelToken) {
  JobQueue queue(QueueOptions(1, 8));
  std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  const int64_t id = *queue.Submit("t", [&](const JobContext& context) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      running = true;
    }
    cv.notify_all();
    // Cooperative poll loop — the shape every solver's deadline check has.
    while (!IsCancelled(context.cancel)) {
      std::this_thread::yield();
    }
    JobResult result;
    result.status = Status::Cancelled("saw the flag");
    return result;
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return running; });
  }
  EXPECT_TRUE(queue.Cancel(id).ok());
  auto result = queue.Wait(id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
}

TEST(JobQueueTest, ProgressFramesAreRetainedAndReplayable) {
  JobQueue queue(QueueOptions(1, 8));
  const int64_t id = *queue.Submit("t", [](const JobContext& context) {
    context.progress("frame 0\n");
    context.progress("frame 1\n");
    context.progress("frame 2\n");
    return JobResult();
  });
  ASSERT_TRUE(queue.Wait(id).ok());
  // Replay from 0 after completion: the full retained stream, done=true.
  auto page = queue.WaitProgress(id, 0);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(page->done);
  ASSERT_EQ(page->frames.size(), 3u);
  EXPECT_EQ(page->frames[0], "frame 0\n");
  EXPECT_EQ(page->frames[2], "frame 2\n");
  // A cursor mid-stream only returns the tail.
  auto tail = queue.WaitProgress(id, 2);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->frames.size(), 1u);
  EXPECT_EQ(tail->frames[0], "frame 2\n");
  // Past-the-end cursor on a finished job: empty page, still done.
  auto past = queue.WaitProgress(id, 99);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->frames.empty());
  EXPECT_TRUE(past->done);

  EXPECT_EQ(queue.WaitProgress(42, 0).status().code(), StatusCode::kNotFound);
}

TEST(JobQueueTest, WaitProgressStreamsFromALiveJob) {
  JobQueue queue(QueueOptions(1, 8));
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  const int64_t id = *queue.Submit("t", [&](const JobContext& context) {
    context.progress("early\n");
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    context.progress("late\n");
    return JobResult();
  });
  // Blocks until the first frame lands — the job is still running.
  auto first = queue.WaitProgress(id, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(first->frames.size(), 1u);
  EXPECT_EQ(first->frames[0], "early\n");
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  // Blocks again until either the second frame or completion arrives.
  auto rest = queue.WaitProgress(id, 1);
  ASSERT_TRUE(rest.ok());
  if (rest->frames.empty()) {
    // Raced past the frame: a later page from the same cursor has it.
    rest = queue.WaitProgress(id, 1);
    ASSERT_TRUE(rest.ok());
  }
  ASSERT_GE(rest->frames.size(), 1u);
  EXPECT_EQ(rest->frames[0], "late\n");
}

TEST(JobQueueTest, EvictionDropsProgressWithThePayload) {
  JobQueue queue(QueueOptions(1, 1));
  auto emit = [](const JobContext& context) {
    context.progress("p\n");
    return JobResult();
  };
  const int64_t first = *queue.Submit("a", emit);
  const int64_t second = *queue.Submit("b", emit);
  queue.Drain();
  // max_results=1: job `first` was evicted, progress and all.
  EXPECT_EQ(queue.WaitProgress(first, 0).status().code(),
            StatusCode::kResourceExhausted);
  auto kept = queue.WaitProgress(second, 0);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->frames.size(), 1u);
}

TEST(JobQueueTest, ThrowingJobBodySurvivesTheWorker) {
  obs::Gauge* const depth =
      obs::Registry::Global().GetGauge("wgrap_jobs_queue_depth");
  JobQueue queue(QueueOptions(1, 8));
  const int64_t thrower = *queue.Submit("boom", [](const JobContext&) {
    throw std::runtime_error("solver exploded");
    return JobResult();  // unreachable
  });
  // The worker converts the throw into a kInternal result...
  auto result = queue.Wait(thrower);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status.code(), StatusCode::kInternal);
  EXPECT_NE(result->status.message().find("solver exploded"),
            std::string::npos);
  // ...and lives on to run the next job.
  const int64_t after = *queue.Submit("next", [](const JobContext&) {
    JobResult ok;
    ok.report = "alive\n";
    return ok;
  });
  auto next = queue.Wait(after);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->report, "alive\n");
  queue.Drain();
  // Nothing is left queued — the depth gauge wound back to zero.
  if (depth != nullptr) {
    EXPECT_EQ(depth->Value(), 0);
  }
}

TEST(JobQueueTest, AdmissionControlShedsWhenTheQueueIsFull) {
  JobQueue::Options options = QueueOptions(1, 8);
  options.max_queue_depth = 1;
  JobQueue queue(options);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  // Occupy the single worker so later submits stay queued.
  const int64_t blocker = *queue.Submit("blocker", [&](const JobContext&) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    return JobResult();
  });
  // Wait until the blocker is actually running (queue empty again).
  while (true) {
    auto status = queue.GetStatus(blocker);
    ASSERT_TRUE(status.ok());
    if (status->state != JobState::kQueued) break;
    std::this_thread::yield();
  }
  // One queued job fills the depth-1 queue; the next submit sheds.
  auto queued = queue.Submit("queued", [](const JobContext&) {
    return JobResult();
  });
  ASSERT_TRUE(queued.ok());
  auto shed = queue.Submit("shed", [](const JobContext&) {
    return JobResult();
  });
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("retry"), std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  queue.Drain();
  // Shed submits never allocated an id: the admitted jobs are 1 and 2,
  // and the next admitted one is 3 — the deterministic sequence the
  // scripted protocol relies on has no holes.
  EXPECT_EQ(*queue.Submit("post", [](const JobContext&) {
    return JobResult();
  }), 3);
  queue.Drain();
}

TEST(ServiceApiTest, SubmitPropagatesAdmissionShed) {
  ServiceOptions options;
  options.job_workers = 1;
  options.max_queue_depth = 1;
  ServiceApi api(options);
  OpenSmall(api, "conf");
  // A job that blocks the one worker long enough to fill the queue: a
  // cancelled-from-the-start solve still runs its (fast) body, so use a
  // plain submit and rely on queue order instead — the first submit may
  // start immediately, the second sits queued, the third sheds or lands
  // depending on timing. To make it deterministic, block the worker with
  // a raw queue job first.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  const int64_t blocker = *api.jobs().Submit("blocker",
                                             [&](const JobContext&) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    return JobResult();
  });
  while (true) {
    auto status = api.jobs().GetStatus(blocker);
    ASSERT_TRUE(status.ok());
    if (status->state != JobState::kQueued) break;
    std::this_thread::yield();
  }
  SubmitRequest request;
  request.session = "conf";
  request.solver = "greedy";
  ASSERT_TRUE(api.Submit(request).ok());  // fills the depth-1 queue
  auto shed = api.Submit(request);        // sheds
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  api.jobs().Drain();
}

// --- ServiceApi --------------------------------------------------------------

TEST(ServiceApiTest, SubmitRejectsBadRequestsBeforeCreatingAJob) {
  ServiceApi api;
  OpenSmall(api, "conf");

  SubmitRequest request;
  request.session = "conf";
  request.solver = "no-such-solver";
  EXPECT_EQ(api.Submit(request).status().code(), StatusCode::kNotFound);

  request.solver = "greedy";
  request.knobs["threads"] = "4";  // greedy declares no `threads` knob
  EXPECT_EQ(api.Submit(request).status().code(),
            StatusCode::kInvalidArgument);
  request.knobs.clear();

  request.session = "nope";
  EXPECT_EQ(api.Submit(request).status().code(), StatusCode::kNotFound);

  // Refining without an installed assignment is a precondition failure.
  request.session = "conf";
  request.solver = "sra";
  request.kind = core::SolverRequest::Kind::kRefineCra;
  EXPECT_EQ(api.Submit(request).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceApiTest, SolveJobInstallsAndMatchesDirectRegistryRun) {
  ServiceApi api;
  OpenSmall(api, "conf");
  auto snap = api.store().Get("conf");
  ASSERT_TRUE(snap.ok());

  SubmitRequest request;
  request.session = "conf";
  request.solver = "sdga-sra";
  request.seed = 7;
  auto submitted = api.Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = api.WaitJob(submitted->job);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  // The job's payloads are byte-for-byte what a direct (sequential)
  // registry run on the same snapshot renders.
  core::SolverRunOptions options;
  options.seed = 7;
  auto direct = core::SolverRegistry::Default().SolveCra(
      "sdga-sra", *snap->instance, options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(result->report,
            SolveReportLine("sdga-sra", *snap->instance, *direct, ""));
  EXPECT_EQ(result->pairs, direct->Pairs());

  // install=true: the session now holds that assignment.
  auto after = api.store().Get("conf");
  ASSERT_TRUE(after.ok());
  ASSERT_NE(after->assignment, nullptr);
  EXPECT_EQ(AssignmentCsv(*after->assignment), AssignmentCsv(*direct));
}

TEST(ServiceApiTest, SolveRacingAMutationKeepsSnapshotSemantics) {
  ServiceApi api;
  OpenSmall(api, "conf");
  auto snap = api.store().Get("conf");
  ASSERT_TRUE(snap.ok());

  // Submit the solve, then mutate immediately — under TSan this exercises
  // the solve-vs-mutate interleaving; whichever way the race lands, the
  // job's result must equal a sequential solve on the pre-mutation
  // snapshot, byte for byte.
  SubmitRequest request;
  request.session = "conf";
  request.solver = "sdga-sra";
  request.seed = 7;
  auto submitted = api.Submit(request);
  ASSERT_TRUE(submitted.ok());

  MutateRequest mutate;
  mutate.session = "conf";
  mutate.script = "set_coi 0 0 on\nset_coi 1 2 on\n";
  auto mutated = api.Mutate(mutate);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();

  auto result = api.WaitJob(submitted->job);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  core::SolverRunOptions options;
  options.seed = 7;
  auto direct = core::SolverRegistry::Default().SolveCra(
      "sdga-sra", *snap->instance, options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(result->report,
            SolveReportLine("sdga-sra", *snap->instance, *direct, ""));
  EXPECT_EQ(result->pairs, direct->Pairs());
}

TEST(ServiceApiTest, StaleSolveResultIsNotInstalledOverNewerState) {
  ServiceApi api;
  OpenSmall(api, "conf");

  // Occupy both default workers with the solve after pinning its snapshot
  // version, then land a mutation before the result can install.
  SubmitRequest request;
  request.session = "conf";
  request.solver = "sdga-sra";
  auto submitted = api.Submit(request);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(api.WaitJob(submitted->job).ok());
  auto installed = api.store().Get("conf");
  ASSERT_TRUE(installed.ok());
  ASSERT_NE(installed->assignment, nullptr);

  // A second solve whose snapshot predates the next mutation: force the
  // stale path deterministically by mutating after the job drains but
  // before checking, using install-if-current directly.
  core::Assignment stale_result(installed->instance.get());
  ASSERT_TRUE(stale_result.AddUnchecked(0, 1).ok());
  auto stale = api.store().InstallAssignmentIfCurrent(
      "conf", installed->version - 1, stale_result);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  auto after = api.store().Get("conf");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(AssignmentCsv(*after->assignment),
            AssignmentCsv(*installed->assignment));
}

TEST(ServiceApiTest, CancelAbortsASolveMidRun) {
  // One worker, and a deliberately heavyweight solve (ILP on a beefed-up
  // instance) so the cancel lands while the solver is searching. Both the
  // queued-skip and the mid-run paths end in kCancelled, so the only
  // timing requirement is that the solve does not finish before Cancel()
  // returns — guaranteed by slowing every deadline poll with a failpoint
  // delay rather than by hoping the instance is big enough under a loaded
  // test machine.
  ASSERT_TRUE(failpoint::Arm("solver.poll", "delay:2").ok());
  core::FuzzInstanceConfig config;
  config.reviewers = 60;
  config.papers = 40;
  config.num_topics = 20;
  config.seed = 5;
  auto dataset = core::MakeFuzzDataset(config);
  ASSERT_TRUE(dataset.ok());

  ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/8});
  OpenRequest open;
  open.session = "big";
  open.dataset_csv = data::DatasetToCsv(*dataset);
  open.params = core::MakeFuzzParams(config);
  ASSERT_TRUE(api.Open(open).ok());

  SubmitRequest request;
  request.session = "big";
  request.solver = "ilp";
  auto submitted = api.Submit(request);
  ASSERT_TRUE(submitted.ok());
  // Wait until it is actually running, then cancel.
  for (;;) {
    auto status = api.GetJobStatus(submitted->job);
    ASSERT_TRUE(status.ok());
    if (status->state != JobState::kQueued) break;
    std::this_thread::yield();
  }
  (void)api.CancelJob(submitted->job);
  auto result = api.WaitJob(submitted->job);
  failpoint::DisarmAll();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled)
      << result->status.ToString();
  // The session must not have been polluted by the aborted solve.
  auto after = api.store().Get("big");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->assignment, nullptr);
}

TEST(ServiceApiTest, ResolveRepairsAfterMutation) {
  ServiceApi api;
  OpenSmall(api, "conf");

  SubmitRequest solve;
  solve.session = "conf";
  solve.solver = "sdga-sra";
  auto submitted = api.Submit(solve);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(api.WaitJob(submitted->job).ok());

  // Knock out a paper's reviewer, then resolve incrementally.
  MutateRequest mutate;
  mutate.session = "conf";
  mutate.script = "remove_reviewer 0\n";
  ASSERT_TRUE(api.Mutate(mutate).ok());

  ResolveRequest resolve;
  resolve.session = "conf";
  resolve.knobs["update_refine"] = "sra";
  auto resubmitted = api.Resolve(resolve);
  ASSERT_TRUE(resubmitted.ok()) << resubmitted.status().ToString();
  auto result = api.WaitJob(resubmitted->job);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_NE(result->report.find("incremental: score"), std::string::npos);
  EXPECT_NE(result->report.find("feasible: yes"), std::string::npos);

  // The repaired assignment was installed (no competing mutation).
  auto after = api.store().Get("conf");
  ASSERT_TRUE(after.ok());
  ASSERT_NE(after->assignment, nullptr);
  EXPECT_TRUE(after->assignment->ValidateComplete().ok());

  // Resolve validates its knobs against the pipeline schema.
  ResolveRequest bad;
  bad.session = "conf";
  bad.knobs["update_refine"] = "cold";
  EXPECT_EQ(api.Resolve(bad).status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceApiTest, SolveJobStreamsMonotoneProgressFrames) {
  ServiceApi api;
  OpenSmall(api, "conf");
  SubmitRequest request;
  request.session = "conf";
  request.solver = "sdga-sra";
  request.seed = 7;
  auto submitted = api.Submit(request);
  ASSERT_TRUE(submitted.ok());
  auto result = api.WaitJob(submitted->job);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());

  auto page = api.WaitJobProgress(submitted->job, 0);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(page->done);
  ASSERT_FALSE(page->frames.empty());
  // Every frame is the fixed wire format, and best never regresses —
  // SDGA's stages add non-negative marginal gains and SRA/LS only emit on
  // improvement, so the stream is a monotone convergence curve.
  double last_best = -1.0;
  for (const std::string& frame : page->frames) {
    char phase[16] = {0};
    long long round = 0;
    double best = 0.0;
    ASSERT_EQ(std::sscanf(frame.c_str(), "progress %15s round %lld best %lf",
                          phase, &round, &best),
              3)
        << frame;
    EXPECT_GE(best, last_best) << frame;
    last_best = best;
  }
  // The job's payload carries no telemetry: the report is untouched by
  // the progress machinery.
  EXPECT_EQ(result->report.find("progress"), std::string::npos);
}

}  // namespace
}  // namespace wgrap::service
