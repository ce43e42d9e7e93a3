// Mutation-fuzz equivalence harness for the online-update subsystem
// (core/update.h). A seeded fuzzer interleaves hundreds of random typed
// mutations with checkpoints; at every checkpoint the patched Instance
// and its CSR sparse views must be EXPECT_EQ-identical — bit for bit — to
// state built from scratch off an independently maintained ground truth,
// and IncrementalResolve on the patched state must follow the
// bit-identical trajectory of a resolve on the freshly built state. The
// grid covers dense|sparse topic kernels and 1|8 resolve threads across
// multiple seeds; a dedicated case pins the pure-removal sequence the ROADMAP
// calls out, and smaller tests cover validation failures, eviction
// reporting and the mutation-script grammar.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/update.h"
#include "data/dataset.h"
#include "fuzz_util.h"

namespace wgrap::core {
namespace {

// The shared shape of every fuzz case: tight dynamic workload (so
// add/remove ops exercise the δr recompute + eviction path), a sprinkle
// of COIs and live bids.
FuzzInstanceConfig BaseConfig(uint64_t seed, bool sparse) {
  FuzzInstanceConfig config;
  config.reviewers = 24;
  config.papers = 30;
  config.num_topics = 12;
  config.group_size = 3;
  config.extra_workload = 0;  // dynamic δr = ⌈P·δp/R⌉
  config.conflict_rate = 0.05;
  config.with_bids = true;
  config.bid_weight = 0.4;
  config.sparse_topics = sparse;
  config.seed = seed;
  return config;
}

// Ground truth the fuzzer maintains by plain row/column edits, never via
// the updater — the independent source every checkpoint rebuilds from.
struct GroundTruth {
  data::RapDataset dataset;
  std::vector<std::vector<char>> coi;     // P × R
  std::vector<std::vector<double>> bids;  // P × R
  bool with_bids = false;
  double bid_weight = 0.0;

  int P() const { return static_cast<int>(dataset.papers.size()); }
  int R() const { return static_cast<int>(dataset.reviewers.size()); }
};

// Replays exactly the perturbation stream PerturbInstance applies, so the
// ground truth starts equal to the fuzz instance.
GroundTruth MakeGroundTruth(const FuzzInstanceConfig& config) {
  GroundTruth gt;
  auto dataset = MakeFuzzDataset(config);
  EXPECT_TRUE(dataset.ok());
  gt.dataset = *dataset;
  gt.coi.assign(config.papers, std::vector<char>(config.reviewers, 0));
  gt.bids.assign(config.papers, std::vector<double>(config.reviewers, 0.0));
  Rng rng(config.seed ^ 0xc01);
  if (config.conflict_rate > 0) {
    for (int p = 0; p < config.papers; ++p) {
      for (int r = 0; r < config.reviewers; ++r) {
        if (rng.NextDouble() < config.conflict_rate) gt.coi[p][r] = 1;
      }
    }
  }
  if (config.with_bids) {
    for (int p = 0; p < config.papers; ++p) {
      for (int r = 0; r < config.reviewers; ++r) {
        gt.bids[p][r] = rng.NextDouble();
      }
    }
    gt.with_bids = true;
    gt.bid_weight = config.bid_weight;
  }
  return gt;
}

// Applies one typed update to the ground truth with plain container edits
// (the same positional id semantics as the updater documents).
void ApplyToGroundTruth(GroundTruth* gt, const InstanceUpdate& u) {
  switch (u.kind) {
    case InstanceUpdate::Kind::kAddPaper:
      gt->dataset.papers.push_back({"added", u.topics, "fuzz"});
      gt->coi.emplace_back(gt->R(), 0);
      gt->bids.emplace_back(gt->R(), 0.0);
      break;
    case InstanceUpdate::Kind::kRemovePaper:
      gt->dataset.papers.erase(gt->dataset.papers.begin() + u.paper);
      gt->coi.erase(gt->coi.begin() + u.paper);
      gt->bids.erase(gt->bids.begin() + u.paper);
      break;
    case InstanceUpdate::Kind::kAddReviewer:
      gt->dataset.reviewers.push_back({"added", u.topics, 0});
      for (auto& row : gt->coi) row.push_back(0);
      for (auto& row : gt->bids) row.push_back(0.0);
      break;
    case InstanceUpdate::Kind::kRemoveReviewer:
      gt->dataset.reviewers.erase(gt->dataset.reviewers.begin() + u.reviewer);
      for (auto& row : gt->coi) row.erase(row.begin() + u.reviewer);
      for (auto& row : gt->bids) row.erase(row.begin() + u.reviewer);
      break;
    case InstanceUpdate::Kind::kSetCoi:
      gt->coi[u.paper][u.reviewer] = u.conflicted ? 1 : 0;
      break;
    case InstanceUpdate::Kind::kSetBid:
      gt->bids[u.paper][u.reviewer] = u.value;
      break;
    case InstanceUpdate::Kind::kSetPaperTopics:
      gt->dataset.papers[u.paper].topics = u.topics;
      break;
    case InstanceUpdate::Kind::kSetReviewerTopics:
      gt->dataset.reviewers[u.reviewer].topics = u.topics;
      break;
  }
}

// Builds a fresh instance from the mutated ground truth — the cold
// FromDataset path the patched instance must be bitwise equal to.
Instance BuildFresh(const GroundTruth& gt, const InstanceParams& params) {
  auto instance = Instance::FromDataset(gt.dataset, params);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  for (int p = 0; p < gt.P(); ++p) {
    for (int r = 0; r < gt.R(); ++r) {
      if (gt.coi[p][r]) instance->AddConflict(r, p);
    }
  }
  if (gt.with_bids) {
    Matrix bids(gt.P(), gt.R());
    for (int p = 0; p < gt.P(); ++p) {
      for (int r = 0; r < gt.R(); ++r) bids(p, r) = gt.bids[p][r];
    }
    EXPECT_TRUE(instance->SetBids(std::move(bids), gt.bid_weight).ok());
  }
  return *std::move(instance);
}

int ClearReviewers(const GroundTruth& gt, int paper) {
  int clear = 0;
  for (int r = 0; r < gt.R(); ++r) clear += gt.coi[paper][r] ? 0 : 1;
  return clear;
}

// Draws the next mutation, constrained so the instance stays solvable:
// papers keep a few COI-free reviewers to choose from and the reviewer
// pool never shrinks to the group size.
InstanceUpdate RandomOp(Rng* rng, const GroundTruth& gt,
                        const FuzzInstanceConfig& config) {
  const int T = config.num_topics;
  for (;;) {
    const int P = gt.P();
    const int R = gt.R();
    switch (rng->NextInt(0, 7)) {
      case 0:
        return InstanceUpdate::AddPaper(RandomTopics(rng, T));
      case 1:
        if (P <= 4) continue;
        return InstanceUpdate::RemovePaper(rng->NextInt(0, P - 1));
      case 2:
        return InstanceUpdate::AddReviewer(RandomTopics(rng, T));
      case 3: {
        if (R <= config.group_size + 4) continue;
        const int r = rng->NextInt(0, R - 1);
        bool safe = true;
        for (int p = 0; p < P && safe; ++p) {
          if (ClearReviewers(gt, p) - (gt.coi[p][r] ? 0 : 1) <
              config.group_size + 1) {
            safe = false;
          }
        }
        if (!safe) continue;
        return InstanceUpdate::RemoveReviewer(r);
      }
      case 4: {
        const int p = rng->NextInt(0, P - 1);
        const int r = rng->NextInt(0, R - 1);
        bool on = rng->NextDouble() < 0.5;
        if (on && !gt.coi[p][r] &&
            ClearReviewers(gt, p) <= config.group_size + 2) {
          on = false;  // keep the paper comfortably assignable
        }
        return InstanceUpdate::SetCoi(r, p, on);
      }
      case 5:
        if (!config.with_bids) continue;
        return InstanceUpdate::SetBid(rng->NextInt(0, P - 1),
                                      rng->NextInt(0, R - 1),
                                      rng->NextDouble());
      case 6:
        return InstanceUpdate::SetPaperTopics(rng->NextInt(0, P - 1),
                                              RandomTopics(rng, T));
      default:
        return InstanceUpdate::SetReviewerTopics(rng->NextInt(0, R - 1),
                                                 RandomTopics(rng, T));
    }
  }
}

void ExpectSparseVectorsEqual(const sparse::SparseVector& a,
                              const sparse::SparseVector& b,
                              const std::string& what) {
  ASSERT_EQ(a.nnz, b.nnz) << what;
  ASSERT_EQ(a.dim, b.dim) << what;
  for (int e = 0; e < a.nnz; ++e) {
    EXPECT_EQ(a.ids[e], b.ids[e]) << what << " entry " << e;
    EXPECT_EQ(a.values[e], b.values[e]) << what << " entry " << e;
  }
}

// The tentpole assertion: every observable piece of the patched instance
// equals — EXPECT_EQ on doubles, i.e. bitwise — the fresh build.
void ExpectInstancesBitEqual(const Instance& patched, const Instance& fresh) {
  ASSERT_EQ(patched.num_papers(), fresh.num_papers());
  ASSERT_EQ(patched.num_reviewers(), fresh.num_reviewers());
  ASSERT_EQ(patched.num_topics(), fresh.num_topics());
  EXPECT_EQ(patched.group_size(), fresh.group_size());
  EXPECT_EQ(patched.reviewer_workload(), fresh.reviewer_workload());
  EXPECT_EQ(patched.scoring(), fresh.scoring());
  EXPECT_EQ(patched.has_bids(), fresh.has_bids());
  EXPECT_EQ(patched.bid_weight(), fresh.bid_weight());
  ASSERT_EQ(patched.has_sparse_topics(), fresh.has_sparse_topics());
  const int P = patched.num_papers();
  const int R = patched.num_reviewers();
  const int T = patched.num_topics();
  for (int r = 0; r < R; ++r) {
    const double* a = patched.ReviewerVector(r);
    const double* b = fresh.ReviewerVector(r);
    for (int t = 0; t < T; ++t) {
      EXPECT_EQ(a[t], b[t]) << "reviewer " << r << " topic " << t;
    }
  }
  for (int p = 0; p < P; ++p) {
    const double* a = patched.PaperVector(p);
    const double* b = fresh.PaperVector(p);
    for (int t = 0; t < T; ++t) {
      EXPECT_EQ(a[t], b[t]) << "paper " << p << " topic " << t;
    }
    EXPECT_EQ(patched.PaperMass(p), fresh.PaperMass(p)) << "paper " << p;
  }
  for (int p = 0; p < P; ++p) {
    for (int r = 0; r < R; ++r) {
      EXPECT_EQ(patched.IsConflict(r, p), fresh.IsConflict(r, p))
          << "coi (" << r << ", " << p << ")";
      EXPECT_EQ(patched.BidBonus(r, p), fresh.BidBonus(r, p))
          << "bid (" << r << ", " << p << ")";
    }
  }
  if (patched.has_sparse_topics()) {
    for (int r = 0; r < R; ++r) {
      ExpectSparseVectorsEqual(patched.ReviewerSparse(r),
                               fresh.ReviewerSparse(r),
                               "csr reviewer " + std::to_string(r));
    }
    for (int p = 0; p < P; ++p) {
      ExpectSparseVectorsEqual(patched.PaperSparse(p), fresh.PaperSparse(p),
                               "csr paper " + std::to_string(p));
    }
  }
}

// Clones the tracked groups onto the fresh instance (AddUnchecked in group
// order — this also proves every surviving pair is COI-free and in range).
Assignment CloneOnto(const Assignment& tracked, const Instance& fresh) {
  Assignment clone(&fresh);
  for (int p = 0; p < fresh.num_papers(); ++p) {
    for (int r : tracked.GroupFor(p)) {
      const Status st = clone.AddUnchecked(p, r);
      EXPECT_TRUE(st.ok()) << "pair (" << p << ", " << r << "): "
                           << st.ToString();
    }
  }
  return clone;
}

SolverRunOptions ResolveOptions(int threads, const std::string& refine) {
  SolverRunOptions options;
  options.seed = 777;
  options.extra["threads"] = std::to_string(threads);
  options.extra["update_refine"] = refine;
  options.extra["sra_omega"] = "6";  // keep the SRA leg of the grid fast
  return options;
}

// Resolves patched and fresh copies and asserts the bit-identical
// trajectory: same status, same groups pair for pair, same scores bit for
// bit. Returns the patched score (0 when the resolve failed).
double ExpectResolveMechanismEqual(const Instance& patched_instance,
                                   const Assignment& tracked,
                                   const Instance& fresh_instance,
                                   const Assignment& fresh_clone,
                                   const SolverRunOptions& options) {
  Assignment patched_run = tracked;
  Assignment fresh_run = fresh_clone;
  auto a = IncrementalResolve(patched_instance, &patched_run, options);
  auto b = IncrementalResolve(fresh_instance, &fresh_run, options);
  EXPECT_EQ(a.status().code(), b.status().code())
      << a.status().ToString() << " vs " << b.status().ToString();
  if (!a.ok() || !b.ok()) return 0.0;
  EXPECT_EQ(a->score_before, b->score_before);
  EXPECT_EQ(a->score_after, b->score_after);
  EXPECT_EQ(a->repaired_papers, b->repaired_papers);
  EXPECT_EQ(a->added_pairs, b->added_pairs);
  for (int p = 0; p < patched_instance.num_papers(); ++p) {
    EXPECT_EQ(patched_run.GroupFor(p), fresh_run.GroupFor(p))
        << "paper " << p;
    EXPECT_EQ(patched_run.PaperScore(p), fresh_run.PaperScore(p))
        << "paper " << p;
  }
  EXPECT_EQ(patched_run.TotalScore(), fresh_run.TotalScore());
  EXPECT_TRUE(patched_run.ValidateComplete().ok());
  return a->score_after;
}

struct UpdateFuzzCase {
  uint64_t seed;
  bool sparse;
  int threads;

  std::string Name() const {
    return std::string(sparse ? "sparse" : "dense") + "_t" +
           std::to_string(threads) + "_s" + std::to_string(seed);
  }
};

class UpdateEquivalenceTest : public ::testing::TestWithParam<UpdateFuzzCase> {
};

TEST_P(UpdateEquivalenceTest, PatchedStateMatchesFreshBuild) {
  const UpdateFuzzCase& c = GetParam();
  const FuzzInstanceConfig config = BaseConfig(c.seed, c.sparse);
  const InstanceParams params = MakeFuzzParams(config);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Instance instance = *std::move(built);
  GroundTruth gt = MakeGroundTruth(config);

  // Start from a solved conference, the scenario the subsystem exists for.
  auto solved = SolverRegistry::Default().SolveCra("sdga", instance);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  Assignment assignment = *std::move(solved);

  InstanceUpdater updater(&instance, params);
  updater.TrackAssignment(&assignment);

  constexpr int kNumOps = 200;
  constexpr int kCheckpointEvery = 50;
  Rng rng(c.seed ^ 0x0bdeface);
  double last_resolved_score = 0.0;
  for (int op = 1; op <= kNumOps; ++op) {
    const InstanceUpdate update = RandomOp(&rng, gt, config);
    auto report = updater.Apply(update);
    ASSERT_TRUE(report.ok()) << update.ToString() << ": "
                             << report.status().ToString();
    ApplyToGroundTruth(&gt, update);

    // The tracked assignment must stay a feasible partial one after every
    // single op, not just at checkpoints.
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_LE(assignment.LoadOf(r), instance.reviewer_workload());
    }

    if (op % kCheckpointEvery != 0) continue;
    SCOPED_TRACE("op " + std::to_string(op));
    const Instance fresh = BuildFresh(gt, params);
    ExpectInstancesBitEqual(instance, fresh);

    Assignment fresh_clone = CloneOnto(assignment, fresh);
    for (int p = 0; p < instance.num_papers(); ++p) {
      ASSERT_LE(static_cast<int>(assignment.GroupFor(p).size()),
                instance.group_size());
    }
    // Normalized numeric state: re-derive the patched scores from the
    // groups; they must equal the fresh clone's bit for bit.
    Assignment normalized = assignment;
    normalized.RecomputeAll();
    fresh_clone.RecomputeAll();
    for (int p = 0; p < instance.num_papers(); ++p) {
      EXPECT_EQ(normalized.PaperScore(p), fresh_clone.PaperScore(p));
      const double* a = normalized.GroupVector(p);
      const double* b = fresh_clone.GroupVector(p);
      for (int t = 0; t < instance.num_topics(); ++t) EXPECT_EQ(a[t], b[t]);
    }
    EXPECT_EQ(normalized.TotalScore(), fresh_clone.TotalScore());

    // Repair-only resolve follows the bit-identical trajectory on the
    // patched and the fresh state (cheap enough to run per checkpoint).
    ExpectResolveMechanismEqual(instance, assignment, fresh, fresh_clone,
                                ResolveOptions(c.threads, "none"));
    if (op == kNumOps) {
      // The full pipeline with refinement, plus the documented score bound
      // against a cold solve (core/update.h): repaired + refined lands
      // within 15% of solving the mutated instance from scratch.
      last_resolved_score = ExpectResolveMechanismEqual(
          instance, assignment, fresh, fresh_clone,
          ResolveOptions(c.threads, "sra"));
      // update_refine is an IncrementalResolve-level knob the cold solver
      // does not declare, so it is dropped from the map.
      SolverRunOptions cold_options = ResolveOptions(c.threads, "sra");
      cold_options.extra.erase("update_refine");
      auto cold = SolverRegistry::Default().SolveCra("sdga-sra", instance,
                                                     cold_options);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      EXPECT_GE(last_resolved_score, 0.85 * cold->TotalScore());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UpdateEquivalenceTest,
    ::testing::ValuesIn([] {
      std::vector<UpdateFuzzCase> cases;
      for (uint64_t seed : {201, 202, 203, 204}) {
        for (bool sparse : {false, true}) {
          for (int threads : {1, 8}) {
            cases.push_back({seed, sparse, threads});
          }
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<UpdateFuzzCase>& info) {
      return info.param.Name();
    });

// The ROADMAP's pure-removal scenario: withdrawals and reviewer drop-outs
// only. The patched state stays bitwise equal to the fresh build, so the
// incremental resolve is bit-identical in mechanism to one run on a
// cold-built instance.
TEST(UpdateEquivalencePureRemoval, ResolveMatchesFreshBuildExactly) {
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/4242, false);
  const InstanceParams params = MakeFuzzParams(config);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok());
  Instance instance = *std::move(built);
  GroundTruth gt = MakeGroundTruth(config);

  auto solved = SolverRegistry::Default().SolveCra("sdga", instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *std::move(solved);

  InstanceUpdater updater(&instance, params);
  updater.TrackAssignment(&assignment);

  Rng rng(0x5eed);
  int evictions = 0;
  for (int op = 0; op < 12; ++op) {
    InstanceUpdate update =
        (op % 3 != 2) ? InstanceUpdate::RemovePaper(
                            rng.NextInt(0, gt.P() - 1))
                      : InstanceUpdate::RemoveReviewer(
                            rng.NextInt(0, gt.R() - 1));
    auto report = updater.Apply(update);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    evictions += static_cast<int>(report->evicted.size());
    ApplyToGroundTruth(&gt, update);
  }
  EXPECT_GT(evictions, 0);  // removals must actually evict pairs

  const Instance fresh = BuildFresh(gt, params);
  ExpectInstancesBitEqual(instance, fresh);
  Assignment fresh_clone = CloneOnto(assignment, fresh);
  ExpectResolveMechanismEqual(instance, assignment, fresh, fresh_clone,
                              ResolveOptions(1, "sra"));
}

// --- validation and reporting ---------------------------------------------

TEST(InstanceUpdaterValidation, RejectedOpsLeaveTheInstanceUntouched) {
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/7, false);
  const InstanceParams params = MakeFuzzParams(config);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok());
  Instance instance = *std::move(built);
  const GroundTruth gt = MakeGroundTruth(config);

  InstanceUpdater updater(&instance, params);
  const int T = config.num_topics;
  // Out-of-range ids.
  EXPECT_EQ(updater.Apply(InstanceUpdate::RemovePaper(-1)).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      updater.Apply(InstanceUpdate::RemoveReviewer(gt.R())).status().code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      updater.Apply(InstanceUpdate::SetCoi(0, gt.P(), true)).status().code(),
      StatusCode::kOutOfRange);
  // Malformed topic vectors (wrong length, negative weight, zero mass).
  EXPECT_EQ(updater.Apply(InstanceUpdate::AddPaper({0.5})).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<double> negative(T, 0.1);
  negative[2] = -0.1;
  EXPECT_EQ(
      updater.Apply(InstanceUpdate::SetPaperTopics(0, negative))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(updater
                .Apply(InstanceUpdate::SetReviewerTopics(
                    0, std::vector<double>(T, 0.0)))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Bid outside [0, 1].
  EXPECT_EQ(updater.Apply(InstanceUpdate::SetBid(0, 0, 1.5)).status().code(),
            StatusCode::kInvalidArgument);
  // Every rejection validated before mutating: still equal to the
  // untouched ground truth.
  ExpectInstancesBitEqual(instance, BuildFresh(gt, params));
}

TEST(InstanceUpdaterValidation, SetBidNeedsABidMatrix) {
  FuzzInstanceConfig config = BaseConfig(/*seed=*/8, false);
  config.with_bids = false;
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok());
  Instance instance = *std::move(built);
  InstanceUpdater updater(&instance, MakeFuzzParams(config));
  EXPECT_EQ(updater.Apply(InstanceUpdate::SetBid(0, 0, 0.5)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InstanceUpdaterValidation, FixedWorkloadCapacityIsEnforced) {
  // 4 reviewers × δr=3 = 12 slots exactly covers 6 papers × δp=2; a 7th
  // paper cannot fit and must be rejected (capacity message), while the
  // dynamic-δr regime absorbs it by raising δr.
  FuzzInstanceConfig config;
  config.reviewers = 4;
  config.papers = 6;
  config.num_topics = 6;
  config.group_size = 2;
  config.extra_workload = 0;
  config.seed = 99;
  auto dataset = MakeFuzzDataset(config);
  ASSERT_TRUE(dataset.ok());
  InstanceParams fixed = MakeFuzzParams(config);
  fixed.reviewer_workload = 3;
  auto instance = Instance::FromDataset(*dataset, fixed);
  ASSERT_TRUE(instance.ok());
  InstanceUpdater updater(&*instance, fixed);
  auto rejected =
      updater.Apply(InstanceUpdate::AddPaper(std::vector<double>(6, 0.2)));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  InstanceParams dynamic = MakeFuzzParams(config);
  auto dyn_instance = Instance::FromDataset(*dataset, dynamic);
  ASSERT_TRUE(dyn_instance.ok());
  EXPECT_EQ(dyn_instance->reviewer_workload(), 3);
  InstanceUpdater dyn_updater(&*dyn_instance, dynamic);
  auto accepted = dyn_updater.Apply(
      InstanceUpdate::AddPaper(std::vector<double>(6, 0.2)));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(dyn_instance->reviewer_workload(), 4);  // ⌈14/4⌉
}

TEST(InstanceUpdaterReport, CoiOnAnAssignedPairEvictsExactlyThatPair) {
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/11, false);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok());
  Instance instance = *std::move(built);
  auto solved = SolverRegistry::Default().SolveCra("sdga", instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *std::move(solved);
  InstanceUpdater updater(&instance, MakeFuzzParams(config));
  updater.TrackAssignment(&assignment);

  const int paper = 0;
  const int reviewer = assignment.GroupFor(paper)[0];
  auto report =
      updater.Apply(InstanceUpdate::SetCoi(reviewer, paper, true));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->evicted.size(), 1u);
  EXPECT_EQ(report->evicted[0], std::make_pair(paper, reviewer));
  EXPECT_FALSE(assignment.Contains(paper, reviewer));
  EXPECT_TRUE(instance.IsConflict(reviewer, paper));
  // Toggling the same COI again is a no-op, not a second eviction.
  auto again = updater.Apply(InstanceUpdate::SetCoi(reviewer, paper, true));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->evicted.empty());
}

// --- mutation-script grammar ----------------------------------------------

TEST(ParseMutationScriptTest, ParsesEveryOpAndRoundTrips) {
  const std::string script =
      "# withdrawn papers first\n"
      "remove_paper 3\n"
      "\n"
      "add_paper 0.25 0 0.75\n"
      "add_reviewer 1 0 0.5   # late sign-up\n"
      "remove_reviewer 2\n"
      "set_coi 4 1 on\n"
      "set_coi 4 1 off\n"
      "set_bid 1 4 0.625\n"
      "set_paper_topics 0 0.5 0.5 0\n"
      "set_reviewer_topics 5 0 1 0\n";
  auto updates = ParseMutationScript(script);
  ASSERT_TRUE(updates.ok()) << updates.status().ToString();
  ASSERT_EQ(updates->size(), 9u);
  EXPECT_EQ((*updates)[0].kind, InstanceUpdate::Kind::kRemovePaper);
  EXPECT_EQ((*updates)[0].paper, 3);
  EXPECT_EQ((*updates)[1].topics, (std::vector<double>{0.25, 0.0, 0.75}));
  EXPECT_EQ((*updates)[2].kind, InstanceUpdate::Kind::kAddReviewer);
  EXPECT_EQ((*updates)[3].reviewer, 2);
  EXPECT_TRUE((*updates)[4].conflicted);
  EXPECT_FALSE((*updates)[5].conflicted);
  EXPECT_EQ((*updates)[6].value, 0.625);
  EXPECT_EQ((*updates)[7].kind, InstanceUpdate::Kind::kSetPaperTopics);
  EXPECT_EQ((*updates)[8].kind, InstanceUpdate::Kind::kSetReviewerTopics);
  // ToString emits the script grammar, so a dump re-parses to the same ops.
  std::string dumped;
  for (const InstanceUpdate& u : *updates) dumped += u.ToString() + "\n";
  auto reparsed = ParseMutationScript(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), updates->size());
  for (size_t i = 0; i < updates->size(); ++i) {
    EXPECT_EQ((*reparsed)[i].ToString(), (*updates)[i].ToString()) << i;
  }
}

TEST(ParseMutationScriptTest, DiagnosesBadLinesByNumber) {
  auto unknown = ParseMutationScript("remove_paper 1\nfrobnicate 2\n");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("line 2"), std::string::npos);
  auto bad_coi = ParseMutationScript("set_coi 1 2 maybe\n");
  EXPECT_EQ(bad_coi.status().code(), StatusCode::kInvalidArgument);
  auto no_topics = ParseMutationScript("add_paper\n");
  EXPECT_EQ(no_topics.status().code(), StatusCode::kInvalidArgument);
  // A field with a tail, a token after the last field and a non-numeric
  // topic weight fail the line; none is read as a shorter valid line.
  for (const char* line :
       {"remove_paper 3abc", "set_coi 1 2 on off", "set_bid 1 2 0.5x",
        "remove_reviewer 4 5", "add_paper 0.1 0.2 junk 0.3",
        "set_paper_topics 1 0.5 0.5x"}) {
    SCOPED_TRACE(line);
    auto parsed =
        ParseMutationScript(std::string("remove_paper 1\n") + line + "\n");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
  }
  // Trailing blanks and comments still end a line cleanly.
  auto clean = ParseMutationScript(
      "set_coi 1 2 on   # conflict\nadd_paper 0.25 0.75 \nset_bid 1 2 0.5\n");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->size(), 3u);
  EXPECT_EQ((*clean)[1].topics, (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ((*clean)[2].value, 0.5);
}

TEST(SnapshotDatasetTest, RoundTripsTheLiveInstance) {
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/31, false);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok());
  const Instance& instance = *built;
  auto rebuilt = Instance::FromDataset(SnapshotDataset(instance),
                                       MakeFuzzParams(config));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  // COIs and bids live outside RapDataset; compare the dataset-backed state.
  ASSERT_EQ(rebuilt->num_papers(), instance.num_papers());
  ASSERT_EQ(rebuilt->num_reviewers(), instance.num_reviewers());
  EXPECT_EQ(rebuilt->reviewer_workload(), instance.reviewer_workload());
  for (int p = 0; p < instance.num_papers(); ++p) {
    EXPECT_EQ(rebuilt->PaperMass(p), instance.PaperMass(p));
    for (int t = 0; t < instance.num_topics(); ++t) {
      EXPECT_EQ(rebuilt->PaperVector(p)[t], instance.PaperVector(p)[t]);
    }
  }
  for (int r = 0; r < instance.num_reviewers(); ++r) {
    for (int t = 0; t < instance.num_topics(); ++t) {
      EXPECT_EQ(rebuilt->ReviewerVector(r)[t], instance.ReviewerVector(r)[t]);
    }
  }
}

}  // namespace
}  // namespace wgrap::core
