// Mutation-fuzz equivalence harness for the online-update subsystem
// (core/update.h). A seeded fuzzer interleaves hundreds of random typed
// mutations with checkpoints; at every checkpoint the patched Instance
// and its topic views (CSC reviewer index, CSR rows) must be
// EXPECT_EQ-identical — bit for bit — to state built from scratch off an
// independently maintained ground truth, and IncrementalResolve on the
// patched state must follow the bit-identical trajectory of a resolve on
// the freshly built state. The grid covers dense|sparse topic kernels and
// 1|8 resolve threads across multiple seeds; dedicated cases pin the
// pure-removal sequence the ROADMAP calls out, each op kind alone,
// reviewer ops that move topic columns across the heavy-column threshold
// (dense copies and the gain row pass checked after each), reviewer ops
// that move the instance across its topic kernel boundary, and
// smaller tests cover validation failures, eviction reporting and the
// mutation-script grammar. After every fuzzed op the instance's c(AI)
// memo (core::IdealScore) must memcmp-equal a from-scratch AI build, on
// the patched instance and on a copy evaluated before the op, and the
// tracked assignment (a FromPairs build, as the session store's master is)
// must be memcmp-equal to FromPairs of its pairs once its total is
// re-summed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/assignment.h"
#include "core/metrics.h"
#include "core/update.h"
#include "data/dataset.h"
#include "fuzz_util.h"
#include "obs/metrics.h"

namespace wgrap::core {
namespace {

// The shared shape of every fuzz case: tight dynamic workload (so
// add/remove ops exercise the δr recompute + eviction path), a sprinkle
// of COIs and live bids. The topic kernel is the caller's
// ScopedTopicKernel.
FuzzInstanceConfig BaseConfig(uint64_t seed) {
  FuzzInstanceConfig config;
  config.reviewers = 24;
  config.papers = 30;
  config.num_topics = 12;
  config.group_size = 3;
  config.extra_workload = 0;  // dynamic δr = ⌈P·δp/R⌉
  config.conflict_rate = 0.05;
  config.with_bids = true;
  config.bid_weight = 0.4;
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
  // The instance-owned CSC reviewer index: same shape, same column
  // offsets (degrees), same ids and values, with or without CSR views.
  const sparse::TopicIndex& index = patched.ReviewerTopicIndex();
  const sparse::TopicIndex& fresh_index = fresh.ReviewerTopicIndex();
  ASSERT_EQ(index.num_rows(), fresh_index.num_rows());
  ASSERT_EQ(index.num_topics(), fresh_index.num_topics());
  EXPECT_EQ(index.nnz(), fresh_index.nnz());
  for (int t = 0; t < T; ++t) {
    ExpectSparseVectorsEqual(index.Column(t), fresh_index.Column(t),
                             "csc topic " + std::to_string(t));
  }
  // Its dense copies of the heavy columns: the CSC columns with their
  // zeros in place, on the same topics as a fresh build.
  EXPECT_EQ(DenseColumnMismatch(index), "");
  EXPECT_EQ(index.num_dense_columns(), fresh_index.num_dense_columns());
  // The instance-owned topic rankings (Algorithm 1's sorted lists): the
  // same reviewer order on every topic.
  for (int t = 0; t < T; ++t) {
    const Instance::RankedList a = patched.TopicRanking(t);
    const Instance::RankedList b = fresh.TopicRanking(t);
    EXPECT_TRUE(std::equal(a.ids, a.ids + a.size, b.ids, b.ids + b.size))
        << "ranking topic " << t;
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

// Papers core::IdealScore has re-derived so far; -1 when telemetry is off.
int64_t IdealPapersRefreshed() {
  obs::Counter* counter = obs::Registry::Global().GetCounter(
      "wgrap_ideal_papers_refreshed_total");
  return counter != nullptr ? counter->Value() : -1;
}

// Expects `want` papers re-derived since *mark, then moves the mark to
// now; checks nothing when telemetry is off.
void ExpectRefreshed(int64_t* mark, int64_t want, const std::string& where) {
  const int64_t now = IdealPapersRefreshed();
  if (now >= 0) {
    EXPECT_EQ(now - *mark, want) << where;
  }
  *mark = now;
}

// c(AI) from the instance's memo memcmp-equals a from-scratch AI build, or
// both are infeasible. Returns the memo's answer.
std::optional<double> ExpectIdealScoreMatchesBuild(const Instance& instance,
                                                   const std::string& where) {
  const std::optional<double> cached = IdealScore(instance);
  auto ideal = BuildIdealAssignment(instance);
  EXPECT_EQ(cached.has_value(), ideal.ok()) << where;
  if (cached.has_value() && ideal.ok()) {
    const double scratch = ideal->TotalScore();
    EXPECT_EQ(std::memcmp(&*cached, &scratch, sizeof(double)), 0)
        << where << ": " << *cached << " vs " << scratch;
  }
  return cached;
}

// Both answers are infeasible, or both are the same double bit for bit.
void ExpectSameBits(std::optional<double> a, std::optional<double> b,
                    const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (a.has_value()) {
    EXPECT_EQ(std::memcmp(&*a, &*b, sizeof(double)), 0)
        << where << ": " << *a << " vs " << *b;
  }
}

// How many papers an op applied to `before` (memo filled) leaves stale in
// the c(AI) memo of `after` (the staleness rules in core/update.h).
int StaleAfter(const InstanceUpdate& u, const Instance& before,
               const Instance& after) {
  switch (u.kind) {
    case InstanceUpdate::Kind::kSetCoi:
      if (!u.conflicted) return 1;
      return CoiMovesAPick(before, u.reviewer, u.paper) ? 1 : 0;
    case InstanceUpdate::Kind::kSetBid:
    case InstanceUpdate::Kind::kSetPaperTopics:
      return 1;
    default:
      return after.num_papers();
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

// Rows Assignment::RecomputeAll has re-derived so far; -1 when telemetry
// is off.
int64_t RowsRederived() {
  obs::Counter* counter = obs::Registry::Global().GetCounter(
      "wgrap_assignment_rows_rederived_total");
  return counter != nullptr ? counter->Value() : -1;
}

// The stale-row contract of Assignment::RecomputeAll: whatever produced
// `assignment`, re-deriving only the rows it marks stale (or every row,
// when its instance moved on without it) gives FromPairs of its pairs
// bit for bit — group vectors, paper scores and total. Returns the rows
// that RecomputeAll re-derived (-1 when telemetry is off).
int64_t ExpectRecomputeAllIsFromPairs(const Assignment& assignment,
                                      const std::string& where) {
  auto rebuilt =
      Assignment::FromPairs(&assignment.instance(), assignment.Pairs());
  EXPECT_TRUE(rebuilt.ok()) << where << ": " << rebuilt.status().ToString();
  if (!rebuilt.ok()) return -1;
  Assignment normalized = assignment;
  const int64_t before = RowsRederived();
  normalized.RecomputeAll();
  const int64_t rows = before >= 0 ? RowsRederived() - before : -1;
  EXPECT_EQ(AssignmentMismatch(normalized, *rebuilt), "") << where;
  return rows;
}

// Expects RecomputeAll to have re-derived `want` rows; `rows` is -1 when
// telemetry is off, and then nothing is checked.
void ExpectRederived(int64_t rows, int64_t want, const std::string& where) {
  if (rows >= 0) {
    EXPECT_EQ(rows, want) << where;
  }
}

// threads and sra_omega go on the sra leg only: the resolve refuses a knob
// its refiner does not read.
SolverRunOptions ResolveOptions(int threads, const std::string& refine) {
  SolverRunOptions options;
  options.seed = 777;
  options.extra["update_refine"] = refine;
  if (refine == "sra") {
    options.extra["threads"] = std::to_string(threads);
    options.extra["sra_omega"] = "6";  // keep the SRA leg of the grid fast
  }
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
  const std::string refine = options.extra.at("update_refine");
  ExpectRecomputeAllIsFromPairs(patched_run, "resolve " + refine);
  ExpectRecomputeAllIsFromPairs(fresh_run, "fresh resolve " + refine);
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
  const ScopedTopicKernel kernel(c.sparse);
  const FuzzInstanceConfig config = BaseConfig(c.seed);
  const InstanceParams params = MakeFuzzParams(config);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Instance instance = *std::move(built);
  GroundTruth gt = MakeGroundTruth(config);

  // Start from a solved conference, the scenario the subsystem exists for,
  // built by FromPairs as the session store's master is.
  auto solved = SolverRegistry::Default().SolveCra("sdga", instance);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  auto from_pairs = Assignment::FromPairs(&instance, solved->Pairs());
  ASSERT_TRUE(from_pairs.ok()) << from_pairs.status().ToString();
  Assignment assignment = *std::move(from_pairs);

  InstanceUpdater updater(&instance, params);
  updater.TrackAssignment(&assignment);

  constexpr int kNumOps = 200;
  constexpr int kCheckpointEvery = 50;
  Rng rng(c.seed ^ 0x0bdeface);
  double last_resolved_score = 0.0;
  for (int op = 1; op <= kNumOps; ++op) {
    const InstanceUpdate update = RandomOp(&rng, gt, config);
    // A copy evaluated before the op shares the memo until the op
    // detaches it, and must keep its own answer.
    const Instance before = instance;
    const std::optional<double> before_score = IdealScore(before);
    auto report = updater.Apply(update);
    ASSERT_TRUE(report.ok()) << update.ToString() << ": "
                             << report.status().ToString();
    ApplyToGroundTruth(&gt, update);

    const std::string where = update.ToString();
    int64_t refreshed = IdealPapersRefreshed();
    ExpectIdealScoreMatchesBuild(instance, where);
    ExpectRefreshed(&refreshed, StaleAfter(update, before, instance), where);
    ExpectSameBits(ExpectIdealScoreMatchesBuild(before, where + " (copy)"),
                   before_score, where + " (copy)");

    // The tracked assignment must stay a feasible partial one after every
    // single op, not just at checkpoints.
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_LE(assignment.LoadOf(r), instance.reviewer_workload());
    }
    // What the session store's publish relies on: an assignment built by
    // FromPairs and then patched only by the updater has no stale row and
    // stays in step, so RecomputeAll re-derives nothing and re-sums the
    // total into its FromPairs build.
    ExpectRederived(ExpectRecomputeAllIsFromPairs(assignment, where), 0,
                    where);

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

    // Repair-only and local-search resolves follow the bit-identical
    // trajectory on the patched and the fresh state (cheap enough to run
    // per checkpoint).
    ExpectResolveMechanismEqual(instance, assignment, fresh, fresh_clone,
                                ResolveOptions(c.threads, "none"));
    ExpectResolveMechanismEqual(instance, assignment, fresh, fresh_clone,
                                ResolveOptions(c.threads, "ls"));
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
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/4242);
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

// Every op kind, alone, with and without CSR views: the patched views
// (CSC reviewer index included) equal a fresh build, and a copy taken
// before the op — what the service publishes — keeps the views it had.
TEST(UpdateEquivalenceOpKinds, EveryOpKeepsTheTopicViewsCurrent) {
  for (const bool sparse : {false, true}) {
    for (int kind = 0; kind < 8; ++kind) {
      SCOPED_TRACE("sparse " + std::to_string(sparse) + " kind " +
                   std::to_string(kind));
      const ScopedTopicKernel kernel(sparse);
      FuzzInstanceConfig config = BaseConfig(/*seed=*/300 + kind);
      config.with_bids = kind == 5;
      const InstanceParams params = MakeFuzzParams(config);
      auto built = MakeFuzzInstance(config);
      ASSERT_TRUE(built.ok());
      Instance instance = *std::move(built);
      GroundTruth gt = MakeGroundTruth(config);
      const Instance before = instance;
      const GroundTruth gt_before = gt;
      Rng rng(kind + 1);
      const int T = config.num_topics;
      const std::vector<InstanceUpdate> ops = {
          InstanceUpdate::AddPaper(RandomTopics(&rng, T)),
          InstanceUpdate::RemovePaper(2),
          InstanceUpdate::AddReviewer(RandomTopics(&rng, T)),
          InstanceUpdate::RemoveReviewer(5),
          InstanceUpdate::SetCoi(3, 1, true),
          InstanceUpdate::SetBid(1, 3, 0.75),
          InstanceUpdate::SetPaperTopics(4, RandomTopics(&rng, T)),
          InstanceUpdate::SetReviewerTopics(6, RandomTopics(&rng, T))};
      ASSERT_EQ(static_cast<int>(ops[kind].kind), kind);
      // `before` shares the evaluated memo until the op detaches it.
      const std::optional<double> before_score = IdealScore(before);
      InstanceUpdater updater(&instance, params);
      auto report = updater.Apply(ops[kind]);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ApplyToGroundTruth(&gt, ops[kind]);
      ExpectInstancesBitEqual(instance, BuildFresh(gt, params));
      ExpectInstancesBitEqual(before, BuildFresh(gt_before, params));
      int64_t refreshed = IdealPapersRefreshed();
      ExpectIdealScoreMatchesBuild(instance, "patched");
      ExpectRefreshed(&refreshed, StaleAfter(ops[kind], before, instance),
                      "patched");
      ExpectSameBits(ExpectIdealScoreMatchesBuild(before, "copy"),
                     before_score, "copy");
    }
  }
}

// Which topic columns of the reviewer index are heavy (kept dense).
std::vector<bool> HeavyColumns(const Instance& instance) {
  const sparse::TopicIndex& index = instance.ReviewerTopicIndex();
  std::vector<bool> heavy(index.num_topics());
  for (int t = 0; t < index.num_topics(); ++t) {
    heavy[t] = index.DenseColumn(t) != nullptr;
  }
  return heavy;
}

// The first topic whose degree times the heavy divisor is R + `offset`
// (offset 0: exactly at the threshold); the straddling pool always has one.
int TopicAtThreshold(const Instance& instance, int offset) {
  const sparse::TopicIndex& index = instance.ReviewerTopicIndex();
  int t = 0;
  while (index.ColumnNnz(t) * sparse::TopicIndex::kHeavyColumnDivisor !=
         index.num_rows() + offset) {
    ++t;
    WGRAP_CHECK_MSG(t < index.num_topics(), "no column at that degree");
  }
  return t;
}

// Reviewer ops that move columns across the heavy-column threshold of the
// reviewer index: set_reviewer_topics taking a column at it below it and
// lifting a column back to it, add_reviewer raising the threshold above a
// column, remove_reviewer lowering it again and dropping a carrier of a
// column at it. After each op the heavy set must have changed, the patched
// index (dense columns included) must equal a fresh build and match its
// own CSC columns, and the row pass must equal the per-pair gains.
TEST(UpdateEquivalenceOpKinds, ColumnsCrossTheHeavyThreshold) {
  constexpr int kDivisor = sparse::TopicIndex::kHeavyColumnDivisor;
  for (const ScoringFunction f :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
        ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct}) {
    for (const bool sparse : {false, true}) {
      SCOPED_TRACE(ScoringFunctionName(f) + (sparse ? " sparse" : " dense"));
      const ScopedTopicKernel kernel(sparse);
      GroundTruth gt;
      gt.dataset = MakeStraddlingDataset(/*reviewers=*/4 * kDivisor,
                                         /*papers=*/12, /*seed=*/77);
      gt.coi.assign(gt.P(), std::vector<char>(gt.R(), 0));
      gt.bids.assign(gt.P(), std::vector<double>(gt.R(), 0.0));
      gt.coi[2][5] = 1;
      InstanceParams params;
      params.group_size = 3;
      params.scoring = f;
      Instance instance = BuildFresh(gt, params);
      InstanceUpdater updater(&instance, params);
      // Each op is drawn against the state the previous ones left.
      const std::vector<std::function<InstanceUpdate()>> ops = {
          [&] {  // a column at the threshold loses a carrier
            const int t = TopicAtThreshold(instance, 0);
            const int r = instance.ReviewerTopicIndex().Column(t).ids[0];
            std::vector<double> topics = gt.dataset.reviewers[r].topics;
            topics[t] = 0.0;  // topic 0 keeps the mass positive
            return InstanceUpdate::SetReviewerTopics(r, topics);
          },
          [&] {  // a column one carrier short gains one
            const int t = TopicAtThreshold(instance, -kDivisor);
            int r = 0;
            while (instance.ReviewerVector(r)[t] > 0.0) ++r;
            std::vector<double> topics = gt.dataset.reviewers[r].topics;
            topics[t] = 0.5;
            return InstanceUpdate::SetReviewerTopics(r, topics);
          },
          [&] {  // R + 1 lifts the threshold above the columns at it
            std::vector<double> topics(gt.dataset.num_topics, 0.0);
            topics[0] = 0.4;
            return InstanceUpdate::AddReviewer(topics);
          },
          [&] {  // and removing it brings them back
            return InstanceUpdate::RemoveReviewer(gt.R() - 1);
          },
          [&] {  // R - 1 with a carrier of a column at the threshold gone
            const int t = TopicAtThreshold(instance, 0);
            return InstanceUpdate::RemoveReviewer(
                instance.ReviewerTopicIndex().Column(t).ids[0]);
          },
      };
      for (size_t i = 0; i < ops.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        const std::vector<bool> heavy_before = HeavyColumns(instance);
        const InstanceUpdate op = ops[i]();
        auto report = updater.Apply(op);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ApplyToGroundTruth(&gt, op);
        EXPECT_NE(HeavyColumns(instance), heavy_before);
        ExpectInstancesBitEqual(instance, BuildFresh(gt, params));
        Assignment assignment(&instance);
        const int P = instance.num_papers();
        const int R = instance.num_reviewers();
        for (int p = 0; p < P; ++p) {
          for (int k = 0; k < 2; ++k) {
            (void)assignment.AddUnchecked(p, (p * 5 + k * 3) % R);
          }
        }
        std::vector<double> row(R);
        for (int p = 0; p < P; ++p) {
          assignment.MarginalGainRow(p, row.data());
          for (int r = 0; r < R; ++r) {
            const double expected = assignment.MarginalGain(p, r);
            EXPECT_EQ(std::memcmp(&row[r], &expected, sizeof(double)), 0)
                << "paper " << p << " reviewer " << r;
          }
        }
      }
    }
  }
}

// Reviewer ops that move the instance across its topic kernel boundary
// (CSR while fewer than a quarter of the topic columns are heavy): after
// each op the patched instance equals its FromDataset rebuild, kernel
// included, and the kernel flipped; paper ops never flip it. 15 reviewers
// over T = 8 carry one topic each (degree 2; topic 7 degree 1), and two
// carry one more, so topics 2 and 3 sit at degree 3, one short of heavy
// (4 · degree >= R). Two heavy columns make the dense kernels.
TEST(UpdateEquivalenceOpKinds, TheTopicKernelFollowsTheReviewerSide) {
  const ScopedTopicKernel kernel(std::nullopt);  // the data decides
  constexpr int T = 8;
  const auto topics = [](std::initializer_list<int> support) {
    std::vector<double> v(T, 0.0);
    for (int t : support) v[t] = 0.25 + 0.125 * t;
    return v;
  };
  GroundTruth gt;
  gt.dataset.num_topics = T;
  for (int r = 0; r < 15; ++r) {
    std::vector<double> v = topics({r % T});
    if (r == 8) v[2] = 0.5;
    if (r == 9) v[3] = 0.5;
    gt.dataset.reviewers.push_back({"reviewer", v, 0});
  }
  Rng rng(91);
  for (int p = 0; p < 6; ++p) {
    gt.dataset.papers.push_back({"paper", RandomTopics(&rng, T), "V"});
  }
  gt.coi.assign(gt.P(), std::vector<char>(gt.R(), 0));
  gt.bids.assign(gt.P(), std::vector<double>(gt.R(), 0.0));
  InstanceParams params;
  params.group_size = 2;
  Instance instance = BuildFresh(gt, params);
  ASSERT_TRUE(instance.has_sparse_topics());
  InstanceUpdater updater(&instance, params);
  const std::vector<std::pair<InstanceUpdate, bool>> ops = {
      // topics 2 and 3 reach degree 4: dense
      {InstanceUpdate::SetReviewerTopics(0, topics({0, 2, 3})), false},
      {InstanceUpdate::SetReviewerTopics(0, topics({0})), true},
      // R = 16 puts the threshold at 4, which the newcomer reaches
      {InstanceUpdate::AddReviewer(topics({2, 3})), false},
      {InstanceUpdate::RemoveReviewer(15), true},
      {InstanceUpdate::SetReviewerTopics(1, topics({1, 2, 3})), false},
      {InstanceUpdate::AddPaper(RandomTopics(&rng, T)), false},
      {InstanceUpdate::SetPaperTopics(0, RandomTopics(&rng, T)), false},
      {InstanceUpdate::RemoveReviewer(9), true},
      {InstanceUpdate::SetPaperTopics(1, RandomTopics(&rng, T)), true},
      {InstanceUpdate::RemovePaper(2), true},
  };
  for (const auto& [op, csr] : ops) {
    SCOPED_TRACE(op.ToString());
    auto report = updater.Apply(op);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ApplyToGroundTruth(&gt, op);
    EXPECT_EQ(instance.has_sparse_topics(), csr);
    ExpectInstancesBitEqual(instance, BuildFresh(gt, params));
  }
}

// The two setup-time mutators outside InstanceUpdater, on an instance
// whose memo is already filled: AddConflict re-derives its one paper when
// it moves a pick, SetBids every paper, and a copy taken before keeps its
// answer. The last clear reviewer of a paper going COI makes AI
// infeasible.
TEST(IdealScoreMemo, AddConflictAndSetBidsOnAnEvaluatedInstance) {
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    const ScopedTopicKernel kernel(sparse);
    FuzzInstanceConfig config = BaseConfig(/*seed=*/77);
    config.with_bids = false;
    auto built = MakeFuzzInstance(config);
    ASSERT_TRUE(built.ok());
    Instance instance = *std::move(built);
    const int P = instance.num_papers();
    const int R = instance.num_reviewers();
    int64_t refreshed = IdealPapersRefreshed();
    const std::optional<double> cold =
        ExpectIdealScoreMatchesBuild(instance, "cold");
    ASSERT_TRUE(cold.has_value());
    ExpectRefreshed(&refreshed, P, "cold");
    ExpectIdealScoreMatchesBuild(instance, "warm");
    ExpectRefreshed(&refreshed, 0, "warm");

    const Instance before_coi = instance;
    instance.AddConflict(R - 1, 4);
    ExpectIdealScoreMatchesBuild(instance, "AddConflict");
    ExpectRefreshed(&refreshed, CoiMovesAPick(before_coi, R - 1, 4) ? 1 : 0,
                    "AddConflict");
    ExpectSameBits(IdealScore(before_coi), cold, "copy before AddConflict");

    Matrix bids(P, R);
    for (int p = 0; p < P; ++p) {
      for (int r = 0; r < R; ++r) bids(p, r) = ((p * 7 + r * 3) % 11) / 10.0;
    }
    const Instance before_bids = instance;
    const std::optional<double> coi_score = IdealScore(before_bids);
    ASSERT_TRUE(instance.SetBids(std::move(bids), 0.5).ok());
    ExpectIdealScoreMatchesBuild(instance, "SetBids");
    ExpectRefreshed(&refreshed, P, "SetBids");
    ExpectSameBits(IdealScore(before_bids), coi_score, "copy before SetBids");

    for (int r = 0; r < R; ++r) instance.AddConflict(r, 2);
    EXPECT_FALSE(ExpectIdealScoreMatchesBuild(instance, "all COI").has_value());
    ExpectRefreshed(&refreshed, 1, "all COI");
  }
}

// A COI that no greedy step chose moves no pick: set_coi ... on for a
// non-pick keeps the paper's c(AI) row (0 re-derived) and the memo a copy
// still shares, for a pick it re-derives that one row, and an `off`
// always re-derives its row. Every answer equals a from-scratch build.
TEST(IdealScoreMemo, ACoiReDerivesItsRowOnlyWhenItHitsAPick) {
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    const ScopedTopicKernel kernel(sparse);
    const FuzzInstanceConfig config = BaseConfig(/*seed=*/91);
    auto built = MakeFuzzInstance(config);
    ASSERT_TRUE(built.ok());
    Instance instance = *std::move(built);
    InstanceUpdater updater(&instance, MakeFuzzParams(config));
    constexpr int kPaper = 3;
    const std::optional<std::vector<int>> picks =
        ScratchIdealPicks(instance, kPaper);
    ASSERT_TRUE(picks.has_value());
    int non_pick = 0;
    while (instance.IsConflict(non_pick, kPaper) ||
           std::find(picks->begin(), picks->end(), non_pick) !=
               picks->end()) {
      ++non_pick;
    }
    ExpectIdealScoreMatchesBuild(instance, "cold");
    int64_t refreshed = IdealPapersRefreshed();

    const Instance before = instance;
    const std::optional<double> before_score = IdealScore(before);
    ASSERT_TRUE(
        updater.Apply(InstanceUpdate::SetCoi(non_pick, kPaper, true)).ok());
    ExpectIdealScoreMatchesBuild(instance, "on, non-pick");
    ExpectRefreshed(&refreshed, 0, "on, non-pick");
    ExpectSameBits(IdealScore(before), before_score, "copy before non-pick");
    ExpectRefreshed(&refreshed, 0, "copy before non-pick");

    ASSERT_TRUE(
        updater.Apply(InstanceUpdate::SetCoi((*picks)[1], kPaper, true)).ok());
    ExpectIdealScoreMatchesBuild(instance, "on, pick");
    ExpectRefreshed(&refreshed, 1, "on, pick");
    ExpectSameBits(IdealScore(before), before_score, "copy before pick");
    ExpectRefreshed(&refreshed, 0, "copy before pick");

    ASSERT_TRUE(
        updater.Apply(InstanceUpdate::SetCoi(non_pick, kPaper, false)).ok());
    ExpectIdealScoreMatchesBuild(instance, "off");
    ExpectRefreshed(&refreshed, 1, "off");
  }
}

// RecomputeAll re-derives the rows Add touched and nothing else while the
// assignment is in step with its instance (the updater that tracks it
// keeps it so), and every row once the instance changed where the
// assignment did not see: an updater tracking no assignment, or SetBids.
// Either way the result is FromPairs of its pairs bit for bit.
TEST(AssignmentStaleRows, AnInstanceChangedBehindItsBackGetsTheFullDerivation) {
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    const ScopedTopicKernel kernel(sparse);
    const FuzzInstanceConfig config = BaseConfig(/*seed=*/93);
    const InstanceParams params = MakeFuzzParams(config);
    auto built = MakeFuzzInstance(config);
    ASSERT_TRUE(built.ok());
    Instance instance = *std::move(built);
    const int P = instance.num_papers();
    auto solved = SolverRegistry::Default().SolveCra("sdga", instance);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    const int64_t before_build = RowsRederived();
    auto from_pairs = Assignment::FromPairs(&instance, solved->Pairs());
    ASSERT_TRUE(from_pairs.ok());
    ExpectRederived(before_build >= 0 ? RowsRederived() - before_build : -1,
                    P, "FromPairs of a complete assignment");
    Assignment tracked = *from_pairs;

    // In step: an evicting COI leaves every row exact, a refill marks one.
    InstanceUpdater updater(&instance, params);
    updater.TrackAssignment(&tracked);
    const int moved = tracked.GroupFor(0)[0];
    ASSERT_TRUE(updater.Apply(InstanceUpdate::SetCoi(moved, 0, true)).ok());
    ExpectRederived(ExpectRecomputeAllIsFromPairs(tracked, "evicting COI"), 0,
                    "evicting COI");
    int refill = 0;
    while (instance.IsConflict(refill, 0) || tracked.Contains(0, refill)) {
      ++refill;
    }
    ASSERT_TRUE(tracked.AddUnchecked(0, refill).ok());
    ExpectRederived(ExpectRecomputeAllIsFromPairs(tracked, "refill"), 1,
                    "refill");

    // Behind its back: paper 1's topics and a member of paper 2 move with
    // no updater tracking `untracked`; `tracked` lags behind them too.
    const Assignment untracked = tracked;
    InstanceUpdater blind(&instance, params);
    Rng rng(5);
    ASSERT_TRUE(blind
                    .Apply(InstanceUpdate::SetPaperTopics(
                        1, RandomTopics(&rng, config.num_topics)))
                    .ok());
    ASSERT_TRUE(blind
                    .Apply(InstanceUpdate::SetReviewerTopics(
                        untracked.GroupFor(2)[0],
                        RandomTopics(&rng, config.num_topics)))
                    .ok());
    ExpectRederived(ExpectRecomputeAllIsFromPairs(untracked, "untracked"), P,
                    "untracked");
    ExpectRederived(ExpectRecomputeAllIsFromPairs(tracked, "other updater"),
                    P, "other updater");

    // SetBids behind the back of the tracked assignment, back in step
    // first: the next op its own updater applies does not bring it back.
    tracked.RecomputeAll();
    ExpectRederived(ExpectRecomputeAllIsFromPairs(tracked, "in step"), 0,
                    "in step");
    Matrix bids(P, instance.num_reviewers());
    for (int p = 0; p < P; ++p) {
      for (int r = 0; r < instance.num_reviewers(); ++r) {
        bids(p, r) = ((p * 5 + r * 3) % 7) / 6.0;
      }
    }
    ASSERT_TRUE(instance.SetBids(std::move(bids), 0.3).ok());
    ASSERT_TRUE(updater.Apply(InstanceUpdate::SetCoi(moved, 0, false)).ok());
    ExpectRederived(ExpectRecomputeAllIsFromPairs(tracked, "SetBids"), P,
                    "SetBids");
  }
}

// A stale row keeps its flag through the updater's paper surgery and id
// shifts. Every third paper of a FromPairs build takes its first reviewer
// out and back in (the same group, its score now summed by Add), then a
// seeded op sequence runs with the assignment tracked: after every op,
// RecomputeAll re-derives at most those rows and gives FromPairs bit for
// bit. Some of the stale scores differ from FromPairs in the last bits, so
// a flag lost or shifted onto the wrong paper shows.
TEST(AssignmentStaleRows, StaleRowsRideAlongTheUpdatersSurgery) {
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    const ScopedTopicKernel kernel(sparse);
    const FuzzInstanceConfig config = BaseConfig(/*seed=*/95);
    const InstanceParams params = MakeFuzzParams(config);
    auto built = MakeFuzzInstance(config);
    ASSERT_TRUE(built.ok());
    Instance instance = *std::move(built);
    GroundTruth gt = MakeGroundTruth(config);
    auto solved = SolverRegistry::Default().SolveCra("sdga", instance);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    auto from_pairs = Assignment::FromPairs(&instance, solved->Pairs());
    ASSERT_TRUE(from_pairs.ok());
    Assignment tracked = *from_pairs;
    int stale = 0;
    int off_by_bits = 0;
    for (int p = 0; p < instance.num_papers(); p += 3) {
      const int r = tracked.GroupFor(p)[0];
      ASSERT_TRUE(tracked.Remove(p, r).ok());
      ASSERT_TRUE(tracked.AddUnchecked(p, r).ok());
      ++stale;
      if (tracked.PaperScore(p) != from_pairs->PaperScore(p)) ++off_by_bits;
    }
    ASSERT_GT(off_by_bits, 0);

    InstanceUpdater updater(&instance, params);
    updater.TrackAssignment(&tracked);
    Rng rng(95);
    for (int op = 1; op <= 60; ++op) {
      const InstanceUpdate update = RandomOp(&rng, gt, config);
      ASSERT_TRUE(updater.Apply(update).ok()) << update.ToString();
      ApplyToGroundTruth(&gt, update);
      const int64_t rows =
          ExpectRecomputeAllIsFromPairs(tracked, update.ToString());
      if (rows >= 0) {
        EXPECT_LE(rows, stale) << update.ToString();
      }
    }
  }
}

// --- validation and reporting ---------------------------------------------

TEST(InstanceUpdaterValidation, RejectedOpsLeaveTheInstanceUntouched) {
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/7);
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

// FromDataset rejects a paperless instance, so the updater refuses to
// produce one: removing the last paper fails and leaves it in place.
TEST(InstanceUpdaterValidation, TheLastPaperCannotBeRemoved) {
  FuzzInstanceConfig config = BaseConfig(/*seed=*/9);
  config.papers = 2;
  config.with_bids = false;
  config.conflict_rate = 0.0;
  const InstanceParams params = MakeFuzzParams(config);
  auto built = MakeFuzzInstance(config);
  ASSERT_TRUE(built.ok());
  Instance instance = *std::move(built);
  GroundTruth gt = MakeGroundTruth(config);
  InstanceUpdater updater(&instance, params);
  ASSERT_TRUE(updater.Apply(InstanceUpdate::RemovePaper(0)).ok());
  ApplyToGroundTruth(&gt, InstanceUpdate::RemovePaper(0));
  const auto rejected = updater.Apply(InstanceUpdate::RemovePaper(0));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(instance.num_papers(), 1);
  ExpectInstancesBitEqual(instance, BuildFresh(gt, params));
}

TEST(InstanceUpdaterValidation, SetBidNeedsABidMatrix) {
  FuzzInstanceConfig config = BaseConfig(/*seed=*/8);
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
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/11);
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
        "set_paper_topics 1 0.5 0.5x",
        // Fields follow the one number grammar: no '+', hex or nan.
        "remove_paper +3", "set_bid 1 2 +0.5", "set_coi 0x1 2 on",
        "add_paper 0.5 nan", "set_reviewer_topics 1 0.5 1e400"}) {
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
  const FuzzInstanceConfig config = BaseConfig(/*seed=*/31);
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
