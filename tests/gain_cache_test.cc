// Tests for the stage pipeline's profit source (core/gain_cache.h) and
// its oracles. The solvers run one stage configuration — GainCache rows
// solved by the capacity-aware JV — so the alternatives live here:
//   ReferenceSdga — Algorithm 2 on per-pair Assignment::MarginalGain
//     profits, with the stage engine passed in. With the JV it must equal
//     SolveCraSdga bit for bit (memcmp); with min-cost flow
//     (la::SolveTransportation) every stage's scaled objective must equal
//     the JV's on the same matrix.
//   The epoch fuzz — after every Refresh of an SRA-like remove/complete
//     trajectory, each int64 cell the JV reads must be the scaled masked
//     per-pair value (no edge where masked), and the in-place completion
//     must pick the Matrix JV's agents on the per-pair profits.
// Plus row-granular invalidation units (COI pairs, exhausted reviewers,
// add/removal epochs) against a freshly built cache, and the local-search
// fold cache against ScoreWithReplacement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "core/registry.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"
#include "la/hungarian.h"
#include "la/transportation.h"

namespace wgrap::core {
namespace {

// `topic_density` < 1 generates genuinely sparse profiles (and the
// instance carries CSR views); 1.0 keeps the legacy dense generator and
// drops any views so the dense path is exercised even under the CI runs
// that force WGRAP_SPARSE_TOPICS=1.
Instance PoolInstance(int reviewers, int papers, int group_size,
                      uint64_t seed, double topic_density = 1.0,
                      int workload = 0,
                      ScoringFunction scoring =
                          ScoringFunction::kWeightedCoverage) {
  data::SyntheticDblpConfig config;
  config.num_topics = 12;
  config.seed = seed;
  config.topic_density = topic_density;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  WGRAP_CHECK(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = workload;
  params.scoring = scoring;
  params.sparse_topics = topic_density < 1.0;
  auto instance = Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(instance.ok());
  if (topic_density >= 1.0) instance->DropSparseTopics();
  return std::move(instance).value();
}

void SetRandomBids(Instance* instance, uint64_t seed, double weight) {
  Matrix bids(instance->num_papers(), instance->num_reviewers());
  Rng rng(seed);
  for (int p = 0; p < bids.rows(); ++p) {
    for (int r = 0; r < bids.cols(); ++r) bids(p, r) = rng.NextDouble();
  }
  WGRAP_CHECK(instance->SetBids(std::move(bids), weight).ok());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Same groups in the same order, and the same score bits per paper and in
// total.
void ExpectBitIdentical(const Assignment& a, const Assignment& b) {
  EXPECT_TRUE(SameBits(a.TotalScore(), b.TotalScore()))
      << a.TotalScore() << " vs " << b.TotalScore();
  for (int p = 0; p < a.instance().num_papers(); ++p) {
    EXPECT_EQ(a.GroupFor(p), b.GroupFor(p)) << "paper " << p;
    EXPECT_TRUE(SameBits(a.PaperScore(p), b.PaperScore(p))) << "paper " << p;
  }
}

// --- The per-pair reference -------------------------------------------------

// A stage engine: the agent (reviewer) chosen for each task (row).
using StageEngine = std::function<Result<std::vector<int>>(
    const Matrix& profit, const std::vector<int>& capacity)>;

Result<std::vector<int>> JvEngine(const Matrix& profit,
                                  const std::vector<int>& capacity) {
  auto solved = la::SolveCapacitatedAssignment(profit, capacity);
  if (!solved.ok()) return solved.status();
  return solved->task_to_agent;
}

Result<std::vector<int>> FlowEngine(const Matrix& profit,
                                    const std::vector<int>& capacity) {
  auto solved = la::SolveTransportation(profit, capacity);
  if (!solved.ok()) return solved.status();
  return solved->task_to_agent;
}

// The value of an agent choice in the stage integer program.
int64_t ScaledObjective(const Matrix& profit, const std::vector<int>& agent) {
  int64_t total = 0;
  for (int i = 0; i < profit.rows(); ++i) {
    total += la::ScaleTransportProfit(profit(i, agent[i]));
  }
  return total;
}

// The papers still missing a reviewer, in id order.
std::vector<int> PapersNeeding(const Assignment& assignment) {
  std::vector<int> papers;
  for (int p = 0; p < assignment.instance().num_papers(); ++p) {
    if (static_cast<int>(assignment.GroupFor(p).size()) <
        assignment.instance().group_size()) {
      papers.push_back(p);
    }
  }
  return papers;
}

// The per-pair stage profits: MarginalGain for every pair, forbidden
// where the reviewer has no capacity left, conflicts with the paper or
// already reviews it.
Matrix PerPairProfit(const Assignment& assignment,
                     const std::vector<int>& papers,
                     const std::vector<int>& capacity) {
  const Instance& instance = assignment.instance();
  const int R = instance.num_reviewers();
  Matrix profit(static_cast<int>(papers.size()), R, la::kTransportForbidden);
  for (size_t i = 0; i < papers.size(); ++i) {
    const int p = papers[i];
    for (int r = 0; r < R; ++r) {
      if (capacity[r] <= 0 || instance.IsConflict(r, p) ||
          assignment.Contains(p, r)) {
        continue;
      }
      profit(static_cast<int>(i), r) = assignment.MarginalGain(p, r);
    }
  }
  return profit;
}

// Algorithm 2 as SolveCraSdga runs it — the ⌈δr/δp⌉ stage cap, relaxed to
// the full remaining workload when a capped stage is infeasible — but on
// per-pair profits and with `engine` for every stage. Appends each
// committed stage's scaled objective to `stage_objectives` when given.
Result<Assignment> ReferenceSdga(const Instance& instance,
                                 const StageEngine& engine,
                                 std::vector<int64_t>* stage_objectives =
                                     nullptr) {
  Assignment assignment(&instance);
  const int R = instance.num_reviewers();
  const int dp = instance.group_size();
  const int dr = instance.reviewer_workload();
  const int stage_cap = (dr + dp - 1) / dp;
  for (int stage = 0; stage < dp; ++stage) {
    const std::vector<int> papers = PapersNeeding(assignment);
    std::vector<int> capacity(R);
    for (int r = 0; r < R; ++r) {
      capacity[r] = std::min(stage_cap, dr - assignment.LoadOf(r));
    }
    Matrix profit = PerPairProfit(assignment, papers, capacity);
    auto chosen = engine(profit, capacity);
    if (!chosen.ok() && chosen.status().code() == StatusCode::kInfeasible) {
      for (int r = 0; r < R; ++r) capacity[r] = dr - assignment.LoadOf(r);
      profit = PerPairProfit(assignment, papers, capacity);
      chosen = engine(profit, capacity);
    }
    if (!chosen.ok()) return chosen.status();
    if (stage_objectives != nullptr) {
      stage_objectives->push_back(ScaledObjective(profit, *chosen));
    }
    for (size_t i = 0; i < papers.size(); ++i) {
      WGRAP_RETURN_IF_ERROR(assignment.Add(papers[i], (*chosen)[i]));
    }
  }
  WGRAP_RETURN_IF_ERROR(assignment.ValidateComplete());
  return assignment;
}

// δp = 3 ∤ δr = 4, so the per-stage cap is ⌈4/3⌉ = 2. Paper i conflicts
// with strong reviewer i, so its group must be the other two strong
// reviewers plus the weak r4. Stages 1–2 place the strong reviewers and
// leave stage 3 needing r4 on all three papers — above the cap, which
// makes the capped stage infeasible on either engine. SDGA completes only
// through the retry with the full remaining workload.
Instance CapRelaxInstance() {
  data::RapDataset dataset;
  dataset.num_topics = 3;
  dataset.reviewers.push_back({"r1", {1.0, 0.0, 0.0}, 1});
  dataset.reviewers.push_back({"r2", {0.0, 1.0, 0.0}, 1});
  dataset.reviewers.push_back({"r3", {0.0, 0.0, 1.0}, 1});
  dataset.reviewers.push_back({"r4", {0.05, 0.05, 0.05}, 1});
  for (const char* title : {"p1", "p2", "p3"}) {
    dataset.papers.push_back({title, {1.0, 1.0, 1.0}, "V"});
  }
  InstanceParams params;
  params.group_size = 3;
  params.reviewer_workload = 4;
  auto instance = Instance::FromDataset(dataset, params);
  WGRAP_CHECK(instance.ok());
  for (int p = 0; p < 3; ++p) instance->AddConflict(p, p);
  return std::move(instance).value();
}

// The shapes the oracle tests walk: dense and sparse topics, COIs with
// δp ∤ δr, bids, the cap-relax retry, and topic columns straddling the
// row pass's heavy-column threshold.
std::vector<std::pair<std::string, Instance>> OracleInstances() {
  std::vector<std::pair<std::string, Instance>> out;
  out.emplace_back("dense", PoolInstance(14, 10, 3, 401));
  out.emplace_back("sparse", PoolInstance(14, 10, 3, 401, 0.25));
  Instance coi = PoolInstance(8, 10, 3, 402, 1.0, /*workload=*/4);
  for (int r = 0; r < 4; ++r) coi.AddConflict(r, 0);
  coi.AddConflict(5, 3);
  out.emplace_back("coi dr=4", std::move(coi));
  Instance bids = PoolInstance(12, 8, 3, 403, 0.3);
  SetRandomBids(&bids, 9, 0.5);
  out.emplace_back("bids", std::move(bids));
  out.emplace_back("cap relax", CapRelaxInstance());
  // Topic columns on both sides of the heavy threshold (one exactly at
  // it): the row pass mixes the dense kernel and the CSC walk.
  for (const bool csr : {false, true}) {
    InstanceParams params;
    params.group_size = 3;
    params.sparse_topics = csr;
    auto straddling = Instance::FromDataset(
        MakeStraddlingDataset(/*reviewers=*/16, /*papers=*/12, /*seed=*/404),
        params);
    WGRAP_CHECK(straddling.ok());
    if (!csr) straddling->DropSparseTopics();
    straddling->AddConflict(3, 0);
    straddling->AddConflict(7, 5);
    out.emplace_back(csr ? "straddling csr" : "straddling",
                     *std::move(straddling));
  }
  for (uint64_t seed : {11u, 12u, 13u}) {
    out.emplace_back("seed " + std::to_string(seed),
                     PoolInstance(18, 14, 3, seed));
  }
  return out;
}

// The headline contract: SolveCraSdga — GainCache rows, JV stages — is the
// per-pair reference on the same engine, bit for bit, at 1 and 8 threads.
TEST(GainCacheTest, SdgaIsThePerPairReferenceBitForBit) {
  for (const auto& [name, instance] : OracleInstances()) {
    SCOPED_TRACE(name);
    auto reference = ReferenceSdga(instance, JvEngine);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int threads : {1, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SdgaOptions options;
      options.num_threads = threads;
      auto solved = SolveCraSdga(instance, options);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      ExpectBitIdentical(*reference, *solved);
    }
  }
}

// Min-cost flow is the JV's oracle at the stage level: driving the
// reference with flow, every stage's profit matrix has the same scaled
// optimum under both engines (a tie may pick another argmax, so the flow
// trajectory is compared stage by stage, not by its groups).
TEST(GainCacheTest, FlowStagesReachTheJvOptimum) {
  for (const auto& [name, instance] : OracleInstances()) {
    SCOPED_TRACE(name);
    std::vector<int64_t> flow_objectives;
    std::vector<int64_t> jv_objectives;
    auto checked = [&](const Matrix& profit, const std::vector<int>& capacity)
        -> Result<std::vector<int>> {
      auto flow = FlowEngine(profit, capacity);
      auto jv = JvEngine(profit, capacity);
      EXPECT_EQ(flow.ok(), jv.ok());
      if (flow.ok() && jv.ok()) {
        flow_objectives.push_back(ScaledObjective(profit, *flow));
        jv_objectives.push_back(ScaledObjective(profit, *jv));
      }
      return flow;
    };
    auto flow = ReferenceSdga(instance, checked);
    ASSERT_TRUE(flow.ok()) << flow.status().ToString();
    EXPECT_EQ(flow_objectives, jv_objectives);
    EXPECT_GE(flow_objectives.size(),
              static_cast<size_t>(instance.group_size()));
  }
}

// The cap-relax instance reaches its groups only through the retry, on
// either engine: r4 takes all three third slots.
TEST(GainCacheTest, CapRelaxRetryCompletesOnBothEngines) {
  const Instance instance = CapRelaxInstance();
  for (const StageEngine& engine : {StageEngine(JvEngine),
                                    StageEngine(FlowEngine)}) {
    auto sdga = ReferenceSdga(instance, engine);
    ASSERT_TRUE(sdga.ok()) << sdga.status().ToString();
    EXPECT_EQ(sdga->LoadOf(3), 3);
  }
}

// SRA-like epochs: each round removes one reviewer from a random subset
// of papers and completes them with one JV stage on the cache's rows, read
// in place as SolveStageAssignment reads them. After every Refresh, every
// cell is checked in the int64 domain the JV reads, under all four
// scorings, dense and sparse topics, with and without bids: a cell the
// per-pair mask keeps must hold ScaleTransportProfit of the per-pair
// MarginalGain, and a masked one (COI, member, exhausted reviewer) must be
// no edge to the JV. The in-place completion must pick the agents the
// Matrix JV picks on the per-pair profits.
TEST(GainCacheTest, EpochFuzzAssemblesThePerPairMask) {
  uint64_t seed = 500;
  for (ScoringFunction scoring :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
        ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct}) {
    for (double density : {1.0, 0.25}) {
      for (bool bids : {false, true}) {
        ++seed;
        SCOPED_TRACE("scoring=" + std::to_string(static_cast<int>(scoring)) +
                     " density=" + std::to_string(density) +
                     " bids=" + std::to_string(bids));
        Instance instance =
            PoolInstance(14, 12, 3, seed, density, /*workload=*/0, scoring);
        if (bids) SetRandomBids(&instance, seed, 0.3);
        for (int k = 0; k < 4; ++k) {
          instance.AddConflict(static_cast<int>((seed + 3 * k) % 14),
                               static_cast<int>((seed + 5 * k) % 12));
        }
        auto solved = SolveCraSdga(instance);
        ASSERT_TRUE(solved.ok()) << solved.status().ToString();
        Assignment assignment = *solved;
        const int R = instance.num_reviewers();
        ThreadPool pool(3);
        GainCache cache(&instance);
        Rng rng(seed);
        for (int round = 0; round < 8; ++round) {
          for (int p = 0; p < instance.num_papers(); ++p) {
            if (rng.NextDouble() < 0.4) continue;
            const std::vector<int>& group = assignment.GroupFor(p);
            const int victim = group[rng.NextBounded(group.size())];
            ASSERT_TRUE(assignment.Remove(p, victim).ok());
            cache.Note(p);
          }
          std::vector<int> capacity(R);
          for (int r = 0; r < R; ++r) {
            capacity[r] = instance.reviewer_workload() - assignment.LoadOf(r);
          }
          std::vector<int> all(instance.num_papers());
          for (int p = 0; p < instance.num_papers(); ++p) all[p] = p;
          cache.Refresh(assignment, &pool);
          const Matrix expected = PerPairProfit(assignment, all, capacity);
          for (int p = 0; p < instance.num_papers(); ++p) {
            const int64_t* row = cache.CostRow(p);
            const std::vector<int>& members = assignment.GroupFor(p);
            for (int r = 0; r < R; ++r) {
              // What the JV reads for (p, r): no edge when the cell is,
              // the reviewer is excluded or has no capacity left.
              const bool no_edge =
                  row[r] == la::kJvNoEdge || capacity[r] <= 0 ||
                  std::find(members.begin(), members.end(), r) !=
                      members.end();
              SCOPED_TRACE("round " + std::to_string(round) + " paper " +
                           std::to_string(p) + " reviewer " +
                           std::to_string(r));
              if (expected(p, r) == la::kTransportForbidden) {
                ASSERT_TRUE(no_edge) << row[r];
                if (instance.IsConflict(r, p)) {
                  ASSERT_EQ(row[r], la::kJvNoEdge);
                  ASSERT_EQ(cache.ScaledGain(p, r),
                            GainCache::kConflictSentinel);
                }
              } else {
                ASSERT_FALSE(no_edge);
                ASSERT_EQ(cache.ScaledGain(p, r),
                          la::ScaleTransportProfit(expected(p, r)));
                ASSERT_EQ(row[r], la::JvCost(expected(p, r)));
              }
            }
          }
          const std::vector<int> needing = PapersNeeding(assignment);
          if (needing.empty()) continue;
          la::JvCostRows rows;
          rows.agents = R;
          for (int p : needing) {
            rows.cost.push_back(cache.CostRow(p));
            rows.excluded.push_back(&assignment.GroupFor(p));
          }
          auto chosen = la::SolveCapacitatedRows(rows, capacity, 1);
          ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
          auto reference =
              JvEngine(PerPairProfit(assignment, needing, capacity), capacity);
          ASSERT_TRUE(reference.ok());
          ASSERT_EQ(*chosen, *reference);
          for (size_t i = 0; i < needing.size(); ++i) {
            ASSERT_TRUE(assignment.Add(needing[i], (*chosen)[i]).ok());
            cache.Note(needing[i]);
          }
        }
        EXPECT_TRUE(assignment.ValidateComplete().ok());
      }
    }
  }
}

// Add-epoch unit: after committed Adds, a patched cache must equal a cache
// built from scratch against the mutated assignment — every scaled entry.
TEST(GainCacheTest, AddEpochPatchesMatchFreshBuild) {
  Instance instance = PoolInstance(12, 8, 2, 404, /*topic_density=*/0.3);
  ThreadPool pool(1);
  Assignment assignment(&instance);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int r = p % instance.num_reviewers();
    ASSERT_TRUE(assignment.Add(p, r).ok());
    cache.Note(p);
  }
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);  // patched, not rebuilt

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
  // Every paper's group vector moved, so every row is re-scored whole:
  // exactly P×R entries.
  EXPECT_EQ(cache.patched_entries(),
            static_cast<int64_t>(instance.num_papers()) *
                instance.num_reviewers());
}

// SRA removal epoch: a Remove lowers group maxima (where the victim held
// them); the patched cache must again equal a fresh build.
TEST(GainCacheTest, RemovalEpochPatchesMatchFreshBuild) {
  Instance instance = PoolInstance(12, 8, 3, 405, /*topic_density=*/0.3);
  auto solved = SolveCraSdga(instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *solved;
  ThreadPool pool(1);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int victim = assignment.GroupFor(p).front();
    ASSERT_TRUE(assignment.Remove(p, victim).ok());
    cache.Note(p);
  }
  cache.Refresh(assignment, &pool);

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

// A note carries only the paper, by design (see the header doc at Note):
// Refresh diffs the group vector against its snapshot, so a
// remove-then-re-add epoch — whose net group vectors are unchanged at some
// papers and changed at others — must refresh back to the bit-identical
// cache a from-scratch build produces, without a full rebuild, and
// re-score no row whose vector came back.
TEST(GainCacheTest, NoteDirectionIsIrrelevant) {
  Instance instance = PoolInstance(12, 8, 3, 409, /*topic_density=*/0.3);
  auto solved = SolveCraSdga(instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *solved;
  ThreadPool pool(1);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  ASSERT_EQ(cache.full_builds(), 1);
  const int T = instance.num_topics();
  int64_t moved = 0;  // papers whose group vector changed
  for (int p = 0; p < instance.num_papers(); ++p) {
    const std::vector<double> before(assignment.GroupVector(p),
                                     assignment.GroupVector(p) + T);
    const int victim = assignment.GroupFor(p).front();
    ASSERT_TRUE(assignment.Remove(p, victim).ok());
    cache.Note(p);
    if (p % 2 == 0) {
      // Re-add the same reviewer: the group vector lands back exactly
      // where it was, and the second note adds no information the first
      // did not already carry.
      ASSERT_TRUE(assignment.Add(p, victim).ok());
      cache.Note(p);
    }
    if (!std::equal(before.begin(), before.end(), assignment.GroupVector(p))) {
      ++moved;
    }
  }
  ASSERT_GT(moved, 0);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);  // patched, not rebuilt
  // Only the moved rows are re-scored, whole; the re-added half costs
  // zero rows.
  EXPECT_EQ(cache.patched_entries(), moved * instance.num_reviewers());

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

// COI pairs carry the sentinel and assemble as forbidden; an exhausted
// reviewer's whole column assembles as forbidden; live entries round-trip
// the exact scaled integer the per-pair gain would hand the LAP.
TEST(GainCacheTest, ConflictAndExhaustedReviewerMasking) {
  Instance instance = PoolInstance(6, 4, 2, 406);
  instance.AddConflict(/*reviewer=*/2, /*paper=*/1);
  ThreadPool pool(1);
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 3).ok());
  GainCache cache(&instance);
  cache.Note(0);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.ScaledGain(1, 2), GainCache::kConflictSentinel);

  std::vector<int> papers;
  for (int p = 0; p < instance.num_papers(); ++p) papers.push_back(p);
  std::vector<int> capacity(instance.num_reviewers(),
                            instance.reviewer_workload());
  capacity[4] = 0;  // exhausted
  Matrix profit;
  cache.AssembleStageProfit(papers, capacity, assignment, &pool, &profit);
  ASSERT_EQ(profit.rows(), instance.num_papers());
  ASSERT_EQ(profit.cols(), instance.num_reviewers());
  EXPECT_EQ(profit(1, 2), la::kTransportForbidden);  // COI
  for (int p = 0; p < instance.num_papers(); ++p) {
    EXPECT_EQ(profit(p, 4), la::kTransportForbidden);  // no capacity
  }
  EXPECT_EQ(profit(0, 3), la::kTransportForbidden);  // already assigned
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      if (profit(p, r) == la::kTransportForbidden) continue;
      // What the LAP re-quantizes must be the stored integer, and that
      // integer must be what a fresh per-pair gain would scale to.
      EXPECT_EQ(la::ScaleTransportProfit(profit(p, r)),
                cache.ScaledGain(p, r));
      EXPECT_EQ(cache.ScaledGain(p, r),
                la::ScaleTransportProfit(assignment.MarginalGain(p, r)));
    }
  }
}

// ReplacementFoldCache unit: cached leave-one-out folds reproduce
// Assignment::ScoreWithReplacement bit for bit — dense and sparse, with
// bids in the mix.
TEST(GainCacheTest, ReplacementFoldCacheMatchesScoreWithReplacement) {
  for (double density : {1.0, 0.3}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    Instance instance = PoolInstance(10, 6, 3, 407, density);
    SetRandomBids(&instance, 21, 0.25);
    auto solved = SolveCraSdga(instance);
    ASSERT_TRUE(solved.ok());
    const Assignment& assignment = *solved;
    ThreadPool pool(4);
    ReplacementFoldCache folds(&instance);
    std::vector<int> papers;
    for (int p = 0; p < instance.num_papers(); ++p) papers.push_back(p);
    folds.Prepare(assignment, papers, &pool);
    for (int p = 0; p < instance.num_papers(); ++p) {
      for (int drop : assignment.GroupFor(p)) {
        for (int add = 0; add < instance.num_reviewers(); ++add) {
          if (add == drop || assignment.Contains(p, add)) continue;
          EXPECT_EQ(folds.Score(p, drop, add),
                    assignment.ScoreWithReplacement(p, drop, add))
              << "p=" << p << " drop=" << drop << " add=" << add;
        }
      }
    }
  }
}

// Every stage-pipeline solver is thread-count invariant on a sparse
// instance: 1 and 8 workers give the same groups and score bits.
TEST(GainCacheTest, IncrementalModeIsThreadCountInvariant) {
  Instance instance = PoolInstance(16, 12, 3, 408, /*topic_density=*/0.25);
  const auto& registry = SolverRegistry::Default();
  for (const char* algo : {"sdga", "sdga-sra", "sdga-ls"}) {
    SCOPED_TRACE(algo);
    SolverRunOptions one;
    one.seed = 5;
    one.extra["threads"] = "1";
    SolverRunOptions eight = one;
    eight.extra["threads"] = "8";
    auto a = registry.SolveCra(algo, instance, one);
    auto b = registry.SolveCra(algo, instance, eight);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectBitIdentical(*a, *b);
  }
}

}  // namespace
}  // namespace wgrap::core
