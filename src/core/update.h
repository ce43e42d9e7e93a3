// Online instance mutation and incremental re-solve (the ROADMAP "Online
// assignment" item). Real venues mutate after the first solve — late
// submissions, withdrawn papers, reviewers dropping out, COIs discovered
// mid-review, bids trickling in — and this subsystem patches a live
// Instance in place instead of re-parsing and cold-solving:
//
//   InstanceUpdater updater(&instance, params);
//   updater.TrackAssignment(&assignment);   // optional
//   auto report = updater.Apply(InstanceUpdate::RemoveReviewer(7));
//   auto resolve = IncrementalResolve(instance, &assignment, options);
//
// The contract everything rests on: after Apply, the patched Instance —
// topic matrices, paper masses, CSC reviewer index and topic rankings,
// topic kernel and CSR sparse views, COI bitset, bids, and the recomputed
// default workload δr — is bitwise equal to the one Instance::FromDataset would build from
// the mutated ground truth, and a tracked Assignment remains a feasible
// partial assignment (no COI pairs, no overloaded reviewer) whose groups
// mirror the survivors. An op whose result FromDataset would reject
// (removing the last paper, too little review capacity, ...) is rejected
// instead.
// tests/update_equivalence_test.cc fuzzes hundreds of random ops per seed
// against an independently maintained ground truth to pin exactly that.
//
// Id semantics are positional, like the CSV formats: removing paper p
// shifts every paper id above p down by one (same for reviewers). Batch
// scripts must account for that, exactly as with row deletion anywhere.
//
// Staleness rules of the instance's c(AI) memo (core/instance.h). Paper
// p's ideal picks depend only on p's topics, COIs and bids and on the
// reviewer matrix, so each applied op marks exactly what it may move:
//   - set_coi ... on: its paper's row, only if the reviewer is one of the
//     row's picks or the row is not feasible (each pick is a first
//     maximum, so removing a reviewer no step chose moves no pick and no
//     gain bit); a kept row keeps the memo shared;
//   - set_coi ... off, set_bid, set_paper_topics: their one paper's row;
//   - add/remove_paper, add/remove_reviewer, set_reviewer_topics: every
//     row (they move the reviewer matrix or shift paper ids), by starting
//     an empty memo in O(1).
// A memo that a copy of the instance still shares is cloned before a row
// is marked, so the copy keeps its own answer. Nothing is re-derived here:
// core::IdealScore does that lazily, for the stale rows only. A rejected
// op marks nothing.
//
// Every applied op gives the instance a fresh revision (Instance::
// revision()). The tracked assignment sees the op — Remove for evictions,
// per-paper recomputes, the paper surgery — and keeps every exact row
// exact, so it takes the new revision with the instance and its next
// RecomputeAll re-derives only the rows Add marked stale. Any other
// assignment on the instance lags behind and gets a full pass.
#ifndef WGRAP_CORE_UPDATE_H_
#define WGRAP_CORE_UPDATE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "core/registry.h"

namespace wgrap::core {

/// One typed mutation of a live Instance. Build via the factories; fields
/// are public for inspection (the CLI's script parser and the fuzzer's
/// generators construct them directly).
struct InstanceUpdate {
  enum class Kind {
    kAddPaper,          // topics
    kRemovePaper,       // paper
    kAddReviewer,       // topics
    kRemoveReviewer,    // reviewer
    kSetCoi,            // reviewer, paper, conflicted
    kSetBid,            // paper, reviewer, value ∈ [0, 1]
    kSetPaperTopics,    // paper, topics
    kSetReviewerTopics, // reviewer, topics
  };

  Kind kind = Kind::kSetCoi;
  int paper = -1;
  int reviewer = -1;
  bool conflicted = false;
  double value = 0.0;
  std::vector<double> topics;

  static InstanceUpdate AddPaper(std::vector<double> topics);
  static InstanceUpdate RemovePaper(int paper);
  static InstanceUpdate AddReviewer(std::vector<double> topics);
  static InstanceUpdate RemoveReviewer(int reviewer);
  static InstanceUpdate SetCoi(int reviewer, int paper, bool conflicted);
  static InstanceUpdate SetBid(int paper, int reviewer, double bid);
  static InstanceUpdate SetPaperTopics(int paper, std::vector<double> topics);
  static InstanceUpdate SetReviewerTopics(int reviewer,
                                          std::vector<double> topics);

  /// "add_paper 0.2 0.8", "set_coi 3 7 on", ... — the mutation-script
  /// line format (see ParseMutationScript).
  std::string ToString() const;
};

/// What one Apply (or ApplyAll) did to the tracked assignment.
struct UpdateReport {
  /// Updates applied (ApplyAll is atomic per op: a rejected op contributes
  /// nothing and aborts the batch).
  int applied = 0;
  /// (paper, reviewer) pairs evicted from the tracked assignment, with the
  /// ids that were current at eviction time (i.e. before any id shift the
  /// same op performs). Evictions happen when a paper/reviewer is removed,
  /// a COI lands on an assigned pair, or a workload decrease (dynamic δr)
  /// leaves a reviewer overloaded.
  std::vector<std::pair<int, int>> evicted;
};

/// Applies typed updates to a live Instance and keeps an optional attached
/// Assignment consistent with every op. Solver caches (core/gain_cache.h)
/// live inside one solve, so none is ever attached across an update.
/// Each op validates fully before mutating anything, so a rejected op
/// leaves the instance untouched. Not thread-safe; apply updates between
/// solves, never while a solver holds the instance.
class InstanceUpdater {
 public:
  /// `params` must be the InstanceParams the instance was built with —
  /// in particular reviewer_workload == 0 declares the workload dynamic
  /// (δr = ⌈P·δp/R⌉), which add/remove ops then recompute exactly as
  /// FromDataset would.
  InstanceUpdater(Instance* instance, const InstanceParams& params);

  /// Attaches a live assignment over *instance. The updater evicts pairs
  /// invalidated by an op (removed paper/reviewer, new COI, workload
  /// decrease) and remaps ids, keeping the assignment a feasible partial
  /// one at all times. Pass nullptr to detach.
  void TrackAssignment(Assignment* assignment) { assignment_ = assignment; }

  Result<UpdateReport> Apply(const InstanceUpdate& update);
  /// Applies in order; stops at (and returns) the first failure, with the
  /// prior ops already applied. The report aggregates all evictions.
  Result<UpdateReport> ApplyAll(const std::vector<InstanceUpdate>& updates);

 private:
  Status ApplyOne(const InstanceUpdate& update, UpdateReport* report);
  /// After ApplyOne succeeded: marks the c(AI) memo rows the op may have
  /// moved (the staleness rules above) and gives the instance a fresh
  /// revision, which a tracked assignment in step with it takes too.
  void Applied(const InstanceUpdate& update);
  Status ValidateTopics(const std::vector<double>& topics,
                        const char* what) const;
  /// Recomputes the dynamic δr after a shape change; on a decrease, evicts
  /// lowest-loss pairs from overloaded reviewers (deterministically:
  /// smallest leave-one-out score loss, ties to the smaller paper id).
  void RefreshWorkload(UpdateReport* report);
  void EvictPair(int paper, int reviewer, UpdateReport* report);
  /// Instance::RefreshTopicViews after an op moved one side of the topic
  /// matrices, counting each rebuild.
  void RebuildTopicViews(bool reviewer_side);
  /// Rewrites the COI bitset for a new shape via per-pair remap functions
  /// (negative mapped id = drop the pair).
  template <typename PaperMap, typename ReviewerMap>
  void RemapConflicts(int old_papers, int old_reviewers, PaperMap paper_map,
                      ReviewerMap reviewer_map);

  Instance* instance_;
  InstanceParams params_;
  Assignment* assignment_ = nullptr;
};

/// Report of one IncrementalResolve run.
struct ResolveReport {
  /// Objective of the surviving partial assignment, after normalization,
  /// before repair.
  double score_before = 0.0;
  /// Objective of the returned complete assignment.
  double score_after = 0.0;
  /// Papers that were below δp and got refilled.
  int repaired_papers = 0;
  /// Pairs added by the repair step.
  int64_t added_pairs = 0;
  double seconds = 0.0;
};

/// Repairs a mutated assignment in place instead of cold-solving: first
/// RecomputeAll (so the numeric state is independent of the mutation
/// history — two bitwise-equal instances with equal groups resolve along
/// bit-identical trajectories; on an assignment its updater tracked, or a
/// published service snapshot, that re-derives only the rows Add left
/// stale and re-sums the total in O(P)), then swap-repair fills every
/// under-δp group (core/repair.h), then the refiner selected by the
/// registry knob `update_refine` ("sra" default, "ls", or "none") polishes
/// the result, seeded from the survivors. Knobs are decoded by
/// DecodeIncrementalResolveKnobs (core/registry.h): threads, sra_omega and
/// sra_lambda go with "sra" only, and naming one with "ls" or "none" fails
/// with kInvalidArgument before any work. Returns kInfeasible when a group
/// cannot be filled (e.g. an all-COI paper); the assignment is left
/// best-effort.
///
/// Documented quality bound: with refinement on, score_after lands within
/// 15% of a cold SolveCra("sdga-sra") on the mutated instance —
/// tests/update_equivalence_test.cc asserts score_after >= 0.85 × cold at
/// the end of every fuzzed mutation sequence. Latency is the win: repair
/// of a single mutation is orders of magnitude cheaper than a cold solve
/// (BM_IncrementalResolve, bench/BASELINES.md).
Result<ResolveReport> IncrementalResolve(const Instance& instance,
                                         Assignment* assignment,
                                         const SolverRunOptions& options = {});

/// Parses a mutation script: one op per line, `#` comments and blank lines
/// ignored.
///   add_paper <w0> <w1> ... <wT-1>
///   remove_paper <p>
///   add_reviewer <w0> ... <wT-1>
///   remove_reviewer <r>
///   set_coi <r> <p> on|off
///   set_bid <p> <r> <bid>
///   set_paper_topics <p> <w0> ... <wT-1>
///   set_reviewer_topics <r> <w0> ... <wT-1>
/// A line splits on blanks; each field is one token in the number grammar
/// of common/string_util.h, and the line must end after the op's fields
/// (a topic vector runs to the end of the line). Anything else ("3abc",
/// "+3", "0x1", "nan", a trailing token) fails the line with
/// kInvalidArgument naming its number.
Result<std::vector<InstanceUpdate>> ParseMutationScript(
    const std::string& text);

/// Mechanical export of a live instance back to a dataset (names are
/// synthesized as "r<i>"/"p<i>"): FromDataset(SnapshotDataset(i), params)
/// rebuilds an instance bitwise equal to i apart from COI/bids, which
/// live outside RapDataset — wgrap_cli's `update --mode rebuild` uses this
/// to cross-check the patched state against a fresh build.
data::RapDataset SnapshotDataset(const Instance& instance);

}  // namespace wgrap::core

#endif  // WGRAP_CORE_UPDATE_H_
