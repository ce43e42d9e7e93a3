// Shared seeded instance construction for the randomized sweeps: the CRA
// cross-solver fuzzer (cra_fuzz_test.cc) and the online-update equivalence
// fuzzer (update_equivalence_test.cc) build their starting instances
// through the same helper so a failure in either reproduces from one
// config. The perturbation stream is part of the contract: COIs then bids
// are drawn from Rng(seed ^ 0xc01), papers outer / reviewers inner, and a
// zero conflict_rate (or with_bids=false) consumes no draws at all —
// changing any of that silently reshuffles every case of both suites.
// Mangle is the text-side twin for the parser fuzzer (parser_fuzz_test.cc).
// ReplayPairs and AssignmentMismatch are the assignment-side oracle for
// Assignment::FromPairs and the session store's publish. Db08Instance,
// SparseP400Instance and FnvFold serve the golden suites (jra_test's BBA
// goldens, cra_test's SRA goldens). ScopedTopicKernel pins the topic
// kernel for suites that run both kernels across updates and rebuilds.
#ifndef WGRAP_TESTS_FUZZ_UTIL_H_
#define WGRAP_TESTS_FUZZ_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "data/dataset.h"
#include "sparse/topic_index.h"

namespace wgrap::core {

struct FuzzInstanceConfig {
  int reviewers = 10;
  int papers = 12;
  int num_topics = 10;
  int group_size = 3;
  /// 0 = the paper's tight minimal workload (dynamic δr = ⌈P·δp/R⌉);
  /// otherwise δr = MinimalWorkload + extra_workload, fixed.
  int extra_workload = 0;
  ScoringFunction scoring = ScoringFunction::kWeightedCoverage;
  /// Fraction of (r, p) pairs conflicted; 0 draws nothing from the rng.
  double conflict_rate = 0.0;
  bool with_bids = false;
  double bid_weight = 0.4;
  uint64_t seed = 1;
};

/// Forces the topic kernel of every instance built or patched while it
/// lives — the CSR kernels (true), the dense ones (false), or the data's
/// pick (nullopt) — by setting WGRAP_SPARSE_TOPICS, and restores the
/// variable on destruction. Unlike Instance::BuildSparseTopics, the force
/// survives reviewer-side updates and covers FromDataset rebuilds. No
/// other thread may build or patch an instance while one is constructed
/// or destroyed.
class ScopedTopicKernel {
 public:
  explicit ScopedTopicKernel(std::optional<bool> csr);
  ~ScopedTopicKernel();
  ScopedTopicKernel(const ScopedTopicKernel&) = delete;
  ScopedTopicKernel& operator=(const ScopedTopicKernel&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The synthetic reviewer-pool dataset for a config (topics only; COIs and
/// bids live on the instance).
Result<data::RapDataset> MakeFuzzDataset(const FuzzInstanceConfig& config);

/// The InstanceParams a config implies (group size, workload regime,
/// scoring).
InstanceParams MakeFuzzParams(const FuzzInstanceConfig& config);

/// Applies the seeded COI/bid perturbations to an instance built from
/// MakeFuzzDataset — exactly the stream documented in the header comment.
Status PerturbInstance(const FuzzInstanceConfig& config, Instance* instance);

/// MakeFuzzDataset + FromDataset(MakeFuzzParams) + PerturbInstance.
Result<Instance> MakeFuzzInstance(const FuzzInstanceConfig& config);

/// A plain seeded reviewer pool (GenerateReviewerPool, no COIs or bids):
/// δp = group_size, δr = `workload` (0 = the minimal ⌈P·δp/R⌉). Dies on a
/// generator or instance error.
Instance SeededPool(int reviewers, int papers, int group_size, uint64_t seed,
                    int num_topics = 8, int workload = 0);

/// The benchmark's conference shape at δp = 3: DB08, the Table 3 Databases
/// 2008 conference (617 papers × 105 reviewers, T = 30, every topic column
/// heavy), generated with the default SyntheticDblpConfig.
Instance Db08Instance(
    ScoringFunction scoring = ScoringFunction::kWeightedCoverage);

/// The benchmark's sparse shape at δp = 3: 150 reviewers × 400 papers at
/// T = 100 with 5 nonzeros per row, the shape the CSR kernels win.
Instance SparseP400Instance();

/// The FNV-1a offset basis, and one fold of `value`'s 8 bytes, low byte
/// first, into `digest`.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
void FnvFold(uint64_t value, uint64_t* digest);

/// The raw IEEE-754 bits of `value`.
uint64_t DoubleBits(double value);

/// A random T-topic vector with the sparse-ish support real profiles have
/// (each topic nonzero with probability 0.4, plus 0.25 on one topic), so
/// its mass is always positive and it is valid for every topic update.
std::vector<double> RandomTopics(Rng* rng, int T);

/// A reviewer pool whose topic columns straddle the heavy-column threshold
/// of sparse::TopicIndex, the point where the gain row pass switches from
/// the CSC id walk to the dense kernel. `reviewers` must be a multiple of
/// kHeavyColumnDivisor, at least twice it; with d = reviewers / divisor,
/// the smallest heavy degree, the 8 columns have degrees R, d (exactly at
/// the threshold), d - 1, d + 1, 1, R / 2, 2 and R - d. Every reviewer
/// carries topic 0, values include exact ties, and papers are RandomTopics.
data::RapDataset MakeStraddlingDataset(int reviewers, int papers,
                                       uint64_t seed);

/// "" when every column of `index` has a DenseColumn exactly when it is
/// heavy, and that column holds Column(t)'s values at their ids and +0.0
/// elsewhere (compared by bits); otherwise the first mismatch, in words.
std::string DenseColumnMismatch(const sparse::TopicIndex& index);

/// One seeded edit of a valid input line: a character replaced, inserted
/// or deleted, a blank-separated token swapped for a hostile spelling
/// ("+1", " 1", "0x10", "1e400", "nan", "-1", "18446744073709551616", ...)
/// or doubled, or the line cut short. Never calls the rng with an empty
/// range, so any text (the empty line included) is a valid input.
std::string Mangle(const std::string& text, Rng* rng);

/// Mangles one line of `lines` 1-3 times and joins them back, each line
/// ending in '\n'.
std::string MangleOneLine(std::vector<std::string> lines, Rng* rng);

/// The lines of a text, without the empty one after its last newline.
std::vector<std::string> TextLines(const std::string& text);

/// How assignments were built before Assignment::FromPairs: AddUnchecked
/// on each pair in order — a marginal gain and a fold per pair — then
/// RecomputeAll. Returns the first AddUnchecked error.
Result<Assignment> ReplayPairs(const Instance* instance,
                               const std::vector<std::pair<int, int>>& pairs);

/// "" when `got` and `want` hold the same groups (per paper, in order),
/// loads and size, and memcmp-equal group-vector rows, paper scores and
/// total; otherwise the first difference, in words.
std::string AssignmentMismatch(const Assignment& got, const Assignment& want);

}  // namespace wgrap::core

#endif  // WGRAP_TESTS_FUZZ_UTIL_H_
