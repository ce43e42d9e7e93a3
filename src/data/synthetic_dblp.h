// Synthetic DBLP-substitute datasets reproducing the scale and structure of
// Table 3 in the paper. Three research areas (Data Mining, Databases,
// Theory) over two years (2008, 2009); papers of an area are "submissions"
// drawn from 3-4 venues and reviewers are the PC of one venue.
//
// Substitution note (see DESIGN.md §3): the paper extracts topic vectors
// from real abstracts with ATM+EM. The solvers only ever see the vectors, so
// we generate vectors from an area-structured generative model: each area
// owns a block of topics with cross-area overlap, reviewers are sparse
// Dirichlet mixtures concentrated on their area (a few are interdisciplinary
// or out-of-area), and papers mix 1-4 salient topics with a long tail —
// matching the skewed, partially-overlapping profiles ATM produces on DBLP.
// A corpus-faithful path (GenerateDatasetViaAtm) runs the full
// corpus -> ATM -> EM pipeline instead, fitting ATM with one sequential
// collapsed Gibbs chain seeded from the config's seed.
#ifndef WGRAP_DATA_SYNTHETIC_DBLP_H_
#define WGRAP_DATA_SYNTHETIC_DBLP_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace wgrap::data {

enum class Area { kDataMining, kDatabases, kTheory };

/// "DM", "DB" or "T" — the paper's shorthand (Table 7).
std::string AreaCode(Area area);

/// Paper/reviewer counts from Table 3 for (area, year), year in {2008, 2009}.
struct AreaStats {
  int num_papers = 0;
  int num_reviewers = 0;
};
Result<AreaStats> GetTable3Stats(Area area, int year);

struct SyntheticDblpConfig {
  int num_topics = 30;  // T = 30, as in Sec. 5
  /// Fraction of reviewers whose profile mixes two areas.
  double interdisciplinary_reviewer_fraction = 0.15;
  /// Fraction of papers whose topic mass spans two areas.
  double interdisciplinary_paper_fraction = 0.2;
  /// Dirichlet sparsity of reviewer profiles inside their topic block.
  double reviewer_dirichlet = 0.25;
  /// Number of salient topics per paper (1..this).
  int max_salient_topics = 4;
  /// Target fraction of topics carrying weight per generated profile, in
  /// (0, 1]. 0 (the default) keeps the legacy fully-dense Dirichlet draws,
  /// where every topic receives some mass. A value d restricts each
  /// reviewer/paper vector to ⌈d·T⌉ prior-weighted topics and leaves the
  /// rest *exactly* zero, giving the sparse scoring kernels
  /// (src/sparse/) real zeros to skip — benchmarks sweep this. Verify the
  /// achieved support with MeasureTopicDensity. The corpus-faithful
  /// GenerateDatasetViaAtm path ignores it (its vectors come from ATM/EM
  /// inference, which is dense by construction).
  double topic_density = 0.0;
  uint64_t seed = 42;
};

/// Achieved sparsity of a generated dataset: average nonzero count per
/// reviewer/paper topic vector. The generators' density report — pair it
/// with SyntheticDblpConfig::topic_density to check a sweep materialized
/// (`wgrap_cli generate` prints it).
struct TopicDensityReport {
  int num_topics = 0;
  double reviewer_avg_nnz = 0.0;
  double paper_avg_nnz = 0.0;
};
TopicDensityReport MeasureTopicDensity(const RapDataset& dataset);

/// Generates the (area, year) conference dataset at Table 3 scale.
Result<RapDataset> GenerateConferenceDataset(Area area, int year,
                                             const SyntheticDblpConfig& config);

/// Generates a JRA candidate pool of `num_reviewers` spanning all areas
/// (the paper's default pool has 1002 authors across the three areas).
Result<RapDataset> GenerateReviewerPool(int num_reviewers, int num_papers,
                                        const SyntheticDblpConfig& config);

/// Full-fidelity path: samples an ATM-style corpus for the area, fits ATM on
/// the reviewers' publications (topic::FitAtm, one sequential Gibbs chain),
/// infers paper vectors with EM, and assembles the dataset — exercising the
/// entire Sec. 2.4 / Appendix A pipeline. Sizes are scaled down by
/// `scale_divisor`; the fit's cost grows with the corpus's token count.
Result<RapDataset> GenerateDatasetViaAtm(Area area, int year,
                                         const SyntheticDblpConfig& config,
                                         int scale_divisor = 4);

}  // namespace wgrap::data

#endif  // WGRAP_DATA_SYNTHETIC_DBLP_H_
