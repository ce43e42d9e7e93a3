// Author-Topic Model (Rosen-Zvi et al., UAI 2004) fitted with collapsed
// Gibbs sampling, as adapted in Appendix A of the paper: reviewers play the
// role of authors, their publication abstracts are the documents, and the
// posterior author-topic mixtures become the reviewer topic vectors r→.
#ifndef WGRAP_TOPIC_ATM_H_
#define WGRAP_TOPIC_ATM_H_

#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "topic/corpus.h"

namespace wgrap::topic {

struct AtmOptions {
  int num_topics = 30;     // T, treated as a constant in the paper (T = 30)
  double alpha = 0.5;      // Dirichlet prior on author-topic mixtures
  double beta = 0.01;      // Dirichlet prior on topic-word distributions
  int iterations = 200;    // Gibbs sweeps
  int burn_in = 100;       // sweeps before averaging posterior estimates
  int sample_lag = 10;     // average every `sample_lag` sweeps after burn-in
};

/// Fitted model: theta rows are authors (num_authors x T, row-normalized),
/// phi rows are topics (T x vocab_size, row-normalized).
struct AtmModel {
  Matrix theta;
  Matrix phi;

  int num_topics() const { return phi.rows(); }
  int vocab_size() const { return phi.cols(); }
};

/// Runs one sequential collapsed Gibbs chain on the corpus, every draw from
/// `rng`: the same corpus, options and seed give the same model bit for
/// bit. Posterior estimates are averaged over post-burn-in samples for
/// stability.
Result<AtmModel> FitAtm(const Corpus& corpus, const AtmOptions& options,
                        Rng* rng);

/// Per-token perplexity of the corpus under the model — a sanity metric for
/// tests and examples (lower is better).
double ComputePerplexity(const Corpus& corpus, const AtmModel& model);

}  // namespace wgrap::topic

#endif  // WGRAP_TOPIC_ATM_H_
