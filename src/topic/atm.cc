#include "topic/atm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace wgrap::topic {

namespace {

// Collapsed Gibbs state for ATM: every token has a latent (author, topic)
// pair; counts are maintained incrementally.
//
// A sweep visits the tokens in document order. Each token's pair is taken
// out of the counts, redrawn from its full conditional given every other
// token's current pair, and added back: the sequential chain of Rosen-Zvi
// et al. Every draw comes from the caller's generator.
class GibbsSampler {
 public:
  GibbsSampler(const Corpus& corpus, const AtmOptions& options, Rng* rng)
      : corpus_(corpus), options_(options), rng_(rng),
        author_topic_(corpus.num_authors, options.num_topics),
        word_topic_(corpus.vocab_size, options.num_topics),
        author_total_(corpus.num_authors, 0.0),
        topic_total_(options.num_topics, 0.0),
        word_weights_(options.num_topics),
        theta_sum_(corpus.num_authors, options.num_topics),
        phi_sum_(options.num_topics, corpus.vocab_size) {
    // Random initialization of token assignments.
    for (const Document& doc : corpus.documents) {
      for (int w : doc.words) {
        const int t = static_cast<int>(rng->NextBounded(options.num_topics));
        const int slot =
            static_cast<int>(rng->NextBounded(doc.authors.size()));
        token_topic_.push_back(t);
        token_slot_.push_back(slot);
        AdjustCounts(doc.authors[slot], t, w, +1.0);
      }
    }
  }

  AtmModel Run() {
    int samples_taken = 0;
    for (int iter = 0; iter < options_.iterations; ++iter) {
      Sweep();
      const bool past_burn_in = iter >= options_.burn_in;
      const bool on_lag =
          options_.sample_lag <= 1 ||
          (iter - options_.burn_in) % options_.sample_lag == 0;
      if (past_burn_in && on_lag) {
        AccumulatePosterior();
        ++samples_taken;
      }
    }
    if (samples_taken == 0) {  // degenerate config: take the final state
      AccumulatePosterior();
    }
    AtmModel model;
    model.theta = theta_sum_;
    model.phi = phi_sum_;
    model.theta.NormalizeRows();
    model.phi.NormalizeRows();
    return model;
  }

 private:
  void AdjustCounts(int author, int topic, int word, double delta) {
    author_topic_(author, topic) += delta;
    word_topic_(word, topic) += delta;
    author_total_[author] += delta;
    topic_total_[topic] += delta;
  }

  void Sweep() {
    const int T = options_.num_topics;
    const double v_beta = corpus_.vocab_size * options_.beta;
    const double t_alpha = T * options_.alpha;
    size_t token = 0;
    for (const Document& doc : corpus_.documents) {
      weights_.resize(doc.authors.size() * T);
      for (int w : doc.words) {
        int& topic = token_topic_[token];
        int& slot = token_slot_[token];
        ++token;
        AdjustCounts(doc.authors[slot], topic, w, -1.0);
        // Joint draw of (author slot, topic) proportional to
        // (C_at + alpha) / (C_a. + T alpha) * (C_tw + beta) / (C_t. + V beta)
        const double* c_w = word_topic_.Row(w);
        for (int t = 0; t < T; ++t) {
          word_weights_[t] = (c_w[t] + options_.beta) /
                             (topic_total_[t] + v_beta);
        }
        for (size_t ai = 0; ai < doc.authors.size(); ++ai) {
          const int a = doc.authors[ai];
          const double a_norm = author_total_[a] + t_alpha;
          const double* c_a = author_topic_.Row(a);
          double* row = &weights_[ai * T];
          for (int t = 0; t < T; ++t) {
            row[t] = (c_a[t] + options_.alpha) / a_norm * word_weights_[t];
          }
        }
        const int pick = rng_->SampleDiscrete(weights_);
        WGRAP_CHECK(pick >= 0);
        slot = pick / T;
        topic = pick % T;
        AdjustCounts(doc.authors[slot], topic, w, +1.0);
      }
    }
  }

  void AccumulatePosterior() {
    for (int a = 0; a < corpus_.num_authors; ++a) {
      for (int t = 0; t < options_.num_topics; ++t) {
        theta_sum_(a, t) += (author_topic_(a, t) + options_.alpha) /
                            (author_total_[a] +
                             options_.num_topics * options_.alpha);
      }
    }
    for (int t = 0; t < options_.num_topics; ++t) {
      for (int w = 0; w < corpus_.vocab_size; ++w) {
        phi_sum_(t, w) += (word_topic_(w, t) + options_.beta) /
                          (topic_total_[t] +
                           corpus_.vocab_size * options_.beta);
      }
    }
  }

  const Corpus& corpus_;
  const AtmOptions& options_;
  Rng* rng_;
  Matrix author_topic_;  // C_at
  Matrix word_topic_;    // C_tw, stored word-major so a token reads one row
  std::vector<double> author_total_;
  std::vector<double> topic_total_;
  std::vector<double> word_weights_;  // per-token word factor, T entries
  std::vector<double> weights_;       // per-token draw, authors x T
  Matrix theta_sum_;
  Matrix phi_sum_;
  std::vector<int> token_topic_;  // per token, in document order
  std::vector<int> token_slot_;   // index into the token's Document::authors
};

}  // namespace

Result<AtmModel> FitAtm(const Corpus& corpus, const AtmOptions& options,
                        Rng* rng) {
  WGRAP_RETURN_IF_ERROR(corpus.Validate());
  if (options.num_topics <= 0) {
    return Status::InvalidArgument("num_topics must be > 0");
  }
  if (options.iterations <= 0) {
    return Status::InvalidArgument("iterations must be > 0");
  }
  if (options.alpha <= 0.0 || options.beta <= 0.0) {
    return Status::InvalidArgument("alpha and beta must be > 0");
  }
  GibbsSampler sampler(corpus, options, rng);
  return sampler.Run();
}

double ComputePerplexity(const Corpus& corpus, const AtmModel& model) {
  // log p(w | d) with the document's authors mixed uniformly, as in the
  // ATM generative story.
  double log_likelihood = 0.0;
  int64_t tokens = 0;
  const int T = model.num_topics();
  for (const Document& doc : corpus.documents) {
    for (int w : doc.words) {
      double pw = 0.0;
      for (int a : doc.authors) {
        for (int t = 0; t < T; ++t) {
          pw += model.theta(a, t) * model.phi(t, w);
        }
      }
      pw /= static_cast<double>(doc.authors.size());
      log_likelihood += std::log(std::max(pw, 1e-300));
      ++tokens;
    }
  }
  return std::exp(-log_likelihood / static_cast<double>(tokens));
}

}  // namespace wgrap::topic
