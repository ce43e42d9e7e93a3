#include "data/synthetic_dblp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"
#include "topic/atm.h"
#include "topic/em.h"
#include "topic/synthetic.h"

namespace wgrap::data {

namespace {

// Venues per area as in Table 3; the first venue's PC provides reviewers.
const char* const kDmVenues[] = {"SIGKDD", "ICDM", "SDM", "CIKM"};
const char* const kDbVenues[] = {"SIGMOD", "VLDB", "ICDE", "PODS"};
const char* const kThVenues[] = {"STOC", "FOCS", "SODA"};

struct AreaVenueList {
  const char* const* venues;
  int count;
};

AreaVenueList GetVenues(Area area) {
  switch (area) {
    case Area::kDataMining:
      return {kDmVenues, 4};
    case Area::kDatabases:
      return {kDbVenues, 4};
    case Area::kTheory:
      return {kThVenues, 3};
  }
  return {kDbVenues, 4};
}

// Base topic affinity of an area over the T topics: each area owns a block
// with soft boundaries overlapping the neighbouring area, producing the
// interdisciplinary structure (e.g. DM<->DB share "mining of databases"
// topics) visible in the paper's case studies.
std::vector<double> AreaTopicPrior(Area area, int num_topics) {
  std::vector<double> prior(num_topics, 0.02);
  auto bump = [&](double lo_frac, double hi_frac, double weight) {
    const int lo = static_cast<int>(lo_frac * num_topics);
    const int hi = std::min(num_topics,
                            static_cast<int>(hi_frac * num_topics));
    for (int t = lo; t < hi; ++t) prior[t] += weight;
  };
  switch (area) {
    case Area::kDataMining:
      bump(0.00, 0.40, 1.0);
      bump(0.40, 0.55, 0.25);  // overlap with DB
      break;
    case Area::kDatabases:
      bump(0.33, 0.73, 1.0);
      bump(0.20, 0.33, 0.25);  // overlap with DM
      bump(0.73, 0.83, 0.15);  // overlap with Theory (e.g. PODS)
      break;
    case Area::kTheory:
      bump(0.66, 1.00, 1.0);
      bump(0.55, 0.66, 0.2);  // overlap with DB
      break;
  }
  return prior;
}

Area OtherArea(Area area, Rng* rng) {
  switch (area) {
    case Area::kDataMining:
      return Area::kDatabases;
    case Area::kDatabases:
      return rng->NextDouble() < 0.6 ? Area::kDataMining : Area::kTheory;
    case Area::kTheory:
      return Area::kDatabases;
  }
  return Area::kDatabases;
}

// Heavy-tailed synthetic h-index (log-normal, clipped) standing in for the
// real h-indices used in Fig. 21(d).
int SampleHIndex(Rng* rng) {
  const double h = std::exp(2.4 + 0.8 * rng->NextGaussian());
  return std::clamp(static_cast<int>(h), 1, 120);
}

// Restricts a Dirichlet draw to a ⌈density·T⌉-topic support: the support
// is sampled without replacement proportionally to the concentration, the
// weights are a Dirichlet over the restricted concentrations, and every
// other topic is *exactly* zero (the legacy dense draw leaves small but
// nonzero mass everywhere). Deterministic given the rng state.
std::vector<double> SampleSparseDirichlet(
    const std::vector<double>& concentration, double density, Rng* rng) {
  const int num_topics = static_cast<int>(concentration.size());
  const int support_size = std::clamp(
      static_cast<int>(std::ceil(density * num_topics)), 1, num_topics);
  std::vector<double> weights = concentration;
  std::vector<int> support;
  support.reserve(support_size);
  for (int i = 0; i < support_size; ++i) {
    const int t = rng->SampleDiscrete(weights);
    WGRAP_CHECK(t >= 0);
    support.push_back(t);
    weights[t] = 0.0;  // without replacement
  }
  std::vector<double> restricted(support_size);
  for (int i = 0; i < support_size; ++i) {
    restricted[i] = concentration[support[i]];
  }
  const std::vector<double> draw = rng->NextDirichlet(restricted);
  std::vector<double> out(num_topics, 0.0);
  for (int i = 0; i < support_size; ++i) out[support[i]] = draw[i];
  return out;
}

std::vector<double> SampleReviewerVector(Area area, int num_topics,
                                         const SyntheticDblpConfig& config,
                                         Rng* rng) {
  std::vector<double> prior = AreaTopicPrior(area, num_topics);
  if (rng->NextDouble() < config.interdisciplinary_reviewer_fraction) {
    const auto other = AreaTopicPrior(OtherArea(area, rng), num_topics);
    for (int t = 0; t < num_topics; ++t) prior[t] = 0.5 * (prior[t] + other[t]);
  }
  for (double& a : prior) a *= config.reviewer_dirichlet;
  if (config.topic_density > 0.0) {
    return SampleSparseDirichlet(prior, config.topic_density, rng);
  }
  return rng->NextDirichlet(prior);
}

std::vector<double> SamplePaperVector(Area area, int num_topics,
                                      const SyntheticDblpConfig& config,
                                      Rng* rng, std::vector<int>* salient) {
  std::vector<double> prior = AreaTopicPrior(area, num_topics);
  if (rng->NextDouble() < config.interdisciplinary_paper_fraction) {
    const auto other = AreaTopicPrior(OtherArea(area, rng), num_topics);
    for (int t = 0; t < num_topics; ++t) prior[t] = 0.5 * (prior[t] + other[t]);
  }
  // Pick 1..max salient topics from the area prior, then give them dominant
  // Dirichlet mass; the rest form a long tail. This produces the "one main
  // subject, several side topics" shape motivating weighted coverage.
  const int num_salient = rng->NextInt(1, config.max_salient_topics);
  std::vector<double> concentration(num_topics, 0.03);
  salient->clear();
  for (int s = 0; s < num_salient; ++s) {
    const int t = rng->SampleDiscrete(prior);
    WGRAP_CHECK(t >= 0);
    concentration[t] += 2.5 / (1.0 + s);  // decreasing importance
    salient->push_back(t);
    prior[t] *= 0.15;  // discourage re-picking
  }
  if (config.topic_density > 0.0) {
    // The salient topics dominate the concentration, so the
    // prior-weighted support sampling all but surely retains them.
    return SampleSparseDirichlet(concentration, config.topic_density, rng);
  }
  return rng->NextDirichlet(concentration);
}

}  // namespace

std::string AreaCode(Area area) {
  switch (area) {
    case Area::kDataMining:
      return "DM";
    case Area::kDatabases:
      return "DB";
    case Area::kTheory:
      return "T";
  }
  return "?";
}

TopicDensityReport MeasureTopicDensity(const RapDataset& dataset) {
  TopicDensityReport report;
  report.num_topics = dataset.num_topics;
  auto count_nnz = [](const std::vector<double>& v) {
    int nnz = 0;
    for (double x : v) nnz += x > 0.0 ? 1 : 0;
    return nnz;
  };
  int64_t reviewer_nnz = 0;
  for (const ReviewerInfo& reviewer : dataset.reviewers) {
    reviewer_nnz += count_nnz(reviewer.topics);
  }
  int64_t paper_nnz = 0;
  for (const PaperInfo& paper : dataset.papers) {
    paper_nnz += count_nnz(paper.topics);
  }
  if (!dataset.reviewers.empty()) {
    report.reviewer_avg_nnz =
        static_cast<double>(reviewer_nnz) / dataset.num_reviewers();
  }
  if (!dataset.papers.empty()) {
    report.paper_avg_nnz =
        static_cast<double>(paper_nnz) / dataset.num_papers();
  }
  return report;
}

Result<AreaStats> GetTable3Stats(Area area, int year) {
  if (year != 2008 && year != 2009) {
    return Status::InvalidArgument("year must be 2008 or 2009");
  }
  const bool y8 = year == 2008;
  switch (area) {
    case Area::kDataMining:
      return AreaStats{y8 ? 545 : 648, y8 ? 203 : 145};
    case Area::kDatabases:
      return AreaStats{y8 ? 617 : 513, y8 ? 105 : 90};
    case Area::kTheory:
      return AreaStats{y8 ? 281 : 226, y8 ? 228 : 222};
  }
  return Status::InvalidArgument("unknown area");
}

Result<RapDataset> GenerateConferenceDataset(
    Area area, int year, const SyntheticDblpConfig& config) {
  auto stats = GetTable3Stats(area, year);
  if (!stats.ok()) return stats.status();
  if (config.num_topics <= 1) {
    return Status::InvalidArgument("num_topics must be > 1");
  }
  if (!(config.topic_density >= 0.0 && config.topic_density <= 1.0)) {  // rejects NaN too
    return Status::InvalidArgument("topic_density must be in [0, 1]");
  }

  Rng rng(config.seed ^ (static_cast<uint64_t>(area) << 32) ^
          static_cast<uint64_t>(year));
  RapDataset dataset;
  dataset.num_topics = config.num_topics;
  const std::string code = AreaCode(area) + StrFormat("%02d", year % 100);
  const AreaVenueList venues = GetVenues(area);

  dataset.reviewers.reserve(stats->num_reviewers);
  for (int i = 0; i < stats->num_reviewers; ++i) {
    ReviewerInfo reviewer;
    reviewer.name = StrFormat("%s PC member %03d", code.c_str(), i);
    reviewer.topics = SampleReviewerVector(area, config.num_topics, config,
                                           &rng);
    reviewer.h_index = SampleHIndex(&rng);
    dataset.reviewers.push_back(std::move(reviewer));
  }
  dataset.papers.reserve(stats->num_papers);
  std::vector<int> salient;
  for (int i = 0; i < stats->num_papers; ++i) {
    PaperInfo paper;
    paper.venue = venues.venues[rng.NextBounded(venues.count)];
    paper.topics = SamplePaperVector(area, config.num_topics, config, &rng,
                                     &salient);
    std::string topic_tags;
    for (size_t s = 0; s < salient.size(); ++s) {
      topic_tags += StrFormat("%st%d", s ? "+" : "", salient[s]);
    }
    paper.title = StrFormat("%s'%02d paper %04d (%s)", paper.venue.c_str(),
                            year % 100, i, topic_tags.c_str());
    dataset.papers.push_back(std::move(paper));
  }
  WGRAP_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<RapDataset> GenerateReviewerPool(int num_reviewers, int num_papers,
                                        const SyntheticDblpConfig& config) {
  if (num_reviewers <= 0) {
    return Status::InvalidArgument("num_reviewers must be > 0");
  }
  if (num_papers < 0) return Status::InvalidArgument("negative num_papers");
  if (config.num_topics < 1) {
    return Status::InvalidArgument("num_topics must be >= 1");
  }
  if (!(config.topic_density >= 0.0 && config.topic_density <= 1.0)) {  // rejects NaN too
    return Status::InvalidArgument("topic_density must be in [0, 1]");
  }
  Rng rng(config.seed ^ 0xa5a5a5a5ULL);
  RapDataset dataset;
  dataset.num_topics = config.num_topics;
  const Area areas[] = {Area::kDataMining, Area::kDatabases, Area::kTheory};
  for (int i = 0; i < num_reviewers; ++i) {
    const Area area = areas[rng.NextBounded(3)];
    ReviewerInfo reviewer;
    reviewer.name = StrFormat("Pool author %04d (%s)", i,
                              AreaCode(area).c_str());
    reviewer.topics = SampleReviewerVector(area, config.num_topics, config,
                                           &rng);
    reviewer.h_index = SampleHIndex(&rng);
    dataset.reviewers.push_back(std::move(reviewer));
  }
  std::vector<int> salient;
  for (int i = 0; i < num_papers; ++i) {
    const Area area = areas[rng.NextBounded(3)];
    PaperInfo paper;
    paper.venue = "Journal";
    paper.topics = SamplePaperVector(area, config.num_topics, config, &rng,
                                     &salient);
    paper.title = StrFormat("Journal submission %04d (%s)", i,
                            AreaCode(area).c_str());
    dataset.papers.push_back(std::move(paper));
  }
  WGRAP_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<RapDataset> GenerateDatasetViaAtm(Area area, int year,
                                         const SyntheticDblpConfig& config,
                                         int scale_divisor) {
  auto stats = GetTable3Stats(area, year);
  if (!stats.ok()) return stats.status();
  if (scale_divisor <= 0) {
    return Status::InvalidArgument("scale_divisor must be > 0");
  }
  const int num_reviewers =
      std::max(8, stats->num_reviewers / scale_divisor);
  const int num_papers = std::max(10, stats->num_papers / scale_divisor);

  Rng rng(config.seed ^ 0xdb1fULL ^ (static_cast<uint64_t>(area) << 24) ^
          static_cast<uint64_t>(year));

  // 1) Publication corpus: reviewers are the authors (Sec. 2.4 collects
  //    their 2000-2009 abstracts).
  topic::SyntheticCorpusConfig corpus_config;
  corpus_config.num_topics = config.num_topics;
  corpus_config.vocab_size = 800;
  corpus_config.num_authors = num_reviewers;
  corpus_config.num_documents = num_reviewers * 6;  // ~6 abstracts each
  corpus_config.mean_document_length = 90;
  corpus_config.min_document_length = 30;
  auto synthetic = topic::GenerateSyntheticCorpus(corpus_config, &rng);
  if (!synthetic.ok()) return synthetic.status();

  // 2) Fit ATM on the publication record.
  topic::AtmOptions atm_options;
  atm_options.num_topics = config.num_topics;
  atm_options.iterations = 120;
  atm_options.burn_in = 60;
  auto model = topic::FitAtm(synthetic->corpus, atm_options, &rng);
  if (!model.ok()) return model.status();

  RapDataset dataset;
  dataset.num_topics = config.num_topics;
  const std::string code = AreaCode(area) + StrFormat("%02d", year % 100);
  for (int i = 0; i < num_reviewers; ++i) {
    ReviewerInfo reviewer;
    reviewer.name = StrFormat("%s PC member %03d (ATM)", code.c_str(), i);
    reviewer.topics.resize(config.num_topics);
    for (int t = 0; t < config.num_topics; ++t) {
      reviewer.topics[t] = model->theta(i, t);
    }
    reviewer.h_index = SampleHIndex(&rng);
    dataset.reviewers.push_back(std::move(reviewer));
  }

  // 3) Submissions: fresh documents sampled from the same generative truth,
  //    with vectors inferred by EM against the *fitted* topics (Eq. 11).
  std::vector<double> word_probs(corpus_config.vocab_size);
  for (int i = 0; i < num_papers; ++i) {
    // Sample an abstract from a random mixture of 1-3 true topics.
    std::vector<double> mix(config.num_topics, 0.02);
    const int salient = rng.NextInt(1, 3);
    for (int s = 0; s < salient; ++s) {
      mix[rng.NextBounded(config.num_topics)] += 1.5;
    }
    const auto pi = rng.NextDirichlet(mix);
    std::vector<int> words;
    const int length = 80 + rng.NextInt(0, 60);
    for (int k = 0; k < length; ++k) {
      const int t = rng.SampleDiscrete(pi);
      for (int w = 0; w < corpus_config.vocab_size; ++w) {
        word_probs[w] = synthetic->true_phi(t, w);
      }
      words.push_back(rng.SampleDiscrete(word_probs));
    }
    auto inferred = topic::InferTopicMixture(words, model->phi);
    if (!inferred.ok()) return inferred.status();
    PaperInfo paper;
    paper.title = StrFormat("%s submission %04d (ATM)", code.c_str(), i);
    paper.venue = GetVenues(area).venues[0];
    paper.topics = std::move(inferred).value();
    dataset.papers.push_back(std::move(paper));
  }
  WGRAP_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace wgrap::data
