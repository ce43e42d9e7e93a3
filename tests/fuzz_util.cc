#include "fuzz_util.h"

#include <utility>

#include "common/matrix.h"
#include "common/rng.h"
#include "data/synthetic_dblp.h"

namespace wgrap::core {

Result<data::RapDataset> MakeFuzzDataset(const FuzzInstanceConfig& config) {
  data::SyntheticDblpConfig dblp;
  dblp.num_topics = config.num_topics;
  dblp.seed = config.seed;
  return data::GenerateReviewerPool(config.reviewers, config.papers, dblp);
}

InstanceParams MakeFuzzParams(const FuzzInstanceConfig& config) {
  InstanceParams params;
  params.group_size = config.group_size;
  params.reviewer_workload =
      config.extra_workload == 0
          ? 0
          : Instance::MinimalWorkload(config.papers, config.reviewers,
                                      config.group_size) +
                config.extra_workload;
  params.scoring = config.scoring;
  params.sparse_topics = config.sparse_topics;
  return params;
}

Status PerturbInstance(const FuzzInstanceConfig& config, Instance* instance) {
  Rng rng(config.seed ^ 0xc01);
  if (config.conflict_rate > 0) {
    for (int p = 0; p < config.papers; ++p) {
      for (int r = 0; r < config.reviewers; ++r) {
        if (rng.NextDouble() < config.conflict_rate) {
          instance->AddConflict(r, p);
        }
      }
    }
  }
  if (config.with_bids) {
    Matrix bids(config.papers, config.reviewers);
    for (int p = 0; p < config.papers; ++p) {
      for (int r = 0; r < config.reviewers; ++r) {
        bids(p, r) = rng.NextDouble();
      }
    }
    WGRAP_RETURN_IF_ERROR(
        instance->SetBids(std::move(bids), config.bid_weight));
  }
  return Status::OK();
}

Result<Instance> MakeFuzzInstance(const FuzzInstanceConfig& config) {
  auto dataset = MakeFuzzDataset(config);
  WGRAP_RETURN_IF_ERROR(dataset.status());
  auto instance = Instance::FromDataset(*dataset, MakeFuzzParams(config));
  WGRAP_RETURN_IF_ERROR(instance.status());
  WGRAP_RETURN_IF_ERROR(PerturbInstance(config, &*instance));
  return instance;
}

std::vector<double> RandomTopics(Rng* rng, int T) {
  std::vector<double> v(T, 0.0);
  for (int t = 0; t < T; ++t) {
    if (rng->NextDouble() < 0.4) v[t] = rng->NextDouble();
  }
  v[rng->NextInt(0, T - 1)] += 0.25;
  return v;
}

}  // namespace wgrap::core
