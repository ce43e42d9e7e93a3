#include "fuzz_util.h"

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/string_util.h"
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
  return params;
}

ScopedTopicKernel::ScopedTopicKernel(std::optional<bool> csr) {
  if (const char* value = std::getenv("WGRAP_SPARSE_TOPICS")) saved_ = value;
  if (csr.has_value()) {
    setenv("WGRAP_SPARSE_TOPICS", *csr ? "1" : "0", /*overwrite=*/1);
  } else {
    unsetenv("WGRAP_SPARSE_TOPICS");
  }
}

ScopedTopicKernel::~ScopedTopicKernel() {
  if (saved_.has_value()) {
    setenv("WGRAP_SPARSE_TOPICS", saved_->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("WGRAP_SPARSE_TOPICS");
  }
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

namespace {

Instance BuildOrDie(const Result<data::RapDataset>& dataset,
                    const InstanceParams& params) {
  WGRAP_CHECK(dataset.ok());
  auto instance = Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(instance.ok());
  return std::move(instance).value();
}

}  // namespace

Instance SeededPool(int reviewers, int papers, int group_size, uint64_t seed,
                    int num_topics, int workload) {
  data::SyntheticDblpConfig config;
  config.num_topics = num_topics;
  config.seed = seed;
  InstanceParams params;
  params.group_size = group_size;
  params.reviewer_workload = workload;
  return BuildOrDie(data::GenerateReviewerPool(reviewers, papers, config),
                    params);
}

Instance Db08Instance(ScoringFunction scoring) {
  InstanceParams params;
  params.group_size = 3;
  params.scoring = scoring;
  return BuildOrDie(
      data::GenerateConferenceDataset(data::Area::kDatabases, 2008,
                                      data::SyntheticDblpConfig{}),
      params);
}

Instance SparseP400Instance() {
  data::SyntheticDblpConfig config;
  config.num_topics = 100;
  config.topic_density = 0.05;
  InstanceParams params;
  params.group_size = 3;
  return BuildOrDie(data::GenerateReviewerPool(150, 400, config), params);
}

void FnvFold(uint64_t value, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xff;
    *digest *= 0x100000001b3ULL;
  }
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<double> RandomTopics(Rng* rng, int T) {
  std::vector<double> v(T, 0.0);
  for (int t = 0; t < T; ++t) {
    if (rng->NextDouble() < 0.4) v[t] = rng->NextDouble();
  }
  v[rng->NextInt(0, T - 1)] += 0.25;
  return v;
}

data::RapDataset MakeStraddlingDataset(int reviewers, int papers,
                                       uint64_t seed) {
  const int divisor = sparse::TopicIndex::kHeavyColumnDivisor;
  WGRAP_CHECK(reviewers >= 2 * divisor && reviewers % divisor == 0);
  const int d = reviewers / divisor;
  const std::vector<int> degrees = {reviewers, d, d - 1,    d + 1,
                                    1,         reviewers / 2, 2, reviewers - d};
  const int T = static_cast<int>(degrees.size());
  data::RapDataset dataset;
  dataset.num_topics = T;
  for (int r = 0; r < reviewers; ++r) {
    dataset.reviewers.push_back(
        {"r" + std::to_string(r), std::vector<double>(T, 0.0), 1});
  }
  Rng rng(seed);
  std::vector<int> ids(reviewers);
  for (int t = 0; t < T; ++t) {
    for (int r = 0; r < reviewers; ++r) ids[r] = r;
    for (int k = 0; k < degrees[t]; ++k) {
      std::swap(ids[k], ids[rng.NextInt(k, reviewers - 1)]);
      dataset.reviewers[ids[k]].topics[t] =
          rng.NextInt(0, 3) == 0 ? 0.5 : 1.0 - rng.NextDouble();
    }
  }
  for (int p = 0; p < papers; ++p) {
    dataset.papers.push_back(
        {"p" + std::to_string(p), RandomTopics(&rng, T), "V"});
  }
  return dataset;
}

std::string DenseColumnMismatch(const sparse::TopicIndex& index) {
  const int rows = index.num_rows();
  for (int t = 0; t < index.num_topics(); ++t) {
    const sparse::SparseVector column = index.Column(t);
    const bool heavy =
        column.nnz > 0 &&
        sparse::TopicIndex::kHeavyColumnDivisor * column.nnz >= rows;
    const double* dense = index.DenseColumn(t);
    if (heavy != (dense != nullptr)) {
      return StrFormat("topic %d (degree %d of %d) is %s but has %s", t,
                       column.nnz, rows, heavy ? "heavy" : "light",
                       dense != nullptr ? "a dense column" : "none");
    }
    if (dense == nullptr) continue;
    std::vector<double> expected(rows, 0.0);
    for (int k = 0; k < column.nnz; ++k) {
      expected[column.ids[k]] = column.values[k];
    }
    if (std::memcmp(expected.data(), dense, rows * sizeof(double)) != 0) {
      return StrFormat("topic %d: dense column differs from the CSC column",
                       t);
    }
  }
  return "";
}

std::string Mangle(const std::string& text, Rng* rng) {
  static const char kChars[] = "0123456789+-.eExX ,#=\tn";
  static const char* const kTokens[] = {
      "",    "+1",   " 1",  "1 ",   "0x10",   "1e400", "-1e400", "1e-400",
      "nan", "-inf", "-1",  "-0",   "007",    "1.5",   "1e",     "on",
      "2147483648", "9223372036854775808", "18446744073709551616"};
  const auto pick = [rng](size_t n) {
    return static_cast<size_t>(rng->NextBounded(n));
  };
  std::string out = text;
  const int edit = rng->NextInt(0, 5);
  switch (edit) {
    case 0:  // replace a character
      if (!out.empty()) {
        out[pick(out.size())] = kChars[pick(sizeof(kChars) - 1)];
      }
      break;
    case 1:  // insert a character
      out.insert(out.begin() + pick(out.size() + 1),
                 kChars[pick(sizeof(kChars) - 1)]);
      break;
    case 2:  // delete a character
      if (!out.empty()) out.erase(pick(out.size()), 1);
      break;
    case 3:    // swap a token for a hostile spelling
    case 4: {  // or double it
      std::vector<std::pair<size_t, size_t>> tokens;  // [begin, end)
      for (size_t i = 0; i < out.size();) {
        if (out[i] == ' ' || out[i] == ',' || out[i] == '=') {
          ++i;
          continue;
        }
        const size_t begin = i;
        while (i < out.size() && out[i] != ' ' && out[i] != ',' &&
               out[i] != '=') {
          ++i;
        }
        tokens.emplace_back(begin, i);
      }
      if (tokens.empty()) break;
      const auto [begin, end] = tokens[pick(tokens.size())];
      const std::string token = out.substr(begin, end - begin);
      out.replace(begin, end - begin,
                  edit == 3 ? std::string(kTokens[pick(std::size(kTokens))])
                            : token + " " + token);
      break;
    }
    default:  // cut the line short
      out.resize(pick(out.size() + 1));
      break;
  }
  return out;
}

std::string MangleOneLine(std::vector<std::string> lines, Rng* rng) {
  std::string& line = lines[rng->NextBounded(lines.size())];
  for (int edits = rng->NextInt(1, 3); edits > 0; --edits) {
    line = Mangle(line, rng);
  }
  return StrJoin(lines, "\n") + "\n";
}

std::vector<std::string> TextLines(const std::string& text) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

Result<Assignment> ReplayPairs(const Instance* instance,
                               const std::vector<std::pair<int, int>>& pairs) {
  Assignment replayed(instance);
  for (const auto& [p, r] : pairs) {
    WGRAP_RETURN_IF_ERROR(replayed.AddUnchecked(p, r));
  }
  replayed.RecomputeAll();
  return replayed;
}

std::string AssignmentMismatch(const Assignment& got, const Assignment& want) {
  const Instance& instance = want.instance();
  if (got.instance().num_papers() != instance.num_papers() ||
      got.instance().num_reviewers() != instance.num_reviewers() ||
      got.instance().num_topics() != instance.num_topics()) {
    return "instance shapes differ";
  }
  if (got.size() != want.size()) {
    return StrFormat("size %lld vs %lld", static_cast<long long>(got.size()),
                     static_cast<long long>(want.size()));
  }
  const size_t row_bytes = sizeof(double) * instance.num_topics();
  for (int p = 0; p < instance.num_papers(); ++p) {
    if (got.GroupFor(p) != want.GroupFor(p)) {
      return StrFormat("paper %d: groups differ", p);
    }
    if (std::memcmp(got.GroupVector(p), want.GroupVector(p), row_bytes) != 0) {
      return StrFormat("paper %d: group vectors differ", p);
    }
    const double got_score = got.PaperScore(p);
    const double want_score = want.PaperScore(p);
    if (std::memcmp(&got_score, &want_score, sizeof(double)) != 0) {
      return StrFormat("paper %d: score %.17g vs %.17g", p, got_score,
                       want_score);
    }
  }
  for (int r = 0; r < instance.num_reviewers(); ++r) {
    if (got.LoadOf(r) != want.LoadOf(r)) {
      return StrFormat("reviewer %d: load %d vs %d", r, got.LoadOf(r),
                       want.LoadOf(r));
    }
  }
  const double got_total = got.TotalScore();
  const double want_total = want.TotalScore();
  if (std::memcmp(&got_total, &want_total, sizeof(double)) != 0) {
    return StrFormat("total %.17g vs %.17g", got_total, want_total);
  }
  return "";
}

}  // namespace wgrap::core
