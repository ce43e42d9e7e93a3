// perfbench — the end-to-end and per-layer benchmark.
//
//   perfbench --workload conf_db08|sparse_p400|service_mix --seed N
//             --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//
// perfbench generates the workload's dataset from --seed, hands the
// program only the CSV bytes, drives the public library and service API,
// checks every result against the correctness gate, and prints detail lines
// followed by one JSON object as the last line of stdout. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (README.md has the
// glossary and the layer → end-to-end predictions).
//
// Every amount of work is a count. --seconds only scales the number of
// repetitions, by a fixed formula, so one seed always produces the same
// result bytes; timings are medians over the repetitions. Spans come from
// this file (obs::ScopedSpan around each call into a layer) plus the spans
// the program already emits; counters are deltas of the program's own
// obs::Registry::Global() instruments.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <cpuid.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/assignment.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "core/instance.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/update.h"
#include "data/io.h"
#include "data/synthetic_dblp.h"
#include "la/auction.h"
#include "la/hungarian.h"
#include "la/transportation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/api.h"
#include "service/protocol.h"
#include "service/reports.h"
#include "simd/dispatch.h"

namespace wgrap::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `fn` inside a span named `name` and returns its wall-clock seconds.
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  obs::ScopedSpan span(name);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

// ------------------------------------------------------------ CPU rotation

// The host's vCPUs run at different speeds at the same moment, and the
// scheduler tends to keep a thread on one vCPU for long stretches. So
// before each timed unit the calling thread is pinned to the next window
// of `width` vCPUs, round robin, and every run samples every vCPU alike.
// Threads a solve starts inherit the window.
void RotateCpu(int width) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  // One counter per width, so that each kind of unit cycles through every
  // window however the kinds interleave.
  static std::map<int, size_t> next;
  if (cpus.size() < 2) return;
  cpu_set_t window;
  CPU_ZERO(&window);
  const size_t first = next[width]++;
  for (int i = 0; i < width; ++i) {
    CPU_SET(cpus[(first + static_cast<size_t>(i)) % cpus.size()], &window);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(window), &window);
}

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 3600) {
        std::fprintf(stderr, "perfbench: --seconds must be 1..3600\n");
        return false;
      }
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "perfbench: --trace must be 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || args->seconds == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--trace-out FILE]\n");
    return false;
  }
  return true;
}

// --------------------------------------------------------------- statistics

// Quality metrics are means: a renumbering can flip a variant's lowest
// coverage between a few discrete values, and a median over the variants
// then jumps between them from one seed to the next.
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between order statistics (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buffer[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buffer + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------- machine profile

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                     &regs[leaf * 4 + 2], &regs[leaf * 4 + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model = brand;
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void PrintProfile(const Args& args) {
  std::printf("profile: nproc=%u cpu=\"%s\" simd=%s compiler=\"%s\" "
              "build=%s obs=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              simd::ActiveBackendName(), kCompiler, PERFBENCH_BUILD_TYPE,
              obs::Enabled() ? "on" : "off");
  std::printf("run: workload=%s seed=%llu seconds=%d trace=%d tiny=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0);
}

// --------------------------------------------------------- correctness gate

// Counts every checked operation; one failure makes the run incorrect.
struct Gate {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool self_check_passed = false;

  void Record(const std::string& what, const Status& status) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    std::printf("gate: FAIL %s: %s\n", what.c_str(),
                status.ToString().c_str());
  }
  bool ok() const { return failed == 0 && self_check_passed; }
  double ok_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The score a result reports: its cached total, normalized so that it
// depends only on the groups (the same rule RecomputeAll documents).
double NormalizedScore(const core::Assignment& assignment) {
  core::Assignment copy = assignment;
  copy.RecomputeAll();
  return copy.TotalScore();
}

// A CRA result passes when it is complete and feasible, the score it
// reports matches a from-scratch rebuild of its groups, and that score is
// at least half the ideal-assignment upper bound (Theorems 1-2). The
// program keeps its total as a running sum of gains, which can differ from
// the re-summed total in the last bits, so the match is to 1e-12 relative;
// the rebuilt score itself is what the benchmark reports, and it is the
// same bit for bit on every run of a seed.
Status CheckCra(const core::Instance& instance,
                const core::Assignment& assignment, double reported_score,
                double ideal_score) {
  WGRAP_RETURN_IF_ERROR(assignment.ValidateComplete());
  core::Assignment fresh(&instance);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r : assignment.GroupFor(p)) {
      WGRAP_RETURN_IF_ERROR(fresh.Add(p, r));
    }
  }
  fresh.RecomputeAll();
  const double rebuilt = fresh.TotalScore();
  if (!(std::fabs(reported_score - rebuilt) <= 1e-12 * std::fabs(rebuilt))) {
    char message[128];
    std::snprintf(message, sizeof(message),
                  "score %.17g differs from recompute %.17g", reported_score,
                  rebuilt);
    return Status::Internal(message);
  }
  if (!SameBits(rebuilt, NormalizedScore(assignment))) {
    return Status::Internal("rebuilt score depends on how it was built");
  }
  if (!(rebuilt >= 0.5 * ideal_score)) {
    return Status::Internal("score below half the ideal upper bound");
  }
  return Status::OK();
}

// Negative self-check: the gate must reject a result with a pair dropped,
// a score 1e-9 off, and a score below the ideal bound.
bool GateRejectsCorruption(const core::Instance& instance,
                           const core::Assignment& good, double ideal) {
  const double score = NormalizedScore(good);
  core::Assignment dropped = good;
  if (!dropped.Remove(0, good.GroupFor(0).front()).ok()) return false;
  const bool rejects_drop =
      !CheckCra(instance, dropped, NormalizedScore(dropped), ideal).ok();
  const bool rejects_ulp =
      !CheckCra(instance, good, score * (1.0 + 1e-9), ideal).ok();
  const bool rejects_bound =
      !CheckCra(instance, good, score, 3.0 * score).ok();
  const bool accepts_good = CheckCra(instance, good, score, ideal).ok();
  std::printf("gate self-check: rejects dropped pair=%d, score 1e-9 off=%d, "
              "below-bound score=%d; accepts the real result=%d\n",
              rejects_drop, rejects_ulp, rejects_bound, accepts_good);
  return rejects_drop && rejects_ulp && rejects_bound && accepts_good;
}

// Checks a JRA top-k report ("#1 score 0.1234: r1 r2 r3" per line): k
// lines, scores non-increasing.
Status CheckJraReport(const std::string& report, int k) {
  std::istringstream in(report);
  std::string line;
  int lines = 0;
  double previous = 1e300;
  while (std::getline(in, line)) {
    double score = 0.0;
    if (std::sscanf(line.c_str(), "#%*d score %lf:", &score) != 1) {
      return Status::Internal("malformed JRA line '" + line + "'");
    }
    if (score > previous) return Status::Internal("JRA scores increase");
    previous = score;
    ++lines;
  }
  if (lines != k) return Status::Internal("JRA returned a short list");
  return Status::OK();
}

Status CheckJraResults(const std::vector<core::JraResult>& results, int k) {
  if (static_cast<int>(results.size()) != k) {
    return Status::Internal("JRA returned a short list");
  }
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].score > results[i - 1].score) {
      return Status::Internal("JRA scores increase");
    }
  }
  return Status::OK();
}

Status ExpectFeasibleReport(const std::string& report) {
  return report.find("feasible: yes") != std::string::npos
             ? Status::OK()
             : Status::Internal("report not feasible: " + report);
}

// ---------------------------------------------------------- obs counters

int64_t CounterValue(const char* name) {
  obs::Counter* counter = obs::Registry::Global().GetCounter(name);
  return counter ? counter->Value() : 0;
}

struct HistogramReading {
  int64_t count = 0;
  double sum = 0.0;
};

HistogramReading ReadHistogram(const char* name) {
  obs::Histogram* histogram = obs::Registry::Global().GetHistogram(name);
  if (histogram == nullptr) return {};
  return {histogram->Count(), histogram->Sum()};
}

// The program counters the per-layer metrics read, snapshotted before and
// after a phase.
struct CounterSnapshot {
  int64_t patched = CounterValue("wgrap_gain_cache_patched_cells_total");
  int64_t rebuilt = CounterValue("wgrap_gain_cache_rebuilt_cells_total");
  int64_t full_builds = CounterValue("wgrap_gain_cache_full_builds_total");
  int64_t fallbacks = CounterValue("wgrap_lap_auction_fallbacks_total");
  int64_t cas_conflicts = CounterValue("wgrap_service_cas_conflicts_total");
  int64_t shed = CounterValue("wgrap_service_shed_total");
  HistogramReading queue_wait = ReadHistogram("wgrap_jobs_wait_seconds");
  HistogramReading api_evaluate =
      ReadHistogram("wgrap_service_evaluate_seconds");
  HistogramReading repaired = ReadHistogram("wgrap_update_repaired_papers");
};

// ------------------------------------------------------------ workloads

enum class Kind { kConfDb08, kSparseP400, kServiceMix };

// Fixed work of one run. Repetition counts scale with --seconds by a fixed
// formula; nothing is ever sized by reading a clock.
struct Plan {
  Kind kind = Kind::kConfDb08;
  int setup_reps = 0;
  int solve_reps = 0;   // conf_*: SDGA(+SRA) repetitions, median reported
  int sra_rounds = 0;   // conf_db08: SraOptions::max_iterations
  int tail_rounds = 0;  // conf_*: library read/write rounds after the solve
  int script_reps = 0;  // service_mix: request-script repetitions
  int script_rounds = 0;
  int threads = 2;
};

// Repetitions that fit in `seconds` at `per_rep_tenths` tenths of a second
// each, within [3, 64].
int Scaled(int seconds, int per_rep_tenths) {
  return std::clamp(10 * seconds / per_rep_tenths, 3, 64);
}

Result<Plan> MakePlan(const Args& args) {
  Plan plan;
  if (args.workload == "conf_db08" || args.workload == "sparse_p400") {
    // A repetition is 15 set-ups, one solve and 20 rounds of library
    // reads and writes: about 4 s on conf_db08 (SDGA+SRA 3.3 s), 1 s on
    // sparse_p400 (SDGA 0.65 s).
    const bool sra = args.workload == "conf_db08";
    plan.kind = sra ? Kind::kConfDb08 : Kind::kSparseP400;
    plan.sra_rounds = sra ? (args.tiny ? 2 : 8) : 0;
    plan.solve_reps = args.tiny ? 1 : Scaled(args.seconds, sra ? 40 : 10);
    plan.setup_reps = 15 * plan.solve_reps;
    plan.tail_rounds = args.tiny ? 3 : 20 * plan.solve_reps;
  } else if (args.workload == "service_mix") {
    // A repetition is one script (~3.5 s) and two set-ups (~0.2 s each),
    // one of them opening the repetition's session.
    plan.kind = Kind::kServiceMix;
    plan.script_reps = args.tiny ? 1 : Scaled(args.seconds, 40);
    plan.setup_reps = 2 * plan.script_reps;
    // 146 rounds query every paper four times and target every paper with
    // one write, whatever the renumbering.
    plan.script_rounds = args.tiny ? 3 : 146;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + args.workload +
        "' (use conf_db08, sparse_p400 or service_mix)");
  }
  if (args.tiny) plan.setup_reps = 3;
  return plan;
}

// A workload's inputs: the CSV bytes of one or more variants (renumberings
// of the same population), for each variant the id it gives every
// population paper, and the instance parameters.
struct Input {
  std::vector<std::string> csv;
  std::vector<std::vector<int>> paper_ids;
  core::InstanceParams params;
};

// Seeded Fisher-Yates shuffle; returns the new order as population
// indices (order[new position] = old position).
template <typename T>
std::vector<int> Shuffle(std::vector<T>* items, Rng* rng) {
  std::vector<int> order(items->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  std::vector<T> shuffled;
  shuffled.reserve(items->size());
  for (int index : order) shuffled.push_back(std::move((*items)[index]));
  *items = std::move(shuffled);
  return order;
}

// Each workload is one fixed population (the generator's default seed).
// Variant i shuffles its reviewer and paper rows with stream i of --seed,
// which renumbers every entity and so changes tie-breaking, LAP search
// order, SRA streams and which papers the request script touches, while
// the size and structure of the work stay those of the population.
Result<Input> MakeInput(const Plan& plan, const Args& args, int variants) {
  data::SyntheticDblpConfig config;
  Input input;
  input.params.group_size = 3;
  Result<data::RapDataset> dataset = Status::Internal("no dataset");
  switch (plan.kind) {
    case Kind::kConfDb08:
      dataset = args.tiny ? data::GenerateReviewerPool(40, 60, config)
                          : data::GenerateConferenceDataset(
                                data::Area::kDatabases, 2008, config);
      break;
    case Kind::kSparseP400:
      config.num_topics = 100;
      config.topic_density = 0.05;
      input.params.sparse_topics = true;
      dataset = args.tiny ? data::GenerateReviewerPool(60, 120, config)
                          : data::GenerateReviewerPool(150, 400, config);
      break;
    case Kind::kServiceMix:
      dataset = args.tiny ? data::GenerateReviewerPool(40, 30, config)
                          : data::GenerateReviewerPool(189, 146, config);
      break;
  }
  if (!dataset.ok()) return dataset.status();
  for (int i = 0; i < variants; ++i) {
    data::RapDataset variant = *dataset;
    Rng rng = Rng::ForStream(args.seed, static_cast<uint64_t>(i));
    Shuffle(&variant.reviewers, &rng);
    const std::vector<int> order = Shuffle(&variant.papers, &rng);
    std::vector<int> ids(order.size());
    for (size_t id = 0; id < order.size(); ++id) {
      ids[order[id]] = static_cast<int>(id);
    }
    input.csv.push_back(data::DatasetToCsv(variant));
    input.paper_ids.push_back(std::move(ids));
  }
  return input;
}

// Raw CSV bytes to a ready instance, `reps` times; returns the last one.
Result<core::Instance> SetUpInstance(const std::string& csv,
                                     const core::InstanceParams& params,
                                     int reps,
                                     std::vector<double>* parse_ms,
                                     std::vector<double>* build_ms,
                                     std::vector<double>* setup_s) {
  Result<core::Instance> built = Status::Internal("no set-up");
  for (int rep = 0; rep < reps; ++rep) {
    RotateCpu(1);
    Result<data::RapDataset> dataset = Status::Internal("unset");
    const double parse = Timed("data.csv_parse",
                               [&] { dataset = data::DatasetFromCsv(csv); });
    if (!dataset.ok()) return dataset.status();
    const double build = Timed("core.instance_build", [&] {
      built = core::Instance::FromDataset(*dataset, params);
    });
    if (!built.ok()) return built.status();
    parse_ms->push_back(1e3 * parse);
    build_ms->push_back(1e3 * build);
    setup_s->push_back(parse + build);
  }
  return built;
}

// -------------------------------------------------------- layer attribution

// A span's layer is its name up to the first '.'; the program's own spans
// (sdga, sdga_stage, sra, incremental_resolve) belong to core.
std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? "core" : span_name.substr(0, dot);
}

// Self time (duration minus children) per layer inside the subtree rooted
// at span `root`; spans are stored in DFS preorder.
std::map<std::string, double> SelfSecondsByLayer(const obs::Tracer& tracer,
                                                 int root) {
  const std::vector<obs::SpanRecord>& spans = tracer.spans();
  std::map<std::string, double> by_layer;
  int end = root + 1;
  while (end < static_cast<int>(spans.size()) &&
         spans[end].depth > spans[root].depth) {
    ++end;
  }
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (int i = root + 1; i < end; ++i) {
    child_ns[spans[i].parent] += spans[i].duration_ns;
  }
  for (int i = root; i < end; ++i) {
    by_layer[LayerOf(spans[i].name)] +=
        1e-9 * static_cast<double>(spans[i].duration_ns - child_ns[i]);
  }
  return by_layer;
}

double SumSpans(const obs::Tracer& tracer, const std::string& name) {
  double total = 0.0;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == name) {
      total += 1e-9 * static_cast<double>(span.duration_ns);
    }
  }
  return total;
}

int LastSpanNamed(const obs::Tracer& tracer, const std::string& name) {
  const auto& spans = tracer.spans();
  for (int i = static_cast<int>(spans.size()) - 1; i >= 0; --i) {
    if (spans[i].name == name) return i;
  }
  return -1;
}

// ----------------------------------------------------- library read/write

// What the reads and writes of a run measured.
struct ReadWrite {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> jra_ms;
  std::vector<double> apply_ms;
  std::vector<double> resolve_ms;
  int64_t repaired_papers = 0;
};

// Requests name papers by population index, mapped to the variant's ids,
// so every seed reads and writes the same papers under different numbers.

// The papers a read round queries.
int JraPaper(const std::vector<int>& paper_ids, int round, int query) {
  return paper_ids[(round * 4 + query) % paper_ids.size()];
}

// Writes mirror reads: each round sends four mutations of two COIs each
// and then one resolve, so p50 falls among the mutations and p90 among the
// resolves, each inside its own cluster. (With one mutation per resolve,
// p50 would sit on the gap between the two.)
constexpr int kMutationsPerRound = 4;
constexpr int kCoisPerMutation = 2;
constexpr int kCoisPerRound = kMutationsPerRound * kCoisPerMutation;

// The round's (reviewer, paper) COI targets. Target k of a session names
// population paper 7k mod P; 7 is coprime with every workload's paper
// count, so a round's targets are distinct papers and every paper is
// named equally often. Two targets per round (the second line of the first
// and third mutation) are currently assigned pairs, so the resolve repairs
// two papers a round; the rest are unassigned pairs, as most declared COIs
// are. More evictions per round made the sessions' final
// lowest_coverage depend on the renumbering.
std::vector<std::pair<int, int>> CoiTargets(const core::Assignment& a,
                                            const std::vector<int>& paper_ids,
                                            int round) {
  const int P = static_cast<int>(paper_ids.size());
  const int R = a.instance().num_reviewers();
  const int dp = a.instance().group_size();
  std::vector<std::pair<int, int>> targets;
  for (int j = 0; j < kCoisPerRound; ++j) {
    const int k = round * kCoisPerRound + j;
    const int paper = paper_ids[(k * 7) % P];
    const std::vector<int>& group = a.GroupFor(paper);
    int reviewer = 0;
    if (j % (2 * kCoisPerMutation) == 1) {
      reviewer = group[k % dp];
    } else {
      reviewer = (k * 13) % R;
      while (std::find(group.begin(), group.end(), reviewer) != group.end()) {
        reviewer = (reviewer + 1) % R;
      }
    }
    targets.emplace_back(reviewer, paper);
  }
  return targets;
}

// Post-solve traffic through the library, on a private copy of the
// instance: per round four BBA top-3 queries and one evaluation (reads),
// then four COI mutations and a repair-only incremental resolve (writes).
// Each solve repetition serves its share of the rounds on its own copy,
// numbered on from `first_round`.
class LibraryTraffic {
 public:
  LibraryTraffic(const core::Instance& solved_instance,
                 const core::Assignment& solved,
                 const core::InstanceParams& params,
                 std::vector<int> paper_ids, int first_round, Gate* gate)
      : instance_(solved_instance),
        assignment_(&instance_),
        updater_(&instance_, params),
        paper_ids_(std::move(paper_ids)),
        gate_(gate),
        round_(first_round) {
    Status rebound = Status::OK();
    for (int p = 0; p < instance_.num_papers() && rebound.ok(); ++p) {
      for (int r : solved.GroupFor(p)) {
        rebound = assignment_.Add(p, r);
        if (!rebound.ok()) break;
      }
    }
    gate_->Record("rebind assignment", rebound);
    updater_.TrackAssignment(&assignment_);
    resolve_options_.extra["update_refine"] = "none";
  }
  // Holds pointers into itself (assignment → instance, updater → both).
  LibraryTraffic(const LibraryTraffic&) = delete;
  LibraryTraffic& operator=(const LibraryTraffic&) = delete;

  void Run(int rounds, ReadWrite* out) {
    const core::SolverRegistry& registry = core::SolverRegistry::Default();
    for (int i = 0; i < rounds; ++i, ++round_) {
      RotateCpu(1);
      for (int q = 0; q < 4; ++q) {
        const int paper = JraPaper(paper_ids_, round_, q);
        Result<std::vector<core::JraResult>> top = Status::Internal("unset");
        const double s = Timed("core.jra_topk", [&] {
          top = registry.SolveJraTopK("bba", instance_, paper, 3);
        });
        gate_->Record("jra topk", top.ok() ? CheckJraResults(*top, 3)
                                           : top.status());
        out->read_ms.push_back(1e3 * s);
        out->jra_ms.push_back(1e3 * s);
      }
      std::string report;
      const double eval_s = Timed("core.evaluate", [&] {
        report = service::EvaluationReport(instance_, assignment_);
      });
      gate_->Record("evaluate", ExpectFeasibleReport(report));
      out->read_ms.push_back(1e3 * eval_s);

      const std::vector<std::pair<int, int>> targets =
          CoiTargets(assignment_, paper_ids_, round_);
      for (int m = 0; m < kMutationsPerRound; ++m) {
        std::vector<core::InstanceUpdate> updates;
        for (int c = 0; c < kCoisPerMutation; ++c) {
          const auto& [r, p] = targets[m * kCoisPerMutation + c];
          updates.push_back(core::InstanceUpdate::SetCoi(r, p, true));
        }
        Result<core::UpdateReport> applied = Status::Internal("unset");
        const double apply_s = Timed("core.update_apply", [&] {
          applied = updater_.ApplyAll(updates);
        });
        out->apply_ms.push_back(1e3 * apply_s);
        out->write_ms.push_back(1e3 * apply_s);
        gate_->Record("mutate", applied.status());
      }
      Result<core::ResolveReport> resolved = Status::Internal("unset");
      const double resolve_s = Timed("core.incremental_resolve", [&] {
        resolved = core::IncrementalResolve(instance_, &assignment_,
                                            resolve_options_);
      });
      out->resolve_ms.push_back(1e3 * resolve_s);
      out->write_ms.push_back(1e3 * resolve_s);
      gate_->Record("resolve", resolved.ok() ? assignment_.ValidateComplete()
                                             : resolved.status());
      if (resolved.ok()) out->repaired_papers += resolved->repaired_papers;
    }
  }

 private:
  core::Instance instance_;
  core::Assignment assignment_;
  core::InstanceUpdater updater_;
  std::vector<int> paper_ids_;
  Gate* gate_;
  int round_;
  core::SolverRunOptions resolve_options_;
};

// ------------------------------------------------------- registry defaults

// The options a solve gets through the registry: the workload's thread
// count, the sparse kernels on a sparse instance, every other knob at its
// registry default (what `wgrap_cli solve` and the service use).
core::SolverRunOptions RegistryOptions(const Plan& plan,
                                       const core::InstanceParams& params) {
  core::SolverRunOptions options;
  options.extra["threads"] = std::to_string(plan.threads);
  if (params.sparse_topics) options.extra["topics"] = "sparse";
  return options;
}

Result<core::Assignment> SolveSdga(const core::Instance& instance,
                                   const core::SolverRunOptions& options) {
  core::SolverRequest request;
  request.kind = core::SolverRequest::Kind::kSolveCra;
  request.solver = "sdga";
  request.options = options;
  Result<core::SolverResponse> response =
      core::SolverRegistry::Default().Run(request, instance);
  if (!response.ok()) return response.status();
  return std::move(*response->assignment);
}

// The default of `solver`'s knob `knob`, as its registry schema declares it.
std::string RegistryDefault(const std::string& solver,
                            const std::string& knob) {
  const core::SolverDescriptor* descriptor =
      core::SolverRegistry::Default().Find(solver);
  const core::KnobSpec* spec =
      descriptor ? descriptor->FindKnob(knob) : nullptr;
  return spec ? spec->default_value : "";
}

// The registry has no round budget for SRA, so conf_db08 calls RefineSra
// itself, with the stage engine and gain mode of the registry's "sra"
// defaults and the registry's seed. ω and λ defaults are SraOptions' own,
// which the registry also uses.
Result<core::SraOptions> RegistrySraOptions(int threads, int rounds) {
  core::SraOptions options;
  options.num_threads = threads;
  options.max_iterations = rounds;
  options.seed = core::SolverRunOptions().seed;
  const std::string lap = RegistryDefault("sra", "lap");
  if (lap == "mcf") {
    options.backend = core::LapBackend::kMinCostFlow;
  } else if (lap == "hungarian") {
    options.backend = core::LapBackend::kHungarian;
  } else if (lap == "auction") {
    options.backend = core::LapBackend::kAuction;
  } else {
    return Status::Internal("unknown registry lap default '" + lap + "'");
  }
  const std::string gains = RegistryDefault("sra", "gains");
  if (gains == "incremental") {
    options.gains = core::GainMode::kIncremental;
  } else if (gains == "rebuild") {
    options.gains = core::GainMode::kRebuild;
  } else {
    return Status::Internal("unknown registry gains default '" + gains + "'");
  }
  return options;
}

// ------------------------------------------------------------ layer probes

// The one probe every workload runs: the stage-1 profit build and each
// stage engine on the workload's own stage-1 matrix.
struct Probes {
  double gain_build_ms = 0.0;
  double lap_mcf_ms = 0.0;
  double lap_hungarian_ms = 0.0;
  double lap_auction_ms = 0.0;
  int64_t auction_rounds = 0;
  int64_t auction_bids = 0;
  int64_t auction_fallbacks = 0;

  // The probe of the engine `solver` uses at its registry default.
  double DefaultEngineMs(const std::string& solver) const {
    const std::string lap = RegistryDefault(solver, "lap");
    if (lap == "hungarian") return lap_hungarian_ms;
    if (lap == "auction") return lap_auction_ms;
    return lap_mcf_ms;
  }
};

// Sum of the 1e9-scaled stage profits of an agent choice — the integer
// program every stage engine solves, so all three must agree on it.
int64_t ScaledObjective(const Matrix& profit, const std::vector<int>& agent) {
  int64_t total = 0;
  for (int i = 0; i < profit.rows(); ++i) {
    total += la::ScaleTransportProfit(profit(i, agent[i]));
  }
  return total;
}

void ProbeStageLap(const core::Instance& instance, int threads, Gate* gate,
                   Probes* probes) {
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  const int dp = instance.group_size();
  const int stage_cap = (instance.reviewer_workload() + dp - 1) / dp;
  std::vector<int> papers(P);
  for (int p = 0; p < P; ++p) papers[p] = p;
  const std::vector<int> capacity(R, stage_cap);
  ThreadPool pool(threads);
  core::Assignment empty(&instance);
  Matrix profit(P, R, la::kTransportForbidden);
  std::vector<double> build_ms;
  for (int rep = 0; rep < 3; ++rep) {
    build_ms.push_back(1e3 * Timed("core.gain_build", [&] {
      core::GainCache cache(&instance);
      cache.Refresh(empty, &pool);
      cache.AssembleStageProfit(papers, capacity, empty, &pool, &profit);
    }));
  }
  probes->gain_build_ms = Median(build_ms);

  Result<la::TransportationResult> mcf = Status::Internal("unset");
  probes->lap_mcf_ms = 1e3 * Timed("la.stage_lap_mcf", [&] {
    mcf = la::SolveTransportation(profit, capacity);
  });
  gate->Record("stage lap mcf", mcf.status());

  // Hungarian on reviewer columns replicated per unit of stage capacity,
  // quantized to the shared 1e9 grid (as the SDGA stage does).
  std::vector<int> owner;
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < std::min(stage_cap, P); ++c) owner.push_back(r);
  }
  Matrix expanded(P, static_cast<int>(owner.size()));
  for (int i = 0; i < P; ++i) {
    for (int c = 0; c < expanded.cols(); ++c) {
      const double v = profit(i, owner[c]);
      expanded(i, c) = v <= la::kTransportForbidden / 2
                           ? la::kForbiddenProfit
                           : static_cast<double>(la::ScaleTransportProfit(v)) /
                                 la::kTransportProfitScale;
    }
  }
  Result<la::AssignmentResult> hungarian = Status::Internal("unset");
  probes->lap_hungarian_ms = 1e3 * Timed("la.stage_lap_hungarian", [&] {
    hungarian = la::SolveMaxProfitAssignment(expanded);
  });
  gate->Record("stage lap hungarian", hungarian.status());

  la::AuctionOptions auction_options;
  auction_options.pool = &pool;
  Result<la::AuctionResult> auction = Status::Internal("unset");
  probes->lap_auction_ms = 1e3 * Timed("la.stage_lap_auction", [&] {
    auction = la::SolveAuctionTopK(profit, capacity, 0, auction_options);
  });
  if (!auction.ok() &&
      auction.status().code() == StatusCode::kFailedPrecondition) {
    probes->auction_fallbacks = 1;  // SDGA would rerun this stage on mcf
  } else {
    gate->Record("stage lap auction", auction.status());
  }
  if (auction.ok()) {
    probes->auction_rounds = auction->rounds;
    probes->auction_bids = auction->bids;
  }
  if (mcf.ok() && hungarian.ok()) {
    std::vector<int> agent(P);
    for (int i = 0; i < P; ++i) agent[i] = owner[hungarian->row_to_col[i]];
    const int64_t reference = ScaledObjective(profit, mcf->task_to_agent);
    gate->Record("stage engines agree (hungarian)",
                 ScaledObjective(profit, agent) == reference
                     ? Status::OK()
                     : Status::Internal("hungarian optimum differs"));
    if (auction.ok()) {
      gate->Record("stage engines agree (auction)",
                   ScaledObjective(profit, auction->task_to_agent) == reference
                       ? Status::OK()
                       : Status::Internal("auction optimum differs"));
    }
  }
}

// The ideal-assignment upper bound the gate compares a result with; its
// time is core.ideal_assignment_ms.
Result<double> IdealScore(const core::Instance& instance,
                          std::vector<double>* ideal_ms) {
  Result<core::Assignment> ideal = Status::Internal("unset");
  ideal_ms->push_back(1e3 * Timed("core.ideal_assignment", [&] {
    ideal = core::BuildIdealAssignment(instance);
  }));
  if (!ideal.ok()) return ideal.status();
  return ideal->TotalScore();
}

// What one SRA call measured from the outside: the trace callback fires
// once up front and once after every round.
struct SraTiming {
  double seconds = 0.0;
  std::vector<double> round_ms;
  int64_t improving_rounds = 0;
};

Result<core::Assignment> RunSra(const core::Instance& instance,
                                const core::Assignment& initial,
                                core::SraOptions options, SraTiming* timing) {
  double last = 0.0;
  bool first = true;
  options.trace = [&](double elapsed, double) {
    if (!first) timing->round_ms.push_back(1e3 * (elapsed - last));
    first = false;
    last = elapsed;
  };
  options.progress = [&](const core::ProgressFrame& frame) {
    if (frame.round > 0) ++timing->improving_rounds;
  };
  Result<core::Assignment> refined = Status::Internal("unset");
  timing->seconds = Timed("core.sra", [&] {
    refined = core::RefineSra(instance, initial, options);
  });
  return refined;
}

// ------------------------------------------------------------- service API

// One closed-loop client speaking the line protocol to an in-process
// ServiceApi; every command is one checked operation.
class Client {
 public:
  Client(service::ServiceApi* api, Gate* gate) : api_(api), gate_(gate) {}

  std::optional<std::string> Call(const char* span, const std::string& line,
                                  const std::string& payload = "") {
    service::Reply reply;
    Timed(span, [&] { reply = service::HandleCommand(*api_, line, payload); });
    gate_->Record(line.substr(0, line.find(' ')), reply.status);
    if (!reply.status.ok()) return std::nullopt;
    return reply.payload;
  }

  // "job <id>" → id, or -1.
  int64_t Submit(const char* span, const std::string& line) {
    std::optional<std::string> reply = Call(span, line);
    long long id = -1;
    if (!reply || std::sscanf(reply->c_str(), "job %lld", &id) != 1) {
      return -1;
    }
    return id;
  }

  std::optional<std::string> Wait(int64_t job) {
    return Call("service.wait", "wait " + std::to_string(job));
  }

 private:
  service::ServiceApi* api_;
  Gate* gate_;
};

// ------------------------------------------------------------------- runs

struct Outcome {
  Metrics metrics;
  Gate gate;
};

// The untraced run's report: medians over the run's repetitions, read and
// write percentiles over all of its samples.
void AddEndToEndMetrics(const std::vector<double>& setup_s,
                        const std::vector<double>& solve_s,
                        const std::vector<double>& coverage,
                        const std::vector<double>& lowest, const ReadWrite& rw,
                        const Gate& gate, Metrics* m) {
  std::printf("read/write samples: reads=%zu writes=%zu\n", rw.read_ms.size(),
              rw.write_ms.size());
  m->Add("setup_s", Median(setup_s), "s");
  m->Add("solve_s", Median(solve_s), "s");
  m->Add("coverage_score", Mean(coverage), "score");
  m->Add("lowest_coverage", Mean(lowest), "score");
  m->Add("read_p50_ms", Quantile(rw.read_ms, 0.5), "ms");
  m->Add("read_p90_ms", Quantile(rw.read_ms, 0.9), "ms");
  m->Add("write_p50_ms", Quantile(rw.write_ms, 0.5), "ms");
  m->Add("write_p90_ms", Quantile(rw.write_ms, 0.9), "ms");
  m->Add("ok_ratio", gate.ok_ratio(), "ratio");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Everything a traced run reports, all of it from the workload's own path
// except the stage-LAP probe. A layer the workload does not run reads 0.
struct LayerReport {
  std::vector<double> parse_ms, build_ms, open_ms, ideal_ms;
  Probes probes;
  CounterSnapshot before, after;  // around the traced solve or script
  double sdga_s = 0.0;
  double sdga_stage_s = 0.0;
  SraTiming sra;
  ReadWrite library;  // jra, apply and resolve times; repaired papers
  double solve_traced_s = 0.0;
  double solve_untraced_s = 0.0;
  std::map<std::string, double> self_s;  // self time per layer in the solve
  double la_estimate_s = 0.0;
};

// Mean of a histogram's observations between two readings, in ms.
double MeanMs(const HistogramReading& before, const HistogramReading& after) {
  const int64_t count = after.count - before.count;
  return count > 0
             ? 1e3 * (after.sum - before.sum) / static_cast<double>(count)
             : 0.0;
}

void AddLayerMetrics(const LayerReport& r, Metrics* m) {
  const Probes& probes = r.probes;
  auto delta = [](int64_t before, int64_t after) {
    return static_cast<double>(after - before);
  };
  m->Add("data.csv_parse_ms", Median(r.parse_ms), "ms");
  m->Add("core.instance_build_ms", Median(r.build_ms), "ms");
  m->Add("service.open_ms", Median(r.open_ms), "ms");
  m->Add("core.gain_build_ms", probes.gain_build_ms, "ms");
  m->Add("core.gain_patched_cells", delta(r.before.patched, r.after.patched),
         "count");
  m->Add("core.gain_rebuilt_cells", delta(r.before.rebuilt, r.after.rebuilt),
         "count");
  m->Add("core.gain_full_builds",
         delta(r.before.full_builds, r.after.full_builds), "count");
  m->Add("la.stage_lap_mcf_ms", probes.lap_mcf_ms, "ms");
  m->Add("la.stage_lap_hungarian_ms", probes.lap_hungarian_ms, "ms");
  m->Add("la.stage_lap_auction_ms", probes.lap_auction_ms, "ms");
  m->Add("la.auction_rounds", static_cast<double>(probes.auction_rounds),
         "count");
  m->Add("la.auction_bids", static_cast<double>(probes.auction_bids), "count");
  m->Add("la.auction_fallbacks",
         static_cast<double>(probes.auction_fallbacks) +
             delta(r.before.fallbacks, r.after.fallbacks),
         "count");
  m->Add("core.sdga_s", r.sdga_s, "s");
  m->Add("core.sdga_stage_s", r.sdga_stage_s, "s");
  const double rounds = static_cast<double>(r.sra.round_ms.size());
  m->Add("core.sra_s", r.sra.seconds, "s");
  m->Add("core.sra_round_ms", Median(r.sra.round_ms), "ms");
  m->Add("core.sra_rounds", rounds, "count");
  m->Add("core.sra_accept_ratio",
         rounds > 0 ? static_cast<double>(r.sra.improving_rounds) / rounds
                    : 0.0,
         "ratio");
  m->Add("core.jra_topk_ms", Median(r.library.jra_ms), "ms");
  m->Add("core.ideal_assignment_ms", Median(r.ideal_ms), "ms");
  m->Add("core.update_apply_ms", Median(r.library.apply_ms), "ms");
  m->Add("core.incremental_resolve_ms", Median(r.library.resolve_ms), "ms");
  m->Add("core.update_repaired_papers",
         static_cast<double>(r.library.repaired_papers), "count");
  m->Add("service.api_evaluate_ms",
         MeanMs(r.before.api_evaluate, r.after.api_evaluate), "ms");
  m->Add("service.queue_wait_ms",
         MeanMs(r.before.queue_wait, r.after.queue_wait), "ms");
  m->Add("service.cas_conflicts",
         delta(r.before.cas_conflicts, r.after.cas_conflicts), "count");
  m->Add("service.shed", delta(r.before.shed, r.after.shed), "count");
  m->Add("obs.trace_overhead_s", r.solve_traced_s - r.solve_untraced_s, "s");

  std::printf("self-time share of solve_s (%.6f s):", r.solve_traced_s);
  for (const auto& [layer, seconds] : r.self_s) {
    std::printf(" %s=%.4f", layer.c_str(), seconds / r.solve_traced_s);
  }
  std::printf(" | la (stage-LAP estimate, inside core)=%.4f\n",
              r.la_estimate_s / r.solve_traced_s);
  auto share = [&](const char* layer) {
    auto it = r.self_s.find(layer);
    return it == r.self_s.end() ? 0.0 : it->second / r.solve_traced_s;
  };
  m->Add("share.core", share("core"), "ratio");
  m->Add("share.service", share("service"), "ratio");
  m->Add("share.la_est", r.la_estimate_s / r.solve_traced_s, "ratio");
}

// conf_db08 and sparse_p400: CSV → instance set-up, SDGA (+SRA), then the
// library read/write traffic.
Outcome RunConference(const Plan& plan, const Input& input, bool traced,
                      obs::Tracer* tracer) {
  Outcome out;
  const bool with_sra = plan.kind == Kind::kConfDb08;
  std::optional<obs::ScopedTracerAttach> attach;
  if (traced) attach.emplace(tracer);

  // Repetition i sets up, solves and then serves its share of the library
  // traffic, so each phase's samples spread over the whole run instead of
  // one stretch of it. Repetition i uses variant i, so one run's medians
  // span several renumberings. A traced run times one untraced and then
  // one traced solve of variant 0; their difference is the tracing
  // overhead.
  const int reps = traced ? 2 : plan.solve_reps;
  auto share = [reps](int total, int rep) {
    return total * (rep + 1) / reps - total * rep / reps;
  };
  const core::SolverRunOptions solve_options =
      RegistryOptions(plan, input.params);
  Result<core::SraOptions> sra_options =
      RegistrySraOptions(plan.threads, plan.sra_rounds);
  out.gate.Record("sra options", sra_options.status());
  if (!sra_options.ok()) return out;
  std::vector<core::Instance> instances;
  instances.reserve(reps);  // assignments hold pointers into this vector
  ReadWrite rw;
  std::vector<double> setup_s, parse_ms, build_ms, ideal_ms;
  std::vector<double> solve_s, sdga_s, sra_s, coverage, sdga_coverage, lowest;
  SraTiming sra_timing;
  std::optional<core::Assignment> final_assignment;
  double ideal_score = 0.0;
  CounterSnapshot before_traced;
  int solve_root = -1;
  double sdga_stage_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const int variant = traced ? 0 : rep;
    Result<core::Instance> built = SetUpInstance(
        input.csv[variant], input.params,
        std::max(1, share(plan.setup_reps, rep)), &parse_ms, &build_ms,
        &setup_s);
    out.gate.Record("set-up", built.status());
    if (!built.ok()) return out;
    instances.push_back(std::move(*built));
    const core::Instance& instance = instances.back();
    Result<double> ideal = IdealScore(instance, &ideal_ms);
    out.gate.Record("ideal assignment", ideal.status());
    if (!ideal.ok()) return out;
    ideal_score = *ideal;

    const bool trace_this = traced && rep == reps - 1;
    std::optional<obs::ScopedTracerAttach> detach;
    if (traced && !trace_this) detach.emplace(nullptr);
    RotateCpu(plan.threads);
    if (rep == 0) {
      // Warm-up (untimed): one SDGA, which runs every code path of the
      // solve.
      out.gate.Record("warm-up sdga",
                      SolveSdga(instance, solve_options).status());
    }
    if (trace_this) before_traced = CounterSnapshot();
    const double stage_before =
        trace_this ? SumSpans(*tracer, "sdga_stage") : 0.0;
    std::optional<obs::ScopedSpan> root;
    if (trace_this) root.emplace("bench.solve");
    const Clock::time_point start = Clock::now();
    Result<core::Assignment> sdga = Status::Internal("unset");
    const double sdga_seconds = Timed("core.sdga", [&] {
      sdga = SolveSdga(instance, solve_options);
    });
    std::optional<core::Assignment> result;
    if (with_sra && sdga.ok()) {
      SraTiming timing;
      Result<core::Assignment> sra =
          RunSra(instance, *sdga, *sra_options, &timing);
      if (sra.ok()) result.emplace(std::move(*sra));
      sra_s.push_back(timing.seconds);
      sra_timing = timing;
      out.gate.Record("sra", sra.status());
    }
    solve_s.push_back(SecondsSince(start));
    sdga_s.push_back(sdga_seconds);
    root.reset();
    if (trace_this) {
      solve_root = LastSpanNamed(*tracer, "bench.solve");
      sdga_stage_s = SumSpans(*tracer, "sdga_stage") - stage_before;
    }

    out.gate.Record("sdga", sdga.ok() ? CheckCra(instance, *sdga,
                                                 sdga->TotalScore(),
                                                 ideal_score)
                                      : sdga.status());
    if (!sdga.ok()) return out;
    sdga_coverage.push_back(NormalizedScore(*sdga));
    if (with_sra) {
      if (!result) return out;
      // SRA never returns worse than its start, so >= would always pass.
      // Every round of the fixed budget improved on every seed measured,
      // so the gate asks for a strict gain: an SRA that stopped refining
      // fails here.
      Status status =
          CheckCra(instance, *result, result->TotalScore(), ideal_score);
      if (status.ok() &&
          !(NormalizedScore(*result) > sdga_coverage.back())) {
        status = Status::Internal("SRA did not improve on its SDGA start");
      }
      out.gate.Record("sra result", status);
    } else {
      result.emplace(std::move(*sdga));
    }
    coverage.push_back(NormalizedScore(*result));
    lowest.push_back(core::LowestCoverage(*result));
    LibraryTraffic(instance, *result, input.params, input.paper_ids[variant],
                   plan.tail_rounds * rep / reps, &out.gate)
        .Run(share(plan.tail_rounds, rep), &rw);
    final_assignment.emplace(std::move(*result));
  }
  const CounterSnapshot after_solve;
  const core::Instance& instance = instances.back();
  out.gate.self_check_passed =
      GateRejectsCorruption(instance, *final_assignment, ideal_score);

  std::printf("solve_s per rep:");
  for (double v : solve_s) std::printf(" %.4f", v);
  std::printf("\nsolve reps=%zu sdga median=%.6f s", solve_s.size(),
              Median(sdga_s));
  if (with_sra) {
    std::printf(" sra median=%.6f s rounds=%zu improving=%lld",
                Median(sra_s), sra_timing.round_ms.size(),
                static_cast<long long>(sra_timing.improving_rounds));
  }
  std::printf("\ncoverage mean=%.17g lowest mean=%.17g\n",
              Mean(coverage), Mean(lowest));
  if (with_sra) {
    std::printf("sdga coverage mean=%.17g; sra gain=%.6f%%\n",
                Mean(sdga_coverage),
                100.0 * (Mean(coverage) / Mean(sdga_coverage) - 1.0));
  }

  Metrics& m = out.metrics;
  if (!traced) {
    AddEndToEndMetrics(setup_s, solve_s, coverage, lowest, rw, out.gate, &m);
    return out;
  }

  // Per-layer metrics: the traced solve, the run's set-ups and library
  // traffic, and the stage-LAP probe. No service layer runs here.
  LayerReport report;
  report.parse_ms = parse_ms;
  report.build_ms = build_ms;
  report.ideal_ms = ideal_ms;
  report.before = before_traced;
  report.after = after_solve;
  report.sdga_s = sdga_s.back();
  report.sdga_stage_s = sdga_stage_s;
  report.sra = sra_timing;
  report.library = rw;
  report.solve_untraced_s = solve_s.front();
  report.solve_traced_s = solve_s.back();
  if (solve_root >= 0) report.self_s = SelfSecondsByLayer(*tracer, solve_root);
  ProbeStageLap(instance, plan.threads, &out.gate, &report.probes);
  // Stage LAPs on the solve path: δp SDGA stages plus one completion per
  // SRA round, each priced at the stage-1 probe of the engine the solve
  // used.
  report.la_estimate_s =
      1e-3 * (instance.group_size() * report.probes.DefaultEngineMs("sdga") +
              static_cast<double>(sra_timing.round_ms.size()) *
                  report.probes.DefaultEngineMs("sra"));
  AddLayerMetrics(report, &m);
  return out;
}

// service_mix: set-up is `open` plus a warm `submit solve sdga`; each round
// then sends four concurrent BBA top-3 queries and waits for them, one
// `evaluate`, four `mutate` requests and one `resolve refine=none` plus its
// wait. Repetition i runs the script on its own session of variant i,
// opened by one of the last set-ups.
Outcome RunServiceMix(const Plan& plan, const Input& input, bool traced,
                      obs::Tracer* tracer) {
  Outcome out;
  std::optional<obs::ScopedTracerAttach> attach;
  if (traced) attach.emplace(tracer);
  service::ServiceOptions options;
  options.job_workers = 1;
  options.max_results = 256;
  service::ServiceApi api(options);
  Client client(&api, &out.gate);

  // A traced run times one untraced and one traced repetition of the same
  // variant; their difference is the tracing overhead.
  const int reps = traced ? 2 : plan.script_reps;
  const int kept_from = plan.setup_reps - reps;
  auto variant_of = [&](int rep) { return traced ? 0 : rep; };
  std::vector<double> setup_s, open_ms;
  std::vector<std::string> sessions;  // one per repetition
  std::string warm;                   // the last session not kept
  for (int j = 0; j < plan.setup_reps; ++j) {
    const bool kept = j >= kept_from;
    const std::string name =
        kept ? "rep" + std::to_string(j - kept_from) : "s" + std::to_string(j);
    const int variant = kept ? variant_of(j - kept_from) : 0;
    RotateCpu(1);
    const Clock::time_point start = Clock::now();
    client.Call("service.open", "open " + name + " dp=3", input.csv[variant]);
    open_ms.push_back(1e3 * SecondsSince(start));
    const int64_t job = client.Submit(
        "service.submit", "submit " + name + " solve sdga threads=" +
                              std::to_string(plan.threads));
    std::optional<std::string> solved = client.Wait(job);
    setup_s.push_back(SecondsSince(start));
    if (!solved) return out;
    if (kept) {
      sessions.push_back(name);
    } else {
      if (!warm.empty()) client.Call("service.close", "close " + warm);
      warm = name;
    }
  }

  ReadWrite rw;
  ReadWrite worker;  // job-body seconds of the traced repetition's jobs
  // The body time the job worker measured for `job`, in ms.
  auto job_ms = [&](int64_t job) {
    Result<service::JobResult> result = api.GetJobResult(job);
    return result.ok() ? 1e3 * result->seconds : 0.0;
  };
  // One round of the script; `record` false is the untimed warm-up.
  auto run_round = [&](const std::string& session,
                       const std::vector<int>& paper_ids, int round,
                       bool record, bool collect_jobs) {
    std::vector<std::pair<int64_t, Clock::time_point>> jobs;
    Result<service::SessionSnapshot> snapshot = api.store().Get(session);
    if (!snapshot.ok()) {
      out.gate.Record("snapshot", snapshot.status());
      return;
    }
    for (int q = 0; q < 4; ++q) {
      const Clock::time_point start = Clock::now();
      jobs.emplace_back(
          client.Submit("service.submit",
                        "submit " + session + " jra bba topk=3 paper=" +
                            std::to_string(JraPaper(paper_ids, round, q))),
          start);
    }
    for (const auto& [job, start] : jobs) {
      std::optional<std::string> reply = client.Wait(job);
      if (record) rw.read_ms.push_back(1e3 * SecondsSince(start));
      out.gate.Record("jra report", reply ? CheckJraReport(*reply, 3)
                                          : Status::Internal("no reply"));
      if (collect_jobs) worker.jra_ms.push_back(job_ms(job));
    }
    const Clock::time_point eval_start = Clock::now();
    std::optional<std::string> evaluated =
        client.Call("service.evaluate", "evaluate " + session);
    if (record) rw.read_ms.push_back(1e3 * SecondsSince(eval_start));
    out.gate.Record("evaluate report",
                    evaluated ? ExpectFeasibleReport(*evaluated)
                              : Status::Internal("no reply"));

    const std::vector<std::pair<int, int>> targets =
        CoiTargets(*snapshot->assignment, paper_ids, round);
    for (int m = 0; m < kMutationsPerRound; ++m) {
      std::string script;
      for (int c = 0; c < kCoisPerMutation; ++c) {
        const auto& [r, p] = targets[m * kCoisPerMutation + c];
        script += "set_coi " + std::to_string(r) + " " + std::to_string(p) +
                  " on\n";
      }
      const Clock::time_point start = Clock::now();
      client.Call("service.mutate", "mutate " + session, script);
      if (record) rw.write_ms.push_back(1e3 * SecondsSince(start));
    }
    const Clock::time_point resolve_start = Clock::now();
    const int64_t job =
        client.Submit("service.resolve", "resolve " + session + " refine=none");
    std::optional<std::string> resolved = client.Wait(job);
    if (record) rw.write_ms.push_back(1e3 * SecondsSince(resolve_start));
    out.gate.Record("resolve report",
                    resolved ? ExpectFeasibleReport(*resolved)
                             : Status::Internal("no reply"));
    if (collect_jobs) worker.resolve_ms.push_back(job_ms(job));
  };

  run_round(warm, input.paper_ids[0], 0, false, false);  // warm-up
  client.Call("service.close", "close " + warm);
  std::vector<double> script_s;
  CounterSnapshot before_traced;
  int script_root = -1;
  for (int rep = 0; rep < reps; ++rep) {
    const bool trace_this = traced && rep == reps - 1;
    std::optional<obs::ScopedTracerAttach> detach;
    if (traced && !trace_this) detach.emplace(nullptr);
    if (trace_this) before_traced = CounterSnapshot();
    std::optional<obs::ScopedSpan> root;
    if (trace_this) root.emplace("bench.solve");
    const std::vector<int>& paper_ids = input.paper_ids[variant_of(rep)];
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < plan.script_rounds; ++round) {
      RotateCpu(1);
      run_round(sessions[rep], paper_ids, round, true, trace_this);
    }
    script_s.push_back(SecondsSince(start));
    root.reset();
    if (trace_this) script_root = LastSpanNamed(*tracer, "bench.solve");
  }
  const CounterSnapshot after_script;

  // Every session's final assignment must pass the gate, with the score
  // the session itself keeps as the reported one.
  std::vector<double> coverage, lowest, ideal_ms;
  std::optional<service::SessionSnapshot> final_snapshot;
  double ideal_score = 0.0;
  for (const std::string& session : sessions) {
    Result<service::SessionSnapshot> snapshot = api.store().Get(session);
    out.gate.Record("final snapshot", snapshot.status());
    if (!snapshot.ok()) return out;
    Result<double> ideal = IdealScore(*snapshot->instance, &ideal_ms);
    out.gate.Record("ideal assignment", ideal.status());
    if (!ideal.ok()) return out;
    ideal_score = *ideal;
    const core::Assignment& assignment = *snapshot->assignment;
    out.gate.Record("final assignment",
                    CheckCra(*snapshot->instance, assignment,
                             assignment.TotalScore(), ideal_score));
    coverage.push_back(NormalizedScore(assignment));
    lowest.push_back(core::LowestCoverage(assignment));
    final_snapshot.emplace(std::move(*snapshot));
  }
  const core::Instance& instance = *final_snapshot->instance;
  out.gate.self_check_passed = GateRejectsCorruption(
      instance, *final_snapshot->assignment, ideal_score);
  std::printf("script_s per rep:");
  for (double v : script_s) std::printf(" %.4f", v);
  std::printf("\nscript reps=%zu rounds/rep=%d median=%.6f s\n",
              script_s.size(), plan.script_rounds, Median(script_s));
  std::printf("coverage mean=%.17g lowest mean=%.17g\n", Mean(coverage),
              Mean(lowest));

  Metrics& m = out.metrics;
  if (!traced) {
    AddEndToEndMetrics(setup_s, script_s, coverage, lowest, rw, out.gate, &m);
    return out;
  }

  // Per-layer metrics: the traced script, the set-ups, the service's own
  // instruments, the job worker's body times and the stage-LAP probe.
  // Parsing and the instance build run inside `open`, the ApplyAll calls
  // inside `mutate`, and no SDGA or SRA runs after set-up, so those read 0.
  LayerReport report;
  report.open_ms = open_ms;
  report.ideal_ms = ideal_ms;
  report.before = before_traced;
  report.after = after_script;
  report.library = worker;
  report.library.repaired_papers = static_cast<int64_t>(
      after_script.repaired.sum - before_traced.repaired.sum);
  report.solve_untraced_s = script_s.front();
  report.solve_traced_s = script_s.back();
  if (script_root >= 0) {
    report.self_s = SelfSecondsByLayer(*tracer, script_root);
  }
  // No stage LAP runs in the request script: refine=none resolves by swap
  // repair, and the warm solve belongs to set-up.
  report.la_estimate_s = 0.0;
  ProbeStageLap(instance, plan.threads, &out.gate, &report.probes);
  AddLayerMetrics(report, &m);
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Result<Plan> plan = MakePlan(args);
  if (!plan.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  PrintProfile(args);
  Result<Input> input = MakeInput(
      *plan, args,
      plan->kind == Kind::kServiceMix ? plan->script_reps : plan->solve_reps);
  if (!input.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", input.status().ToString().c_str());
    return 1;
  }
  obs::Tracer tracer;
  Outcome outcome =
      plan->kind == Kind::kServiceMix
          ? RunServiceMix(*plan, *input, args.trace, &tracer)
          : RunConference(*plan, *input, args.trace, &tracer);
  if (args.trace && !args.trace_out.empty()) {
    std::ofstream file(args.trace_out, std::ios::binary);
    file << obs::TraceToChromeJson(tracer);
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                args.trace_out.c_str());
  }
  std::printf("metrics:\n");
  outcome.metrics.PrintTable();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.gate.ok() ? "true" : "false",
              static_cast<long long>(
                  std::max<int64_t>(1, outcome.gate.attempted)),
              static_cast<long long>(outcome.gate.failed),
              outcome.metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace wgrap::perfbench

int main(int argc, char** argv) { return wgrap::perfbench::Main(argc, argv); }
