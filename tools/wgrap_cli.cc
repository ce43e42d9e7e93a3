// wgrap command-line tool: dataset generation, conference solving, journal
// (JRA) queries, evaluation and case studies over the CSV formats of
// data/io.h — the workflow a program chair would actually run.
//
// All solving dispatches through the wgrap::core::SolverRegistry, so any
// solver registered at startup is immediately usable via --algo; run
// `wgrap_cli solvers` for the live menu.
//
// Solver knobs are flags by one rule: registry knob `a_b` is `--a-b`
// (`wgrap_cli solvers --verbose` lists each solver's knobs). solve, jra
// and update forward every such flag; a knob the chosen solver (or, for
// update, IncrementalResolve) does not declare fails with
// InvalidArgument. The knobs shown below are examples, not the full list.
//
//   wgrap_cli solvers   [--verbose]   (--verbose appends each solver's
//                       declared knob schema — the same payload the
//                       service's `solvers verbose` command returns)
//   wgrap_cli generate  --area DB --year 2008 [--density 0.1] --out d.csv
//   wgrap_cli generate  --pool 300 --papers 50 --out pool.csv
//   wgrap_cli solve     --dataset d.csv --dp 3 [--dr N] [--algo sdga-sra]
//                       [--scoring c|cR|cP|cD] [--budget secs] [--seed S]
//                       [--threads N] [--sra-omega W] [--sra-lambda L]
//                       [--trace spans.json] [--verbose]
//                       [--refine initial.csv] --out a.csv
//     (--trace records the solver's span tree to a chrome://tracing JSON
//      file; --verbose prints the dispatched kernel backend (avx2/scalar),
//      the number of heavy (dense-kernel) topic columns, the topic kernel
//      the instance picked from them (dense or csr) and solver
//      telemetry counters to stderr — both leave stdout
//      byte-identical to an uninstrumented run, which CI asserts)
//     (--refine runs the algo's refine-from-initial hook — sra or ls —
//      on an existing assignment instead of solving from scratch)
//     (--algo ilp takes no knobs: one sequential demand-dp JV solve, no
//      --threads)
//     (--lap, on sdga and sra, and --gains, on sra, take only hungarian
//      and incremental, the one stage pipeline every SDGA/SRA solve runs;
//      any other value, like a knob the solver does not take, exits 2
//      naming the knob. --algo ls takes no knobs)
//   wgrap_cli jra       --dataset d.csv --paper 0 --dp 3 [--topk 5]
//                       [--algo bba]
//                       [--bba-bounding on|off] [--bba-gain-branching on|off]
//   wgrap_cli evaluate  --dataset d.csv --assignment a.csv --dp 3 [--dr N]
//   wgrap_cli casestudy --dataset d.csv --assignment a.csv --paper 0 --dp 3
//                       [--top-topics 5]
//     (--top-topics is how many of the paper's topics the table shows. A
//      paper id outside the dataset exits 1 with OutOfRange, as jra does)
//   wgrap_cli update    --dataset d.csv --assignment a.csv --mutations m.txt
//                       --dp 3 [--dr N] [--scoring c|cR|cP|cD]
//                       [--refine sra|ls|none]
//                       [--seed S] [--budget secs] [--threads N]
//                       [...any sdga-sra knob]
//                       [--mode patch|rebuild] [--cold] [--out a2.csv]
//     (applies a mutation script — see core/update.h ParseMutationScript
//      for the line grammar — to the instance and incrementally re-solves
//      from the surviving assignment; --refine is the alias of knob
//      update_refine; the sdga-sra knobs go with --refine sra only, and
//      with ls or none exit 2; --cold also runs a cold solve for
//      comparison, --mode rebuild cross-checks the patch path by
//      rebuilding the instance from scratch after the mutations)
//   wgrap_cli serve     [--port P] [--jobs W] [--results M]
//                       [--max-queue D] [--max-conns C]
//                       [--read-timeout S] [--max-payload BYTES]
//     (the WGRAP service: named sessions, async solver jobs, incremental
//      mutations — the line protocol of service/protocol.h on stdin/stdout,
//      or on 127.0.0.1:P with --port; --port 0 picks an ephemeral port,
//      printed to stderr. Solve/evaluate/update responses are rendered by
//      the same service/reports.h formatters the subcommands below print
//      with, so they are byte-identical to one-shot CLI output — CI diffs
//      them. Degradation knobs: --max-queue sheds submits past D queued
//      jobs with err Unavailable, --max-conns caps concurrent TCP
//      connections, --read-timeout drops connections idle past S seconds,
//      --max-payload rejects larger `<<N` frames.)
//   wgrap_cli watch     --port P --job N [--retries R]
//     (line-protocol client: connects to a `serve --port P` process,
//      streams job N's progress frames to stdout as they arrive, then the
//      final report — the interactive face of the protocol's `watch`.
//      Transient failures — connect refused, connection dropped mid-stream
//      — are retried up to R times (default 5) with jittered exponential
//      backoff; on reconnect the server replays the job's frames from 0
//      and already-printed ones are skipped, so the output stream stays
//      identical to an uninterrupted watch. err replies are not retried.)
//
// Each subcommand takes only the flags shown for it (solve, jra and update
// also every knob flag); any other flag exits 2 naming it, before any
// work. Numeric flags read the one grammar of common/string_util.h (whole
// base-10 tokens; --seed and --max-payload unsigned; --budget seconds >= 0,
// 0 = unlimited); a bad value exits 2 naming the flag.
//
// Every instance picks its topic kernel (dense or CSR, bit-identical
// output) from its data (core/instance.h); the environment variable
// WGRAP_SPARSE_TOPICS=0|1 forces it for tests. `--topics` on generate is
// the topic count T.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/api.h"
#include "service/protocol.h"
#include "service/reports.h"
#include "service/tcp.h"
#include "simd/dispatch.h"
#include "wgrap.h"

namespace {

using namespace wgrap;

// --- tiny flag parser ------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  // The numeric getters are strict (common/string_util.h): a malformed
  // value exits 2 naming the flag instead of silently meaning 0
  // ("--budget abc" is not "unlimited").
  int GetInt(const std::string& name, int fallback) const {
    return Get(name, fallback, ParseInt, "integer");
  }

  double GetDouble(const std::string& name, double fallback) const {
    return Get(name, fallback, ParseDouble, "number");
  }

  uint64_t GetUint64(const std::string& name, uint64_t fallback) const {
    return Get(name, fallback, ParseUint64, "unsigned integer");
  }

  double GetBudget() const {
    return Get("budget", 0.0, core::ParseTimeLimit, "number");
  }

  // Unsigned, and at most int64's max, the type that holds a byte count.
  int64_t GetByteCount(const std::string& name, int64_t fallback) const {
    const uint64_t bytes = Get(name, static_cast<uint64_t>(fallback),
                               ParseUint64, "byte count");
    if (bytes > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      Invalid(name, "byte count");
    }
    return static_cast<int64_t>(bytes);
  }

  // --port, when given, must be in [min_port, 65535]: any other value
  // exits 2 naming the flag instead of wrapping through uint16_t.
  int GetPort(int fallback, int min_port) const {
    const int port = GetInt("port", fallback);
    if (values_.count("port") != 0 && (port < min_port || port > 65535)) {
      Invalid("port", "port");
    }
    return port;
  }

  // Exits 2 naming the first flag outside `known`: a flag the subcommand
  // does not read is a typo or a misplaced option, never silently ignored.
  void RejectUnknown(const std::string& command,
                     const std::vector<std::string>& known) const {
    for (const auto& [name, value] : values_) {
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        std::fprintf(stderr, "%s: unknown flag --%s\n", command.c_str(),
                     name.c_str());
        std::exit(2);
      }
    }
  }

  std::string Require(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  template <typename T>
  T Get(const std::string& name, T fallback,
        bool (*parse)(std::string_view, T*), const char* what) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    T value = fallback;
    if (!parse(it->second, &value)) Invalid(name, what);
    return value;
  }

  [[noreturn]] void Invalid(const std::string& name, const char* what) const {
    std::fprintf(stderr, "--%s: invalid %s '%s'\n", name.c_str(), what,
                 GetString(name).c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

// Every knob flag, keyed by flag name, by the one naming rule: knob `a_b`
// is flag `--a-b`, for every knob a registered solver or
// IncrementalResolve declares.
std::map<std::string, std::string> KnobFlagNames() {
  std::map<std::string, std::string> names;
  auto take = [&](const core::KnobSpec& spec) {
    std::string flag = spec.name;
    std::replace(flag.begin(), flag.end(), '_', '-');
    names[flag] = spec.name;
  };
  for (const core::SolverDescriptor* solver :
       core::SolverRegistry::Default().List()) {
    for (const core::KnobSpec& spec : solver->knobs) take(spec);
  }
  for (const core::KnobSpec& spec : core::IncrementalResolveKnobSpecs()) {
    take(spec);
  }
  return names;
}

// The solver knobs named on the command line. The registry rejects a knob
// the chosen solver does not take, so no subcommand keeps its own list.
std::map<std::string, std::string> KnobFlags(const Flags& flags) {
  std::map<std::string, std::string> knobs;
  for (const auto& [flag, knob] : KnobFlagNames()) {
    const std::string value = flags.GetString(flag, "");
    if (!value.empty()) knobs[knob] = value;
  }
  return knobs;
}

[[noreturn]] void Die(const Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

// Unwraps a parsed instance parameter; a bad spelling exits 2 with the
// parser's message.
template <typename T>
T ParamOrDie(Result<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().message().c_str());
    std::exit(2);
  }
  return *value;
}

// Decodes the knob flags against `algo`'s schema the way the solve will,
// so a knob it rejects (`--lap mcf`) exits 2 naming the knob. An unknown
// `algo` is left to the registry's own error.
void CheckKnobsOrDie(const std::string& algo,
                     const core::SolverRunOptions& options) {
  const core::SolverDescriptor* solver =
      core::SolverRegistry::Default().Find(algo);
  if (solver != nullptr) {
    ParamOrDie(core::DecodeKnobs(algo, solver->knobs, options));
  }
}

core::ScoringFunction ParseScoring(const Flags& flags) {
  return ParamOrDie(
      core::ParseScoringFunction(flags.GetString("scoring", "c")));
}

data::RapDataset LoadDatasetOrDie(const std::string& path) {
  auto dataset = data::LoadDataset(path);
  if (!dataset.ok()) Die(dataset.status(), "load dataset");
  return std::move(dataset).value();
}

core::Instance MakeInstanceOrDie(const data::RapDataset& dataset,
                                 const Flags& flags) {
  core::InstanceParams params;
  params.group_size = flags.GetInt("dp", 3);
  params.reviewer_workload = flags.GetInt("dr", 0);
  params.scoring = ParseScoring(flags);
  auto instance = core::Instance::FromDataset(dataset, params);
  if (!instance.ok()) Die(instance.status(), "build instance");
  return std::move(instance).value();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  file << content;
}

core::Assignment LoadAssignmentOrDie(const core::Instance& instance,
                                     const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::string csv((std::istreambuf_iterator<char>(file)),
                  std::istreambuf_iterator<char>());
  auto pairs = data::AssignmentPairsFromCsv(csv);
  if (!pairs.ok()) Die(pairs.status(), "parse assignment");
  auto assignment = core::Assignment::FromPairs(&instance, *pairs);
  if (!assignment.ok()) Die(assignment.status(), "apply assignment pair");
  return std::move(assignment).value();
}

// --- subcommands -----------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  data::SyntheticDblpConfig config;
  config.seed = flags.GetUint64("seed", config.seed);
  config.num_topics = flags.GetInt("topics", 30);
  config.topic_density = flags.GetDouble("density", config.topic_density);
  Result<data::RapDataset> dataset = Status::Internal("unset");
  if (flags.GetInt("pool", 0) > 0) {
    dataset = data::GenerateReviewerPool(flags.GetInt("pool", 0),
                                         flags.GetInt("papers", 0), config);
  } else {
    const std::string area_name = flags.Require("area");
    data::Area area;
    if (area_name == "DM") {
      area = data::Area::kDataMining;
    } else if (area_name == "DB") {
      area = data::Area::kDatabases;
    } else if (area_name == "T") {
      area = data::Area::kTheory;
    } else {
      std::fprintf(stderr, "unknown area '%s' (use DM, DB, T)\n",
                   area_name.c_str());
      return 2;
    }
    dataset = data::GenerateConferenceDataset(area, flags.GetInt("year", 2008),
                                              config);
  }
  if (!dataset.ok()) Die(dataset.status(), "generate");
  const std::string out = flags.Require("out");
  Status st = data::SaveDataset(*dataset, out);
  if (!st.ok()) Die(st, "save");
  std::printf("wrote %d reviewers, %d papers, T=%d to %s\n",
              dataset->num_reviewers(), dataset->num_papers(),
              dataset->num_topics, out.c_str());
  // Achieved sparsity, so density sweeps can see what materialized
  // (salient-topic profiles are sparse even without --density).
  const data::TopicDensityReport density = data::MeasureTopicDensity(*dataset);
  std::printf("avg nnz/row: reviewers %.1f/%d, papers %.1f/%d\n",
              density.reviewer_avg_nnz, density.num_topics,
              density.paper_avg_nnz, density.num_topics);
  return 0;
}

int CmdSolvers(const Flags& flags) {
  const bool verbose = !flags.GetString("verbose", "").empty();
  std::printf("%s",
              service::SolversReport(core::SolverRegistry::Default(), verbose)
                  .c_str());
  return 0;
}

int CmdSolve(const Flags& flags) {
  const data::RapDataset dataset = LoadDatasetOrDie(flags.Require("dataset"));
  core::Instance instance = MakeInstanceOrDie(dataset, flags);
  // With --refine the sensible default is the paper's refiner, not the
  // full sdga-sra pipeline (which has no refine hook).
  const std::string refine_path = flags.GetString("refine", "");
  const std::string algo =
      flags.GetString("algo", refine_path.empty() ? "sdga-sra" : "sra");

  // No default budget: constructive solvers (greedy, brgg, sm, sdga) abort
  // with ResourceExhausted when a limit expires, so an implicit cap would
  // turn slow-but-finishing runs into failures. sdga-sra/sdga-ls terminate
  // on their own convergence criteria; --budget caps their refinement.
  core::SolverRunOptions options;
  options.time_limit_seconds = flags.GetBudget();
  options.seed = flags.GetUint64("seed", 20150531);
  // Results are bit-identical for any --threads value at a fixed --seed.
  options.extra = KnobFlags(flags);
  const auto& registry = core::SolverRegistry::Default();
  CheckKnobsOrDie(algo, options);
  Result<core::Assignment> assignment = Status::Internal("unset");
  const std::string trace_path = flags.GetString("trace", "");
  obs::Tracer tracer;
  {
    // Attach only for the solve itself, so the span tree is exactly the
    // solver's — never report rendering or file IO.
    std::optional<obs::ScopedTracerAttach> attach;
    if (!trace_path.empty()) attach.emplace(&tracer);
    if (!refine_path.empty()) {
      // Refine-from-initial: load the assignment and dispatch through the
      // registry's refine hook (the refiner validates completeness).
      core::Assignment initial = LoadAssignmentOrDie(instance, refine_path);
      assignment = registry.RefineCra(algo, instance, initial, options);
    } else {
      assignment = registry.SolveCra(algo, instance, options);
    }
  }
  if (!assignment.ok()) Die(assignment.status(), "solve");
  if (!trace_path.empty()) {
    WriteFileOrDie(trace_path, obs::TraceToChromeJson(tracer));
    std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                 tracer.spans().size(), trace_path.c_str());
  }
  if (!flags.GetString("verbose", "").empty()) {
    // Telemetry stays off stdout so the report is byte-identical to an
    // uninstrumented run; stderr is where operators look anyway. The
    // kernel backend makes bench/telemetry records attributable to the
    // hardware they ran on (also exported as the wgrap_simd_backend_avx2
    // gauge).
    std::fprintf(stderr, "kernel backend: %s\n", simd::ActiveBackendName());
    // The topics whose gain terms the row pass adds with the dense column
    // kernel rather than the CSC id walk.
    std::fprintf(stderr, "heavy topic columns: %d of %d\n",
                 instance.ReviewerTopicIndex().num_dense_columns(),
                 instance.num_topics());
    // The kernel the instance picked from that split (core/instance.h).
    std::fprintf(stderr, "topic kernel: %s\n",
                 instance.has_sparse_topics() ? "csr" : "dense");
    if (!obs::Enabled()) {
      std::fprintf(stderr, "telemetry disabled (WGRAP_OBS=0)\n");
    } else {
      obs::Registry& metrics = obs::Registry::Global();
      for (const char* name :
           {"wgrap_gain_cache_patched_cells_total",
            "wgrap_gain_cache_full_builds_total", "wgrap_sra_rounds_total",
            "wgrap_lap_jv_agents_settled_total",
            "wgrap_lap_jv_full_agents_expanded_total",
            "wgrap_lap_jv_tasks_scanned_total",
            "wgrap_lap_jv_path_agents_total",
            "wgrap_sdga_cap_relax_retries_total"}) {
        obs::Counter* counter = metrics.GetCounter(name);
        if (counter != nullptr) {
          std::fprintf(stderr, "telemetry: %s %lld\n", name,
                       static_cast<long long>(counter->Value()));
        }
      }
    }
  }
  const core::SolverDescriptor* descriptor = registry.Find(algo);
  if (descriptor != nullptr && !descriptor->produces_feasible) {
    std::fprintf(stderr,
                 "warning: '%s' is a diagnostic baseline whose output "
                 "violates the group-size/workload constraints; scores below "
                 "are not comparable to feasible solvers\n",
                 algo.c_str());
  }

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) WriteFileOrDie(out, service::AssignmentCsv(*assignment));
  std::printf("%s",
              service::SolveReportLine(algo, instance, *assignment, out)
                  .c_str());
  return 0;
}

int CmdJra(const Flags& flags) {
  const data::RapDataset dataset = LoadDatasetOrDie(flags.Require("dataset"));
  core::InstanceParams params;  // JRA ignores workloads (δr := R)
  params.group_size = flags.GetInt("dp", 3);
  params.reviewer_workload = dataset.num_reviewers();
  params.scoring = ParseScoring(flags);
  auto instance = core::Instance::FromDataset(dataset, params);
  if (!instance.ok()) Die(instance.status(), "build instance");
  const int paper = flags.GetInt("paper", 0);
  const int topk = flags.GetInt("topk", 1);
  const std::string algo = flags.GetString("algo", "bba");
  core::SolverRunOptions options;
  options.extra = KnobFlags(flags);
  CheckKnobsOrDie(algo, options);
  Result<std::vector<core::JraResult>> results = Status::Internal("unset");
  if (topk != 1) {
    // Top-k enumeration dispatches through the registry's top-k hook like
    // every other solve; the registry diagnoses solvers without one and
    // rejects k outside [1, core::kMaxJraTopK].
    results = core::SolverRegistry::Default().SolveJraTopK(
        algo, *instance, paper, topk, options);
  } else {
    auto one =
        core::SolverRegistry::Default().SolveJra(algo, *instance, paper,
                                                 options);
    if (one.ok()) {
      results = std::vector<core::JraResult>{*std::move(one)};
    } else {
      results = one.status();
    }
  }
  if (!results.ok()) Die(results.status(), algo.c_str());
  std::printf("paper %d: \"%s\"\n", paper,
              dataset.papers[paper].title.c_str());
  for (size_t i = 0; i < results->size(); ++i) {
    std::printf("#%zu  score %.4f:", i + 1, (*results)[i].score);
    for (int r : (*results)[i].group) {
      std::printf("  %s", dataset.reviewers[r].name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const data::RapDataset dataset = LoadDatasetOrDie(flags.Require("dataset"));
  core::Instance instance = MakeInstanceOrDie(dataset, flags);
  core::Assignment assignment =
      LoadAssignmentOrDie(instance, flags.Require("assignment"));
  std::printf("%s", service::EvaluationReport(instance, assignment).c_str());
  return 0;
}

int CmdUpdate(const Flags& flags) {
  const data::RapDataset dataset = LoadDatasetOrDie(flags.Require("dataset"));
  core::Instance instance = MakeInstanceOrDie(dataset, flags);
  core::Assignment assignment =
      LoadAssignmentOrDie(instance, flags.Require("assignment"));

  const std::string mutations_path = flags.Require("mutations");
  std::ifstream mutations_file(mutations_path);
  if (!mutations_file) {
    std::fprintf(stderr, "cannot open %s\n", mutations_path.c_str());
    return 1;
  }
  std::string script((std::istreambuf_iterator<char>(mutations_file)),
                     std::istreambuf_iterator<char>());
  auto updates = core::ParseMutationScript(script);
  if (!updates.ok()) Die(updates.status(), "parse mutations");

  core::SolverRunOptions options;
  options.time_limit_seconds = flags.GetBudget();
  options.seed = flags.GetUint64("seed", 20150531);
  options.extra = KnobFlags(flags);
  // --refine is the one alias, like the protocol's `resolve refine=`.
  const std::string refine = flags.GetString("refine", "");
  if (!refine.empty()) options.extra["update_refine"] = refine;
  ParamOrDie(core::DecodeIncrementalResolveKnobs(options));

  core::InstanceParams params;
  params.group_size = flags.GetInt("dp", 3);
  params.reviewer_workload = flags.GetInt("dr", 0);
  params.scoring = ParseScoring(flags);
  core::InstanceUpdater updater(&instance, params);
  updater.TrackAssignment(&assignment);
  auto report = updater.ApplyAll(*updates);
  if (!report.ok()) Die(report.status(), "apply mutations");
  std::printf("%s", service::MutationReport(*report, instance).c_str());

  // --mode rebuild cross-checks the patch path: export the patched
  // instance back to a dataset, rebuild it from scratch, replay COIs and
  // the surviving groups, and resolve on that. The update subsystem's
  // contract (core/update.h) makes the two modes' output bitwise equal —
  // CI diffs them.
  const std::string mode = flags.GetString("mode", "patch");
  if (mode != "patch" && mode != "rebuild") {
    std::fprintf(stderr, "unknown --mode '%s' (use patch or rebuild)\n",
                 mode.c_str());
    return 2;
  }
  core::Instance* live = &instance;
  core::Assignment* survivors = &assignment;
  std::optional<core::Instance> rebuilt;
  std::optional<core::Assignment> rebuilt_assignment;
  if (mode == "rebuild") {
    auto fresh = core::Instance::FromDataset(core::SnapshotDataset(instance),
                                             params);
    if (!fresh.ok()) Die(fresh.status(), "rebuild instance");
    rebuilt = std::move(fresh).value();
    for (int p = 0; p < instance.num_papers(); ++p) {
      for (int r = 0; r < instance.num_reviewers(); ++r) {
        if (instance.IsConflict(r, p)) rebuilt->AddConflict(r, p);
      }
    }
    auto replayed = core::Assignment::FromPairs(&*rebuilt, assignment.Pairs());
    if (!replayed.ok()) Die(replayed.status(), "replay surviving pair");
    rebuilt_assignment = std::move(replayed).value();
    live = &*rebuilt;
    survivors = &*rebuilt_assignment;
  }

  auto resolve = core::IncrementalResolve(*live, survivors, options);
  if (!resolve.ok()) Die(resolve.status(), "incremental resolve");
  std::printf("%s", service::ResolveReport(*resolve, *survivors).c_str());
  // Timing goes to stderr so stdout stays byte-stable for the CI diff of
  // patch vs rebuild mode.
  std::fprintf(stderr, "incremental resolve: %.3fs\n", resolve->seconds);

  if (!flags.GetString("cold", "").empty()) {
    core::SolverRunOptions cold_options = options;
    cold_options.extra.erase("update_refine");  // sdga-sra does not take it
    Stopwatch cold_watch;
    auto cold = core::SolverRegistry::Default().SolveCra("sdga-sra", *live,
                                                         cold_options);
    if (!cold.ok()) Die(cold.status(), "cold solve");
    const double cold_seconds = cold_watch.ElapsedSeconds();
    std::printf("cold: score %.6f\n", cold->TotalScore());
    std::fprintf(stderr, "cold solve: %.3fs (%.1fx the incremental resolve)\n",
                 cold_seconds,
                 resolve->seconds > 0.0 ? cold_seconds / resolve->seconds
                                        : 0.0);
  }

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) WriteFileOrDie(out, service::AssignmentCsv(*survivors));
  return 0;
}

int CmdServe(const Flags& flags) {
  // Resolve the kernel backend now so the wgrap_simd_backend_avx2 gauge
  // is on the `stats` page before the first solve touches a kernel.
  simd::ActiveBackend();
  service::ServiceOptions options;
  options.job_workers = flags.GetInt("jobs", 2);
  options.max_results = flags.GetInt("results", 64);
  options.max_queue_depth = flags.GetInt("max-queue", 0);
  service::ServeOptions serve_options;
  serve_options.max_payload_bytes =
      flags.GetByteCount("max-payload", serve_options.max_payload_bytes);
  service::ServiceApi api(options);
  const int port = flags.GetPort(-1, 0);
  if (port >= 0) {
    service::TcpServer::Options tcp_options;
    tcp_options.max_connections = flags.GetInt("max-conns", 64);
    tcp_options.read_timeout_seconds = flags.GetInt("read-timeout", 0);
    tcp_options.serve = serve_options;
    service::TcpServer server(&api, tcp_options);
    Status started = server.Start(port);
    if (!started.ok()) Die(started, "serve");
    std::fprintf(stderr, "serving on 127.0.0.1:%d (EOF on stdin stops)\n",
                 server.port());
    std::string line;
    while (std::getline(std::cin, line)) {
    }
    api.jobs().Drain();
    server.Stop();
    return 0;
  }
  // stdio mode: the protocol on stdin/stdout, one session per process —
  // what the CI smoke and `printf ... | wgrap_cli serve` scripting use.
  service::ServeStream(std::cin, std::cout, api, serve_options);
  api.jobs().Drain();
  return 0;
}

// --- watch: a minimal line-protocol TCP client ------------------------------

bool ReadExactly(int fd, char* buffer, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buffer + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

// One response header line ("ok <N>" / "err <Code> <N>"), byte at a time —
// throughput is irrelevant here and this needs no buffering state.
bool ReadHeaderLine(int fd, std::string* line) {
  line->clear();
  char c = 0;
  while (ReadExactly(fd, &c, 1)) {
    if (c == '\n') return true;
    *line += c;
  }
  return false;
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int CmdWatch(const Flags& flags) {
  const int port = flags.GetPort(0, 1);
  if (port <= 0) {
    std::fprintf(stderr, "watch requires --port (a `serve --port` process)\n");
    return 2;
  }
  flags.Require("job");
  const int job = flags.GetInt("job", 0);
  const int max_retries = flags.GetInt("retries", 5);

  // Jittered exponential backoff between reconnect attempts: jitter keeps
  // a fleet of watchers from re-hitting a recovering server in lockstep.
  std::mt19937 rng(static_cast<unsigned>(
      std::chrono::steady_clock::now().time_since_epoch().count() ^
      static_cast<long long>(::getpid())));

  // Progress frames already printed: `watch` replays the job's frames
  // from index 0 on every (re)connect, so after a mid-stream reconnect we
  // skip this many and the output stays identical to an unbroken watch.
  std::size_t printed = 0;
  int attempt = 0;
  for (;;) {
    bool transient = false;
    const int fd = ConnectLoopback(port);
    if (fd < 0) {
      transient = true;
    } else {
      const std::string command = "watch " + std::to_string(job) + "\n";
      if (::send(fd, command.data(), command.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(command.size())) {
        transient = true;
        ::close(fd);
      } else {
        // Progress frames stream as individual ok replies whose payload
        // starts with "progress "; the first reply that doesn't is the
        // final result (or an err frame for a failed/cancelled/unknown
        // job — a server *answer*, never retried).
        std::size_t seen = 0;
        for (;;) {
          std::string header;
          if (!ReadHeaderLine(fd, &header)) {
            transient = true;  // connection dropped mid-reply
            break;
          }
          const bool ok = header.rfind("ok ", 0) == 0;
          const std::size_t size_at = header.rfind(' ');
          uint64_t size = 0;
          if (size_at == std::string::npos ||
              !ParseUint64(std::string_view(header).substr(size_at + 1),
                           &size)) {
            std::fprintf(stderr, "watch: malformed reply header '%s'\n",
                         header.c_str());
            ::close(fd);
            return 1;
          }
          std::string payload(size, '\0');
          if (size > 0 && !ReadExactly(fd, payload.data(), payload.size())) {
            transient = true;
            break;
          }
          if (ok && payload.rfind("progress ", 0) == 0) {
            if (++seen > printed) {
              std::fputs(payload.c_str(), stdout);
              std::fflush(stdout);
              printed = seen;
            }
            continue;
          }
          ::close(fd);
          if (!ok) {
            std::fprintf(stderr, "watch: %s: %s\n", header.c_str(),
                         payload.c_str());
            return 1;
          }
          std::fputs(payload.c_str(), stdout);
          return 0;
        }
        ::close(fd);
      }
    }
    if (!transient || attempt >= max_retries) {
      std::fprintf(stderr, "watch: giving up after %d attempt%s\n",
                   attempt + 1, attempt == 0 ? "" : "s");
      return 1;
    }
    const int base_ms = 100 * (1 << (attempt < 6 ? attempt : 6));
    std::uniform_int_distribution<int> jitter(0, base_ms / 2);
    const int delay_ms = base_ms + jitter(rng);
    std::fprintf(stderr, "watch: connection lost; retry %d/%d in %d ms\n",
                 attempt + 1, max_retries, delay_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ++attempt;
  }
}

int CmdCaseStudy(const Flags& flags) {
  const data::RapDataset dataset = LoadDatasetOrDie(flags.Require("dataset"));
  core::Instance instance = MakeInstanceOrDie(dataset, flags);
  core::Assignment assignment =
      LoadAssignmentOrDie(instance, flags.Require("assignment"));
  const int paper = flags.GetInt("paper", 0);
  const int top_topics = flags.GetInt("top-topics", 5);
  if (top_topics < 1) {
    std::fprintf(stderr, "--top-topics: must be >= 1, got %d\n", top_topics);
    return 2;
  }
  const auto report = core::BuildCaseStudy(instance, assignment, dataset,
                                           paper, top_topics);
  if (!report.ok()) Die(report.status(), "casestudy");
  std::printf("%s", core::FormatCaseStudy(*report, "assignment").c_str());
  return 0;
}

void Usage() {
  std::fputs(
      "usage: wgrap_cli "
      "<solvers|generate|solve|jra|evaluate|casestudy|update|serve|watch> "
      "[flags]\n"
      "run `wgrap_cli solvers` for the algorithm menu and see the header of "
      "tools/wgrap_cli.cc for the flag list\n",
      stderr);
}

struct Subcommand {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;  // every flag `run` reads
  bool takes_knobs;                // and every knob flag (KnobFlagNames)
};

std::vector<Subcommand> Subcommands() {
  // The flags MakeInstanceOrDie reads.
  const std::vector<std::string> instance = {"dataset", "dp", "dr",
                                             "scoring"};
  auto with_instance = [&instance](std::vector<std::string> flags) {
    flags.insert(flags.end(), instance.begin(), instance.end());
    return flags;
  };
  return {
      {"solvers", CmdSolvers, {"verbose"}, false},
      {"generate",
       CmdGenerate,
       {"seed", "topics", "density", "pool", "papers", "area", "year", "out"},
       false},
      {"solve",
       CmdSolve,
       with_instance({"refine", "algo", "budget", "seed", "trace", "verbose",
                      "out"}),
       true},
      {"jra",
       CmdJra,
       {"dataset", "dp", "scoring", "paper", "topk", "algo"},
       true},
      {"evaluate", CmdEvaluate, with_instance({"assignment"}), false},
      {"casestudy",
       CmdCaseStudy,
       with_instance({"assignment", "paper", "top-topics"}),
       false},
      {"update",
       CmdUpdate,
       with_instance({"assignment", "mutations", "budget", "seed", "refine",
                      "mode", "cold", "out"}),
       true},
      {"serve",
       CmdServe,
       {"jobs", "results", "max-queue", "max-payload", "port", "max-conns",
        "read-timeout"},
       false},
      {"watch", CmdWatch, {"port", "job", "retries"}, false},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  for (const Subcommand& subcommand : Subcommands()) {
    if (command != subcommand.name) continue;
    std::vector<std::string> known = subcommand.flags;
    if (subcommand.takes_knobs) {
      for (const auto& [flag, knob] : KnobFlagNames()) known.push_back(flag);
    }
    flags.RejectUnknown(command, known);
    return subcommand.run(flags);
  }
  Usage();
  return 2;
}
