#include "core/registry.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace wgrap::core {

const char* KnobTypeToString(KnobType type) {
  switch (type) {
    case KnobType::kInt:
      return "int";
    case KnobType::kDouble:
      return "double";
    case KnobType::kBool:
      return "bool";
    case KnobType::kEnum:
      return "enum";
    case KnobType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

// "sra, ls or none" — the style the pre-schema error messages
// used, kept so migrated callers see familiar diagnostics.
std::string JoinForProse(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += (i + 1 == values.size()) ? " or " : ", ";
    out += values[i];
  }
  return out;
}

// Renders a numeric bound without trailing zeros ("1", "0.05", "256").
std::string FormatBound(double v, KnobType type) {
  if (type == KnobType::kInt) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string RangeSuffix(const KnobSpec& spec) {
  if (spec.min_value && spec.max_value) {
    return " in [" + FormatBound(*spec.min_value, spec.type) + ", " +
           FormatBound(*spec.max_value, spec.type) + "]";
  }
  if (spec.min_value) {
    return " >= " + FormatBound(*spec.min_value, spec.type);
  }
  if (spec.max_value) {
    return " <= " + FormatBound(*spec.max_value, spec.type);
  }
  return "";
}

// The spellings ParseKnobValue reads back as the same value.
std::string Render(int v) { return std::to_string(v); }
std::string Render(double v) { return FormatBound(v, KnobType::kDouble); }
std::string Render(bool v) { return v ? "true" : "false"; }

const KnobSpec* FindSpec(const std::vector<KnobSpec>& specs,
                         const std::string& name) {
  for (const KnobSpec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Status UnknownKnob(const std::string& owner, const std::vector<KnobSpec>& specs,
                   const std::string& key) {
  if (specs.empty()) {
    return Status::InvalidArgument("'" + owner + "' takes no options (got '" +
                                   key + "')");
  }
  std::string declared;
  for (const KnobSpec& spec : specs) {
    if (!declared.empty()) declared += ", ";
    declared += spec.name;
  }
  return Status::InvalidArgument("'" + owner + "' does not take option '" +
                                 key + "' (declared knobs: " + declared + ")");
}

}  // namespace

std::string FormatKnobSpec(const KnobSpec& spec) {
  std::string out = spec.name + " (";
  if (spec.type == KnobType::kEnum) {
    out += "enum ";
    for (size_t i = 0; i < spec.enum_values.size(); ++i) {
      if (i > 0) out += "|";
      out += spec.enum_values[i];
    }
  } else {
    out += KnobTypeToString(spec.type);
    out += RangeSuffix(spec);
  }
  if (!spec.default_value.empty()) {
    out += ", default " + spec.default_value;
  }
  out += ")";
  if (!spec.doc.empty()) {
    out += " — " + spec.doc;
  }
  return out;
}

bool ParseTimeLimit(std::string_view text, double* out) {
  double seconds = 0.0;
  if (!ParseDouble(text, &seconds) || seconds < 0.0) return false;
  *out = seconds;
  return true;
}

Result<KnobValue> ParseKnobValue(const KnobSpec& spec,
                                 const std::string& text) {
  const std::string quoted = "option '" + spec.name + "': '" + text + "'";
  const auto in_range = [&spec](double v) {
    return !(spec.min_value && v < *spec.min_value) &&
           !(spec.max_value && v > *spec.max_value);
  };
  const Status out_of_range = Status::InvalidArgument(
      "option '" + spec.name + "' must be" + RangeSuffix(spec));
  switch (spec.type) {
    case KnobType::kInt: {
      int v = 0;
      if (!ParseInt(text, &v)) {
        return Status::InvalidArgument(quoted + " is not an integer in range");
      }
      if (!in_range(v)) return out_of_range;
      return KnobValue(v);
    }
    case KnobType::kDouble: {
      double v = 0.0;
      if (!ParseDouble(text, &v)) {
        return Status::InvalidArgument(quoted + " is not a finite number");
      }
      if (!in_range(v)) return out_of_range;
      return KnobValue(v);
    }
    case KnobType::kBool: {
      bool v = false;
      if (!ParseBool(text, &v)) {
        return Status::InvalidArgument(
            quoted + " is not a boolean (use true/false, 1/0 or on/off)");
      }
      return KnobValue(v);
    }
    case KnobType::kEnum:
      if (std::find(spec.enum_values.begin(), spec.enum_values.end(), text) ==
          spec.enum_values.end()) {
        return Status::InvalidArgument(quoted + " (use " +
                                       JoinForProse(spec.enum_values) + ")");
      }
      return KnobValue(text);
    case KnobType::kString:
      return KnobValue(text);
  }
  return Status::Internal("unhandled knob type");
}

Result<TypedOptions> DecodeKnobs(const std::string& owner,
                                 const std::vector<KnobSpec>& specs,
                                 const SolverRunOptions& options) {
  TypedOptions typed;
  for (CraOptions* cra : std::initializer_list<CraOptions*>{
           &typed.cra, &typed.sdga, &typed.sra, &typed.ls}) {
    cra->time_limit_seconds = options.time_limit_seconds;
    cra->cancel = options.cancel;
    cra->progress = options.progress;
  }
  for (JraOptions* jra :
       std::initializer_list<JraOptions*>{&typed.jra, &typed.bba}) {
    jra->time_limit_seconds = options.time_limit_seconds;
    jra->cancel = options.cancel;
  }
  typed.sra.seed = options.seed;
  typed.ls.seed = options.seed;
  for (const auto& [key, text] : options.extra) {
    const KnobSpec* spec = FindSpec(specs, key);
    if (spec == nullptr) return UnknownKnob(owner, specs, key);
    auto value = ParseKnobValue(*spec, text);
    if (!value.ok()) return value.status();
    if (spec->apply) spec->apply(*value, &typed);
  }
  return typed;
}

const KnobSpec* SolverDescriptor::FindKnob(const std::string& knob) const {
  return FindSpec(knobs, knob);
}

namespace {

// --- The knob schema --------------------------------------------------------
// Each knob is declared once below: name, doc, range or legal values, and
// the TypedOptions fields it writes, as a std::tie of same-typed members.
// The declared default is the first field's value in a default-constructed
// TypedOptions, i.e. the options structs' own default; tests/registry_test
// pins that every other field a knob writes has that same default.

template <typename Fields>
using FieldType = std::decay_t<
    std::tuple_element_t<0, std::invoke_result_t<Fields, TypedOptions&>>>;

template <typename Fields, typename T>
void AssignAll(const Fields& fields, TypedOptions* options, const T& value) {
  std::apply([&value](auto&... field) { ((field = value), ...); },
             fields(*options));
}

// An int, double or bool knob with an optional inclusive range; the parsed
// value is stored as is.
template <typename Fields>
KnobSpec ScalarKnob(std::string name, std::string doc, Fields fields,
                    std::optional<double> min_value = std::nullopt,
                    std::optional<double> max_value = std::nullopt) {
  using T = FieldType<Fields>;
  static_assert(std::is_same_v<T, int> || std::is_same_v<T, double> ||
                std::is_same_v<T, bool>);
  KnobSpec spec;
  spec.name = std::move(name);
  spec.type = std::is_same_v<T, int>      ? KnobType::kInt
              : std::is_same_v<T, double> ? KnobType::kDouble
                                          : KnobType::kBool;
  TypedOptions defaults;
  spec.default_value = Render(std::get<0>(fields(defaults)));
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.apply = [fields](const KnobValue& value, TypedOptions* out) {
    AssignAll(fields, out, std::get<T>(value));
  };
  return spec;
}

// An enum knob: `table` maps each legal spelling to its field value.
template <typename Fields>
KnobSpec EnumKnob(std::string name, std::string doc,
                  std::vector<std::pair<std::string, FieldType<Fields>>> table,
                  Fields fields) {
  KnobSpec spec;
  spec.name = std::move(name);
  spec.type = KnobType::kEnum;
  TypedOptions defaults;
  for (const auto& [spelling, value] : table) {
    spec.enum_values.push_back(spelling);
    if (value == std::get<0>(fields(defaults))) spec.default_value = spelling;
  }
  spec.doc = std::move(doc);
  spec.apply = [table = std::move(table), fields](const KnobValue& value,
                                                  TypedOptions* out) {
    for (const auto& [spelling, typed] : table) {
      if (spelling == std::get<std::string>(value)) {
        AssignAll(fields, out, typed);
      }
    }
  };
  return spec;
}

KnobSpec ThreadsKnob() {
  // Bounded: each worker is a real OS thread, so an absurd request must
  // fail cleanly rather than exhaust the process.
  return ScalarKnob(
      "threads",
      "worker threads for the parallel hot paths; output is bit-identical "
      "at any value",
      [](TypedOptions& o) {
        return std::tie(o.cra.num_threads, o.sdga.num_threads,
                        o.sra.num_threads);
      },
      1, 256);
}

// `lap` and `gains` are vestiges: one spelling each, the stage pipeline
// every SDGA/SRA solve runs, and they write only SraOptions fields. They
// stay declared only where the benchmark harness reads their registry
// defaults (`lap` on sdga and sra, `gains` on sra), and go with the
// auction (ROADMAP item 1).
KnobSpec LapKnob() {
  return EnumKnob(
      "lap", "stage LAP engine (the capacity-aware Jonker-Volgenant)",
      {{"hungarian", LapBackend::kHungarian}},
      [](TypedOptions& o) { return std::tie(o.sra.backend); });
}

KnobSpec GainsKnob() {
  return EnumKnob(
      "gains", "marginal-gain maintenance (row-maintained caches)",
      {{"incremental", GainMode::kIncremental}},
      [](TypedOptions& o) { return std::tie(o.sra.gains); });
}

KnobSpec SraOmegaKnob() {
  return ScalarKnob(
      "sra_omega",
      "SRA convergence window: stop after this many rounds without "
      "improvement (Sec. 4.4)",
      [](TypedOptions& o) { return std::tie(o.sra.convergence_window); }, 1);
}

KnobSpec SraLambdaKnob() {
  // λ < 0 turns Eq. 10's decay into growth and, far enough below 0,
  // flattens the removal model into uniform sampling.
  return ScalarKnob(
      "sra_lambda", "SRA decay rate of the data-driven removal model (Eq. 10)",
      [](TypedOptions& o) { return std::tie(o.sra.decay_lambda); }, 0.0);
}

// `topics` is a vestige on sdga alone, where the benchmark harness passes
// it: the instance picks its topic kernel from the data, so the value is
// checked and dropped. ROADMAP item 4 deletes it, with
// InstanceParams::sparse_topics, after item 1 mends the harness.
KnobSpec TopicsKnob() {
  KnobSpec spec;
  spec.name = "topics";
  spec.type = KnobType::kEnum;
  spec.enum_values = {"dense", "sparse"};
  spec.default_value = "dense";
  spec.doc = "ignored: the instance picks its topic kernel from the data";
  return spec;
}

KnobSpec BbaBoundingKnob() {
  return ScalarKnob(
      "bba_bounding",
      "prune with the Eq. 3 cursor bound and the completion bound (off: "
      "exhaustive search; ablation knob)",
      [](TypedOptions& o) { return std::tie(o.bba.use_bounding); });
}

KnobSpec BbaGainBranchingKnob() {
  return ScalarKnob(
      "bba_gain_branching",
      "branch on the max-marginal-gain cursor reviewer (Definition 8)",
      [](TypedOptions& o) { return std::tie(o.bba.use_gain_branching); });
}

KnobSpec UpdateRefineKnob() {
  return EnumKnob(
      "update_refine",
      "refinement pass run on the repaired assignment after an instance "
      "update",
      {{"sra", "sra"}, {"ls", "ls"}, {"none", "none"}},
      [](TypedOptions& o) { return std::tie(o.update_refine); });
}

// Schema of the SRA refinement (sdga-sra and the update resolve; sra adds
// the two vestiges).
std::vector<KnobSpec> SraKnobs() {
  return {ThreadsKnob(), SraOmegaKnob(), SraLambdaKnob()};
}

// The anytime pipelines spend the budget on refinement only: their SDGA
// stage always runs to completion.
SdgaOptions Unbudgeted(SdgaOptions sdga) {
  sdga.time_limit_seconds = 0.0;
  return sdga;
}

// Adapts RRAP's unconstrained per-paper lists into an Assignment via
// FromPairs, which checks no group size or workload, so it can flow
// through the same evaluation pipeline as the feasible solvers. The result
// intentionally fails ValidateComplete — that imbalance (Fig. 1(a)) is the
// point of the baseline.
Result<Assignment> SolveRrapAsAssignment(const Instance& instance,
                                         const TypedOptions& options) {
  auto raw = SolveCraRrap(instance, options.cra);
  WGRAP_RETURN_IF_ERROR(raw.status());
  std::vector<std::pair<int, int>> pairs;
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r : raw->reviewers_of_paper[p]) pairs.emplace_back(p, r);
  }
  return Assignment::FromPairs(&instance, pairs);
}

SolverRegistry BuildDefaultRegistry() {
  // Descriptors are filled in place (a deque keeps the references `add`
  // returns valid) and registered at the end.
  std::deque<SolverDescriptor> built_ins;
  auto add = [&built_ins](SolverFamily family, std::string name,
                          std::string paper_name, std::string summary,
                          std::vector<KnobSpec> knobs) -> SolverDescriptor& {
    SolverDescriptor& d = built_ins.emplace_back();
    d.name = std::move(name);
    d.family = family;
    d.paper_name = std::move(paper_name);
    d.summary = std::move(summary);
    d.knobs = std::move(knobs);
    return d;
  };
  constexpr SolverFamily kCra = SolverFamily::kCra;
  constexpr SolverFamily kJra = SolverFamily::kJra;

  // --- CRA: whole-conference solvers (Sec. 4 / Sec. 5.2 line-up) ---------
  add(kCra, "greedy", "Greedy (Long et al. [22], Eq. 4)",
      "pair-at-a-time lazy-heap greedy, 1/3-approximation", {})
      .cra = [](const Instance& instance, const TypedOptions& options) {
    return SolveCraGreedy(instance, options.cra);
  };
  add(kCra, "brgg", "BRGG (best reviewer-group greedy)",
      "commits the best whole (group, paper) pair per round",
      {ThreadsKnob()})
      .cra = [](const Instance& instance, const TypedOptions& options) {
    return SolveCraBrgg(instance, options.cra);
  };
  SolverDescriptor& sdga =
      add(kCra, "sdga", "SDGA (Algorithm 2)",
          "stage-deepening greedy: dp linear-assignment stages, "
          "1/2-approximation",
          {ThreadsKnob(), LapKnob(), TopicsKnob()});
  sdga.cra = [](const Instance& instance, const TypedOptions& options) {
    return SolveCraSdga(instance, options.sdga);
  };
  add(kCra, "sdga-sra", "SDGA + SRA (Algorithms 2+3)",
      "the paper's recommended pipeline: SDGA then stochastic refinement",
      SraKnobs())
      .cra = [](const Instance& instance, const TypedOptions& options) {
    return SolveCraSdgaSra(instance, Unbudgeted(options.sdga), options.sra);
  };
  add(kCra, "sdga-ls", "SDGA + LS (Fig. 12 baseline)",
      "SDGA then plain hill-climbing local search", {ThreadsKnob()})
      .cra = [](const Instance& instance,
                const TypedOptions& options) -> Result<Assignment> {
    auto initial = SolveCraSdga(instance, Unbudgeted(options.sdga));
    WGRAP_RETURN_IF_ERROR(initial.status());
    return RefineLocalSearch(instance, *initial, options.ls);
  };
  add(kCra, "sm", "SM (stable matching)",
      "Gale-Shapley college-admissions baseline", {})
      .cra = [](const Instance& instance, const TypedOptions& options) {
    return SolveCraStableMatching(instance, options.cra);
  };
  add(kCra, "ilp", "ILP (exact ARAP)",
      "exact per-pair-objective assignment via one demand-dp "
      "transportation solve",
      {})
      .cra = [](const Instance& instance, const TypedOptions& options) {
    return SolveCraIlpArap(instance, options.cra);
  };
  SolverDescriptor& rrap =
      add(kCra, "rrap", "RRAP (Definition 4, retrieval baseline)",
          "each reviewer takes their top-dr papers; group sizes "
          "unconstrained (diagnostic baseline)",
          {});
  rrap.produces_feasible = false;
  rrap.cra = SolveRrapAsAssignment;

  // --- CRA refinement-only entries (refine-from-initial hook) ------------
  add(kCra, "sra", "SRA (Algorithm 3)",
      "stochastic refinement of an existing assignment (requires an initial "
      "assignment; use RefineCra / --refine)",
      {ThreadsKnob(), LapKnob(), GainsKnob(), SraOmegaKnob(),
       SraLambdaKnob()})
      .refine = [](const Instance& instance, const Assignment& initial,
                   const TypedOptions& options) {
    return RefineSra(instance, initial, options.sra);
  };
  add(kCra, "ls", "LS (Fig. 12 baseline)",
      "hill-climbing refinement of an existing assignment (requires an "
      "initial assignment; use RefineCra / --refine)",
      {})
      .refine = [](const Instance& instance, const Assignment& initial,
                   const TypedOptions& options) {
    return RefineLocalSearch(instance, initial, options.ls);
  };

  // --- JRA: single-paper solvers (Sec. 3 / Sec. 5.1 line-up) -------------
  SolverDescriptor& bba =
      add(kJra, "bba", "BBA (Algorithm 1)",
          "branch-and-bound pruned by min(Eq. 3, completion bound), with "
          "max-gain branching (bba_bounding / bba_gain_branching knobs; "
          "top-k via SolveJraTopK)",
          {BbaBoundingKnob(), BbaGainBranchingKnob()});
  bba.jra = [](const Instance& instance, int paper,
               const TypedOptions& options) {
    return SolveJraBba(instance, paper, options.bba);
  };
  // The size-k best-so-far heap variant (Sec. 3, final remark / Fig. 15).
  bba.jra_topk = [](const Instance& instance, int paper, int k,
                    const TypedOptions& options) {
    return SolveJraBbaTopK(instance, paper, k, options.bba);
  };
  add(kJra, "bfs", "BFS (brute force)",
      "enumerates all C(R, dp) groups — exact but exponential", {})
      .jra = [](const Instance& instance, int paper,
                const TypedOptions& options) {
    return SolveJraBruteForce(instance, paper, options.jra);
  };
  add(kJra, "jra-ilp", "ILP (MIP formulation)",
      "mixed-integer formulation on the lp/ simplex + B&B solver", {})
      .jra = [](const Instance& instance, int paper,
                const TypedOptions& options) {
    return SolveJraIlp(instance, paper, options.jra);
  };
  add(kJra, "jra-cp", "CP (constraint programming)",
      "generic CP search over the cp/ select-k substrate", {})
      .jra = [](const Instance& instance, int paper,
                const TypedOptions& options) {
    return SolveJraCp(instance, paper, options.jra);
  };

  SolverRegistry registry;
  for (SolverDescriptor& descriptor : built_ins) {
    const Status status = registry.Register(std::move(descriptor));
    WGRAP_CHECK_MSG(status.ok(), "built-in solver registration failed");
  }
  return registry;
}

}  // namespace

const std::vector<KnobSpec>& IncrementalResolveKnobSpecs() {
  static const std::vector<KnobSpec>* specs = [] {
    auto* s = new std::vector<KnobSpec>(SraKnobs());
    s->push_back(UpdateRefineKnob());
    return s;
  }();
  return *specs;
}

Result<TypedOptions> DecodeIncrementalResolveKnobs(
    const SolverRunOptions& options) {
  auto typed = DecodeKnobs("update", IncrementalResolveKnobSpecs(), options);
  if (!typed.ok() || typed->update_refine == "sra") return typed;
  // ls takes no knobs and none runs no refiner: only the choice is read.
  for (const auto& [key, text] : options.extra) {
    if (key != "update_refine") {
      return UnknownKnob("update refine=" + typed->update_refine,
                         {UpdateRefineKnob()}, key);
    }
  }
  return typed;
}

SolverRegistry& SolverRegistry::Default() {
  static SolverRegistry* registry = new SolverRegistry(BuildDefaultRegistry());
  return *registry;
}

Status SolverRegistry::Register(SolverDescriptor descriptor) {
  if (descriptor.name.empty()) {
    return Status::InvalidArgument("solver name must be non-empty");
  }
  if (descriptor.family == SolverFamily::kCra) {
    if ((!descriptor.cra && !descriptor.refine) || descriptor.jra ||
        descriptor.jra_topk) {
      return Status::InvalidArgument(
          "a CRA descriptor must set cra and/or refine, and not "
          "jra/jra_topk");
    }
  } else {
    if (!descriptor.jra || descriptor.cra || descriptor.refine) {
      return Status::InvalidArgument(
          "a JRA descriptor must set jra (optionally jra_topk), and not "
          "cra/refine");
    }
  }
  std::string name = descriptor.name;
  auto [it, inserted] = solvers_.emplace(std::move(name), std::move(descriptor));
  if (!inserted) {
    return Status::FailedPrecondition("solver already registered: " +
                                      it->first);
  }
  return Status::OK();
}

const SolverDescriptor* SolverRegistry::Find(const std::string& name) const {
  auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second;
}

std::vector<const SolverDescriptor*> SolverRegistry::List() const {
  std::vector<const SolverDescriptor*> out;
  out.reserve(solvers_.size());
  for (const auto& [name, descriptor] : solvers_) out.push_back(&descriptor);
  return out;
}

std::vector<const SolverDescriptor*> SolverRegistry::List(
    SolverFamily family) const {
  std::vector<const SolverDescriptor*> out;
  for (const auto& [name, descriptor] : solvers_) {
    if (descriptor.family == family) out.push_back(&descriptor);
  }
  return out;
}

std::string SolverRegistry::KeysCsv(SolverFamily family) const {
  std::string csv;
  for (const SolverDescriptor* descriptor : List(family)) {
    if (!csv.empty()) csv += ", ";
    csv += descriptor->name;
  }
  return csv;
}

Result<SolverRegistry::Validated> SolverRegistry::Validate(
    const SolverRequest& request) const {
  using Kind = SolverRequest::Kind;
  const bool wants_jra =
      request.kind == Kind::kSolveJra || request.kind == Kind::kSolveJraTopK;
  const SolverDescriptor* descriptor = Find(request.solver);
  if (descriptor == nullptr) {
    return Status::NotFound(
        std::string("unknown ") + (wants_jra ? "JRA" : "CRA") + " solver '" +
        request.solver + "' (have: " +
        KeysCsv(wants_jra ? SolverFamily::kJra : SolverFamily::kCra) + ")");
  }
  if (wants_jra && descriptor->family != SolverFamily::kJra) {
    return Status::InvalidArgument("'" + request.solver +
                                   "' is a CRA solver; use SolveCra");
  }
  if (!wants_jra && descriptor->family != SolverFamily::kCra) {
    return Status::InvalidArgument("'" + request.solver +
                                   "' is a JRA solver; use SolveJra");
  }
  switch (request.kind) {
    case Kind::kSolveCra:
      if (!descriptor->cra) {
        return Status::InvalidArgument(
            "'" + request.solver + "' refines an existing assignment and "
            "cannot build one from scratch; use RefineCra (wgrap_cli: "
            "--refine)");
      }
      break;
    case Kind::kRefineCra:
      if (!descriptor->refine) {
        return Status::InvalidArgument(
            "'" + request.solver + "' has no refine-from-initial hook "
            "(refiners: sra, ls)");
      }
      if (request.initial == nullptr) {
        return Status::InvalidArgument(
            "RefineCra requires an initial assignment");
      }
      break;
    case Kind::kSolveJra:
      break;
    case Kind::kSolveJraTopK:
      if (!descriptor->jra_topk) {
        return Status::InvalidArgument("'" + request.solver +
                                       "' has no top-k hook (top-k solvers: "
                                       "bba)");
      }
      if (request.k < 1) {
        return Status::InvalidArgument("top-k requires k >= 1");
      }
      if (request.k > kMaxJraTopK) {
        return Status::InvalidArgument(
            StrFormat("top-k requires k <= %d", kMaxJraTopK));
      }
      break;
  }
  // Unknown or ill-typed knobs never reach a factory.
  auto options =
      DecodeKnobs(descriptor->name, descriptor->knobs, request.options);
  WGRAP_RETURN_IF_ERROR(options.status());
  return Validated{descriptor, *std::move(options)};
}

Result<SolverResponse> SolverRegistry::Run(const SolverRequest& request,
                                           const Instance& instance) const {
  using Kind = SolverRequest::Kind;
  auto validated = Validate(request);
  WGRAP_RETURN_IF_ERROR(validated.status());
  const SolverDescriptor* descriptor = validated->descriptor;
  const TypedOptions& options = validated->options;

  Stopwatch timer;
  SolverResponse response;
  switch (request.kind) {
    case Kind::kSolveCra: {
      auto result = descriptor->cra(instance, options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.assignment = std::move(result).value();
      break;
    }
    case Kind::kRefineCra: {
      auto result = descriptor->refine(instance, *request.initial, options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.assignment = std::move(result).value();
      break;
    }
    case Kind::kSolveJra: {
      auto result = descriptor->jra(instance, request.paper, options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.jra.push_back(std::move(result).value());
      break;
    }
    case Kind::kSolveJraTopK: {
      auto result =
          descriptor->jra_topk(instance, request.paper, request.k, options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.jra = std::move(result).value();
      break;
    }
  }
  response.seconds = timer.ElapsedSeconds();
  return response;
}

Result<Assignment> SolverRegistry::SolveCra(
    const std::string& name, const Instance& instance,
    const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kSolveCra;
  request.solver = name;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(*response->assignment);
}

Result<Assignment> SolverRegistry::RefineCra(
    const std::string& name, const Instance& instance,
    const Assignment& initial, const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kRefineCra;
  request.solver = name;
  request.initial = &initial;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(*response->assignment);
}

Result<JraResult> SolverRegistry::SolveJra(
    const std::string& name, const Instance& instance, int paper,
    const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kSolveJra;
  request.solver = name;
  request.paper = paper;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(response->jra.front());
}

Result<std::vector<JraResult>> SolverRegistry::SolveJraTopK(
    const std::string& name, const Instance& instance, int paper, int k,
    const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kSolveJraTopK;
  request.solver = name;
  request.paper = paper;
  request.k = k;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(response->jra);
}

}  // namespace wgrap::core
