// String-keyed solver registry: every CRA and JRA algorithm in the repo
// behind one factory API, so front ends (wgrap_cli, examples, benches, the
// service layer) dispatch by name instead of hard-coding call sites.
//
// Two solver families mirror the paper's two problems:
//   kCra — whole-conference solvers: Instance → Assignment (Definition 3).
//   kJra — single-paper solvers: (Instance, paper) → JraResult
//          (Definition 6).
//
// The default registry is populated with every solver in core/cra.h and
// core/jra.h (greedy, brgg, sdga, sdga-sra, sdga-ls, sm, ilp, rrap; bba,
// bfs, jra-ilp, jra-cp) plus the refinement-only entries "sra" and "ls",
// which improve an existing assignment through the refine-from-initial
// hook (RefineCra / `wgrap_cli solve --refine`). Callers may register
// additional solvers — e.g. a sharded or GPU-backed variant — under new
// keys at startup.
//
// Solver-specific switches ride in SolverRunOptions::extra, checked against
// one declarative schema: each knob is a KnobSpec, declared once in
// registry.cc with its name, type, doc, legal values or range, and the
// fields of TypedOptions it writes. Its default is read off the options
// struct's own default member value, so the schema cannot drift from the
// solver. Every entry point — Run, the service's Submit/Resolve and
// IncrementalResolve — decodes `extra` with the same DecodeKnobs step:
// unknown keys and ill-typed values (ParseKnobValue, on the number grammar
// of common/string_util.h) fail with kInvalidArgument naming the key, and
// on success the factory receives the filled TypedOptions. Decoding reads
// only the schema, never the instance. Clients, remote ones included, discover the schema
// from DescribeSolvers / `wgrap_cli solvers --verbose`; wgrap_cli derives
// its flags from it (knob `a_b` is flag `--a-b`).
//
// Usage:
//   const auto& registry = core::SolverRegistry::Default();
//   auto assignment = registry.SolveCra("sdga-sra", instance, {});
//   for (const auto* s : registry.List(core::SolverFamily::kCra)) ...
#ifndef WGRAP_CORE_REGISTRY_H_
#define WGRAP_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/cra.h"
#include "core/instance.h"
#include "core/jra.h"

namespace wgrap::core {

enum class SolverFamily {
  kCra,  // conference: full P × R assignment
  kJra,  // journal: best δp-group for one paper
};

/// Value type of a declared knob.
enum class KnobType {
  kInt,
  kDouble,  // finite values only
  kBool,    // accepts true/false, 1/0, on/off
  kEnum,    // one of KnobSpec::enum_values
  kString,  // free-form
};

/// Human-readable type name ("int", "double", "bool", "enum", "string").
const char* KnobTypeToString(KnobType type);

/// Family-agnostic run parameters threaded to whichever options struct the
/// concrete solver takes, plus the string→string `extra` map of
/// solver-specific knobs. The legal keys per solver are the descriptor's
/// declared KnobSpec list (see `wgrap_cli solvers --verbose`); dispatch
/// rejects unknown or ill-typed keys with kInvalidArgument before the
/// solver runs.
struct SolverRunOptions {
  /// Wall-clock budget in seconds; 0 = unlimited. Anytime solvers
  /// (sdga-sra, sdga-ls) treat it as the refinement budget and still return
  /// their best assignment; constructive/exact solvers (greedy, brgg, sm,
  /// sdga, ilp, rrap, bba, bfs, jra-ilp, jra-cp) abort with
  /// kResourceExhausted when it expires.
  double time_limit_seconds = 0.0;
  /// Seed for the randomized refiners (sra, local search).
  uint64_t seed = 20150531;
  /// Cooperative cancellation (common/cancel.h): polled at the same coarse
  /// boundaries as the deadline; solvers abort with kCancelled. Null =
  /// never cancelled.
  CancelToken cancel;
  /// Anytime progress frames (core/cra.h): the anytime solvers (sdga's
  /// stage commits, sra rounds, ls batches, ilp incumbents) emit monotone
  /// best-score frames through this. Null = no reporting. Observational
  /// only — results are bit-identical with or without a callback.
  ProgressFn progress;
  /// Solver-specific knobs; decoded against the solver's KnobSpec list.
  std::map<std::string, std::string> extra;
};

/// The one spelling of a time limit (`--budget`, `budget=`): finite seconds
/// >= 0 in the number grammar of common/string_util.h, 0 = unlimited. A
/// negative value is refused like "nan", never read as unlimited.
bool ParseTimeLimit(std::string_view text, double* out);

/// What DecodeKnobs produces: every solver's options struct, filled from
/// the run parameters and the `extra` knobs in one place. A knob that
/// several structs carry (threads) is written to all of them; each factory
/// hands its own struct to the solver.
struct TypedOptions {
  CraOptions cra;          // greedy, brgg, sm, ilp, rrap
  SdgaOptions sdga;        // sdga, and the SDGA stage of sdga-sra / sdga-ls
  SraOptions sra;          // sra, and the refinement of sdga-sra
  LocalSearchOptions ls;   // ls, and the refinement of sdga-ls
  JraOptions jra;          // bfs, jra-ilp, jra-cp
  BbaOptions bba;          // bba
  /// IncrementalResolve's refiner: a registry refine key, or "none".
  std::string update_refine = "sra";
};

/// A parsed knob value; the alternative matches KnobSpec::type (kEnum and
/// kString parse to the string).
using KnobValue = std::variant<int, double, bool, std::string>;

/// Declared schema of one `extra` knob: the contract a solver exposes to
/// front ends, and the binding that stores its value. ParseKnobValue
/// enforces the type, the enum value list and the numeric range;
/// DescribeSolvers renders the rest.
struct KnobSpec {
  std::string name;
  KnobType type = KnobType::kString;
  /// Rendered default (what the solver uses when the key is absent).
  std::string default_value;
  /// One-line doc for `wgrap_cli solvers --verbose` / DescribeSolvers.
  std::string doc;
  /// kEnum: the closed set of legal values.
  std::vector<std::string> enum_values;
  /// kInt/kDouble: optional inclusive bounds.
  std::optional<double> min_value;
  std::optional<double> max_value;
  /// Writes a parsed value into every field of the typed options the knob
  /// sets. Null = validated but not stored.
  std::function<void(const KnobValue&, TypedOptions*)> apply;
};

/// "name (type, default X) — doc", with the enum values / range inlined.
std::string FormatKnobSpec(const KnobSpec& spec);

/// The one parser for knob values: `text` as spec.type, within the enum
/// value list or the numeric range. kInvalidArgument naming the knob
/// otherwise.
Result<KnobValue> ParseKnobValue(const KnobSpec& spec, const std::string& text);

/// The decode step every entry point shares (SolverRegistry::Run, the
/// service's Submit/Resolve, IncrementalResolve). Copies the run
/// parameters into every options struct, then parses each key of
/// options.extra against `specs` and stores it. Fails with
/// kInvalidArgument on an unknown key (listing the declared knobs; `owner`
/// names the solver) or an ill-typed value.
Result<TypedOptions> DecodeKnobs(const std::string& owner,
                                 const std::vector<KnobSpec>& specs,
                                 const SolverRunOptions& options);

// Solver factories receive the options DecodeKnobs filled.
using CraSolverFn =
    std::function<Result<Assignment>(const Instance&, const TypedOptions&)>;
using JraSolverFn = std::function<Result<JraResult>(
    const Instance&, int paper, const TypedOptions&)>;
/// Top-k JRA hook: the k best groups for one paper, sorted best first
/// (SolveJraBbaTopK, the Fig. 15 experiment). Dispatched via
/// SolverRegistry::SolveJraTopK.
using JraTopKSolverFn = std::function<Result<std::vector<JraResult>>(
    const Instance&, int paper, int k, const TypedOptions&)>;
/// Refine-from-initial hook: improves an existing complete feasible
/// assignment instead of building one from scratch (RefineSra,
/// RefineLocalSearch). Dispatched via SolverRegistry::RefineCra.
using CraRefineFn = std::function<Result<Assignment>(
    const Instance&, const Assignment& initial, const TypedOptions&)>;

struct SolverDescriptor {
  std::string name;        // registry key, e.g. "sdga-sra"
  SolverFamily family = SolverFamily::kCra;
  std::string paper_name;  // the paper's label, e.g. "SDGA + SRA (Algs. 2+3)"
  std::string summary;     // one-line description for --help / `solvers`
  /// False only for diagnostic baselines (rrap) whose output deliberately
  /// violates the group-size/workload constraints.
  bool produces_feasible = true;
  /// The `extra` keys this solver accepts. Dispatch decodes the whole map
  /// against this schema; an empty list means the solver takes no knobs
  /// and any `extra` key is rejected.
  std::vector<KnobSpec> knobs;
  /// kCra descriptors set `cra` (build from scratch), `refine` (improve an
  /// initial assignment), or both; kJra descriptors set `jra` and may also
  /// set `jra_topk` when the solver can enumerate the k best groups.
  CraSolverFn cra;
  JraSolverFn jra;
  CraRefineFn refine;
  JraTopKSolverFn jra_topk;

  /// nullptr when the descriptor doesn't declare `name`.
  const KnobSpec* FindKnob(const std::string& name) const;
};

/// One dispatch, any family — the single entry point the CLI and the
/// service API share. The four legacy methods (SolveCra, RefineCra,
/// SolveJra, SolveJraTopK) are thin wrappers over Run().
struct SolverRequest {
  enum class Kind {
    kSolveCra,     // solver, options
    kRefineCra,    // solver, initial, options
    kSolveJra,     // solver, paper, options
    kSolveJraTopK, // solver, paper, k, options
  };
  Kind kind = Kind::kSolveCra;
  std::string solver;
  /// kSolveJra/kSolveJraTopK: the paper to assign.
  int paper = 0;
  /// kSolveJraTopK: how many groups (>= 1).
  int k = 1;
  /// kRefineCra: the assignment to improve (borrowed; must be bound to the
  /// instance passed to Run and outlive the call).
  const Assignment* initial = nullptr;
  SolverRunOptions options;
};

struct SolverResponse {
  /// Set for kSolveCra/kRefineCra.
  std::optional<Assignment> assignment;
  /// Set for kSolveJra (size 1) and kSolveJraTopK (size k, best first).
  std::vector<JraResult> jra;
  /// Wall-clock of the dispatch, for job accounting.
  double seconds = 0.0;
};

/// Thread-compatible registry of solver factories. `Default()` is built
/// once and safe for concurrent reads; mutate (Register) only during
/// startup.
class SolverRegistry {
 public:
  /// The process-wide registry, pre-populated with all built-in solvers.
  static SolverRegistry& Default();

  /// Adds a solver. Fails with kFailedPrecondition on duplicate keys and
  /// kInvalidArgument if the descriptor's callable doesn't match its family.
  Status Register(SolverDescriptor descriptor);

  /// nullptr when `name` is unknown.
  const SolverDescriptor* Find(const std::string& name) const;

  /// Descriptors in key order, optionally restricted to one family.
  std::vector<const SolverDescriptor*> List() const;
  std::vector<const SolverDescriptor*> List(SolverFamily family) const;

  /// A request that passed Validate: its solver and decoded knobs.
  struct Validated {
    const SolverDescriptor* descriptor = nullptr;
    TypedOptions options;
  };

  /// Every check Run makes before a solver runs: kNotFound for unknown
  /// names (listing the family's keys), then the family/kind match, the
  /// refine hook plus an initial assignment, top-k k in [1, kMaxJraTopK],
  /// then DecodeKnobs. The service calls it at submit time, so a request
  /// that would fail these checks never gets a job id.
  Result<Validated> Validate(const SolverRequest& request) const;

  /// Validate, then dispatches `request` to the named solver. On success
  /// the response carries the assignment or JRA results plus the elapsed
  /// wall-clock.
  Result<SolverResponse> Run(const SolverRequest& request,
                             const Instance& instance) const;

  /// Dispatches to the named CRA solver. kNotFound for unknown names with a
  /// message listing the valid keys; kInvalidArgument if `name` is a JRA
  /// solver or a refinement-only entry (sra, ls — those need RefineCra).
  Result<Assignment> SolveCra(const std::string& name, const Instance& instance,
                              const SolverRunOptions& options = {}) const;

  /// Runs the named solver's refine-from-initial hook on `initial` (which
  /// must be complete and feasible; the result is never worse). kNotFound
  /// for unknown names; kInvalidArgument if the solver has no refine hook.
  Result<Assignment> RefineCra(const std::string& name,
                               const Instance& instance,
                               const Assignment& initial,
                               const SolverRunOptions& options = {}) const;

  /// Dispatches to the named JRA solver (same error contract as SolveCra).
  Result<JraResult> SolveJra(const std::string& name, const Instance& instance,
                             int paper,
                             const SolverRunOptions& options = {}) const;

  /// Runs the named JRA solver's top-k hook: the k best groups for `paper`,
  /// sorted best first (`wgrap_cli jra --topk`). kNotFound for unknown
  /// names; kInvalidArgument when k is outside [1, kMaxJraTopK] or the
  /// solver has no top-k hook (currently only "bba" has one).
  Result<std::vector<JraResult>> SolveJraTopK(
      const std::string& name, const Instance& instance, int paper, int k,
      const SolverRunOptions& options = {}) const;

  /// "greedy, brgg, sdga, ..." — for error messages and usage strings.
  std::string KeysCsv(SolverFamily family) const;

 private:
  std::map<std::string, SolverDescriptor> solvers_;
};

/// The largest k a top-k JRA query may ask for: Fig. 15's largest k. BBA
/// top-k keeps a k-group heap and prunes nothing until the heap is full,
/// so a k near C(R, δp) would enumerate and hold every group in memory —
/// a reply no client can use, and one `serve` would also keep in its job
/// store. A fixed bound, not a knob.
inline constexpr int kMaxJraTopK = 1000;

/// Every knob the IncrementalResolve path (core/update.h) can read: the SRA
/// refiner's knobs plus "update_refine". The CLI derives its flag names
/// from it.
const std::vector<KnobSpec>& IncrementalResolveKnobSpecs();

/// The decode step of the IncrementalResolve path, shared by the CLI
/// `update` subcommand, the service resolve endpoint and IncrementalResolve
/// itself: "update_refine" picks the refiner, and every other knob must be
/// one that refiner reads (sra: threads, sra_omega, sra_lambda; ls and
/// none: no other knob). kInvalidArgument naming the knob otherwise.
Result<TypedOptions> DecodeIncrementalResolveKnobs(
    const SolverRunOptions& options);

}  // namespace wgrap::core

#endif  // WGRAP_CORE_REGISTRY_H_
