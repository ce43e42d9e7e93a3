// Tests for the solver registry (core/registry.h): every built-in solver
// is present, instantiates on a tiny instance through the factory API, and
// produces a feasible assignment (or an optimal group, for JRA solvers).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "core/registry.h"
#include "core/wgrap.h"
#include "data/synthetic_dblp.h"

namespace wgrap {
namespace {

core::Instance TinyInstance() {
  data::SyntheticDblpConfig config;
  config.seed = 7;
  config.num_topics = 8;
  auto dataset = data::GenerateReviewerPool(/*num_reviewers=*/12,
                                            /*num_papers=*/8, config);
  WGRAP_CHECK(dataset.ok());
  core::InstanceParams params;
  params.group_size = 2;
  auto instance = core::Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(instance.ok());
  return std::move(instance).value();
}

TEST(SolverRegistryTest, ListsAllBuiltInSolvers) {
  const auto& registry = core::SolverRegistry::Default();
  std::set<std::string> names;
  for (const auto* descriptor : registry.List()) {
    names.insert(descriptor->name);
  }
  // The acceptance bar for this repo: at least 8 solvers behind one API.
  EXPECT_GE(names.size(), 8u);
  for (const char* expected :
       {"greedy", "brgg", "sdga", "sdga-sra", "sdga-ls", "sm", "ilp", "rrap",
        "bba", "bfs", "jra-ilp", "jra-cp"}) {
    EXPECT_TRUE(names.count(expected)) << "missing solver: " << expected;
  }
}

TEST(SolverRegistryTest, DescriptorsAreWellFormed) {
  const auto& registry = core::SolverRegistry::Default();
  for (const auto* descriptor : registry.List()) {
    EXPECT_FALSE(descriptor->paper_name.empty()) << descriptor->name;
    EXPECT_FALSE(descriptor->summary.empty()) << descriptor->name;
    const bool is_cra = descriptor->family == core::SolverFamily::kCra;
    // CRA descriptors build from scratch and/or refine; JRA descriptors
    // set exactly the JRA callable.
    EXPECT_EQ(is_cra, static_cast<bool>(descriptor->cra) ||
                          static_cast<bool>(descriptor->refine))
        << descriptor->name;
    EXPECT_EQ(!is_cra, static_cast<bool>(descriptor->jra)) << descriptor->name;
  }
  EXPECT_EQ(registry.List().size(),
            registry.List(core::SolverFamily::kCra).size() +
                registry.List(core::SolverFamily::kJra).size());
}

TEST(SolverRegistryTest, EveryCraSolverProducesExpectedFeasibility) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  for (const auto* descriptor : registry.List(core::SolverFamily::kCra)) {
    SCOPED_TRACE(descriptor->name);
    if (!descriptor->cra) {
      // Refinement-only entries (sra, ls) cannot build from scratch; the
      // dispatch error must say so and point at the refine path.
      auto refused = registry.SolveCra(descriptor->name, instance);
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(refused.status().message().find("refine"),
                std::string::npos);
      continue;
    }
    auto assignment = registry.SolveCra(descriptor->name, instance);
    ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
    EXPECT_GT(assignment->TotalScore(), 0.0);
    const Status valid = assignment->ValidateComplete();
    if (descriptor->produces_feasible) {
      EXPECT_TRUE(valid.ok()) << valid.ToString();
      for (int p = 0; p < instance.num_papers(); ++p) {
        EXPECT_EQ(static_cast<int>(assignment->GroupFor(p).size()),
                  instance.group_size());
      }
      for (int r = 0; r < instance.num_reviewers(); ++r) {
        EXPECT_LE(assignment->LoadOf(r), instance.reviewer_workload());
      }
    }
  }
}

TEST(SolverRegistryTest, EveryJraSolverAgreesWithBruteForce) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  const int paper = 3;
  auto reference = registry.SolveJra("bfs", instance, paper);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const auto* descriptor : registry.List(core::SolverFamily::kJra)) {
    SCOPED_TRACE(descriptor->name);
    auto result = registry.SolveJra(descriptor->name, instance, paper);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(static_cast<int>(result->group.size()), instance.group_size());
    std::set<int> unique(result->group.begin(), result->group.end());
    EXPECT_EQ(unique.size(), result->group.size());
    // All four JRA solvers are exact — they must match brute force.
    EXPECT_NEAR(result->score, reference->score, 1e-9);
    EXPECT_NEAR(result->score, core::ScoreGroup(instance, paper, result->group),
                1e-9);
  }
}

TEST(SolverRegistryTest, UnknownNamesAndFamilyMismatchesAreRejected) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto missing = registry.SolveCra("no-such-solver", instance);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error names the valid keys, so CLI users see the menu.
  EXPECT_NE(missing.status().message().find("sdga-sra"), std::string::npos);

  auto wrong_family = registry.SolveCra("bba", instance);
  ASSERT_FALSE(wrong_family.ok());
  EXPECT_EQ(wrong_family.status().code(), StatusCode::kInvalidArgument);
  auto wrong_family_jra = registry.SolveJra("sdga", instance, 0);
  ASSERT_FALSE(wrong_family_jra.ok());
  EXPECT_EQ(wrong_family_jra.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, RefineFromInitialHook) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto initial = registry.SolveCra("sdga", instance);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();

  core::SolverRunOptions options;
  options.seed = 11;
  auto refined = registry.RefineCra("sra", instance, *initial, options);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_GE(refined->TotalScore(), initial->TotalScore());
  EXPECT_TRUE(refined->ValidateComplete().ok());
  // The hook runs the same code as a direct RefineSra call.
  core::SraOptions direct;
  direct.seed = 11;
  auto reference = core::RefineSra(instance, *initial, direct);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(refined->TotalScore(), reference->TotalScore());

  auto ls = registry.RefineCra("ls", instance, *initial, options);
  ASSERT_TRUE(ls.ok()) << ls.status().ToString();
  EXPECT_GE(ls->TotalScore(), initial->TotalScore());

  // Solvers without the hook are rejected with a pointer at the refiners;
  // unknown names keep the kNotFound contract.
  auto no_hook = registry.RefineCra("sdga", instance, *initial);
  ASSERT_FALSE(no_hook.ok());
  EXPECT_EQ(no_hook.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_hook.status().message().find("sra"), std::string::npos);
  auto unknown = registry.RefineCra("no-such-solver", instance, *initial);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(SolverRegistryTest, RegisterRejectsDuplicatesAndMalformedDescriptors) {
  core::SolverRegistry registry;
  core::SolverDescriptor d;
  d.name = "custom";
  d.family = core::SolverFamily::kCra;
  d.paper_name = "Custom";
  d.summary = "test";
  d.cra = [](const core::Instance& instance,
             const core::TypedOptions&) -> Result<core::Assignment> {
    return core::SolveCraGreedy(instance);
  };
  EXPECT_TRUE(registry.Register(d).ok());
  EXPECT_EQ(registry.Register(d).code(), StatusCode::kFailedPrecondition);

  core::SolverDescriptor no_fn;
  no_fn.name = "broken";
  no_fn.family = core::SolverFamily::kJra;
  EXPECT_EQ(registry.Register(no_fn).code(), StatusCode::kInvalidArgument);
  core::SolverDescriptor unnamed = d;
  unnamed.name.clear();
  EXPECT_EQ(registry.Register(unnamed).code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, ExtraKnobsAreThreadedThrough) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  core::SolverRunOptions options;
  options.extra["threads"] = "4";
  options.extra["sra_omega"] = "3";
  options.extra["sra_lambda"] = "0.1";
  auto assignment = registry.SolveCra("sdga-sra", instance, options);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  EXPECT_TRUE(assignment->ValidateComplete().ok());
  // Undeclared keys are rejected at dispatch — the error names the key and
  // lists the solver's declared knobs so the caller can self-correct.
  options.extra["custom_knob"] = "whatever";
  auto rejected = registry.SolveCra("sdga-sra", instance, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("custom_knob"),
            std::string::npos);
  EXPECT_NE(rejected.status().message().find("sra_omega"), std::string::npos);
  // A knob another solver declares is still unknown here: greedy takes no
  // threads knob (it is single-threaded), so the typo'd intent surfaces.
  core::SolverRunOptions wrong_solver;
  wrong_solver.extra["threads"] = "4";
  auto wrong = registry.SolveCra("greedy", instance, wrong_solver);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong.status().message().find("threads"), std::string::npos);
}

// The instance picks its topic kernel from the data, so `topics` survives
// only as a vestige on sdga, where the benchmark harness passes it: sdga
// accepts both spellings and nothing changes. Everywhere else it is an
// unknown knob like any other.
TEST(SolverRegistryTest, TopicsIsAnInertVestigeOnSdga) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto plain = registry.SolveCra("sdga", instance);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (const char* value : {"dense", "sparse"}) {
    SCOPED_TRACE(value);
    core::SolverRunOptions options;
    options.extra["topics"] = value;
    auto result = registry.SolveCra("sdga", instance, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->Pairs(), plain->Pairs());
    EXPECT_EQ(result->TotalScore(), plain->TotalScore());
  }
  core::SolverRunOptions csr;
  csr.extra["topics"] = "csr";
  EXPECT_EQ(registry.SolveCra("sdga", instance, csr).status().message(),
            "option 'topics': 'csr' (use dense or sparse)");

  core::SolverRunOptions sparse;
  sparse.extra["topics"] = "sparse";
  EXPECT_EQ(registry.SolveCra("greedy", instance, sparse).status().message(),
            "'greedy' takes no options (got 'topics')");
  for (const char* solver : {"sdga-sra", "sdga-ls", "brgg"}) {
    auto rejected = registry.SolveCra(solver, instance, sparse);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << solver;
    EXPECT_NE(rejected.status().message().find(
                  "does not take option 'topics'"),
              std::string::npos)
        << solver;
  }
  auto bba = registry.SolveJra("bba", instance, 0, sparse);
  EXPECT_EQ(bba.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bba.status().message().find("does not take option 'topics'"),
            std::string::npos);
}

TEST(SolverRegistryTest, BbaKnobsAreThreadedThrough) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto reference = registry.SolveJra("bba", instance, 1);
  ASSERT_TRUE(reference.ok());
  // Ablations stay exact (they only change pruning/branching order), so
  // the score must agree while the node count moves.
  core::SolverRunOptions ablated;
  ablated.extra["bba_bounding"] = "off";
  ablated.extra["bba_gain_branching"] = "false";
  auto result = registry.SolveJra("bba", instance, 1, ablated);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->score, reference->score, 1e-12);
  EXPECT_GE(result->nodes_explored, reference->nodes_explored);
}

TEST(SolverRegistryTest, SolveJraTopKReturnsSortedExactGroups) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  const int paper = 3;
  const int k = 4;
  auto results = registry.SolveJraTopK("bba", instance, paper, k);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(static_cast<int>(results->size()), k);
  // Best-first, and the head is exactly the single-group answer.
  auto best = registry.SolveJra("bba", instance, paper);
  ASSERT_TRUE(best.ok());
  EXPECT_NEAR((*results)[0].score, best->score, 1e-12);
  for (size_t i = 0; i + 1 < results->size(); ++i) {
    EXPECT_GE((*results)[i].score, (*results)[i + 1].score) << i;
  }
  for (const auto& result : *results) {
    EXPECT_EQ(static_cast<int>(result.group.size()), instance.group_size());
    std::set<int> unique(result.group.begin(), result.group.end());
    EXPECT_EQ(unique.size(), result.group.size());
    EXPECT_NEAR(result.score,
                core::ScoreGroup(instance, paper, result.group), 1e-9);
  }
  // Groups are distinct across ranks.
  std::set<std::set<int>> seen;
  for (const auto& result : *results) {
    seen.insert(std::set<int>(result.group.begin(), result.group.end()));
  }
  EXPECT_EQ(seen.size(), results->size());
}

TEST(SolverRegistryTest, SolveJraTopKDispatchErrors) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  // Solvers without the hook point at the ones that have it.
  auto no_hook = registry.SolveJraTopK("bfs", instance, 0, 3);
  ASSERT_FALSE(no_hook.ok());
  EXPECT_EQ(no_hook.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_hook.status().message().find("bba"), std::string::npos);
  // Unknown names keep the kNotFound contract with the JRA menu.
  auto unknown = registry.SolveJraTopK("no-such-solver", instance, 0, 3);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  // Family mismatch and malformed k.
  EXPECT_EQ(registry.SolveJraTopK("sdga", instance, 0, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.SolveJraTopK("bba", instance, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, MalformedExtraValuesAreRejected) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  // Each key below is declared by sdga-sra, so the failure is a value-level
  // schema violation (bad type, out-of-range, or illegal enum member).
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"threads", "many"},
        {"threads", "0"},
        {"threads", "100000"},  // bounded: each worker is an OS thread
        {"sra_omega", "0"},
        {"sra_lambda", "fast"},
        {"sra_lambda", "nan"},  // would slip past every range check
        {"sra_lambda", "-1"}}) {  // Eq. 10 needs a decay, not a growth
    core::SolverRunOptions options;
    options.extra[key] = value;
    auto result = registry.SolveCra("sdga-sra", instance, options);
    ASSERT_FALSE(result.ok()) << key;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << key;
    // The error names the offending key.
    EXPECT_NE(result.status().message().find(key), std::string::npos) << key;
  }
  // The vestigial enums are declared on sra (and lap on sdga), where the
  // benchmark harness reads their defaults; each takes one spelling.
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"lap", "simplex"},
        {"lap", "auction"},  // the auction is not a stage engine
        {"lap", "mcf"},      // min-cost flow is a test oracle only
        {"gains", "cached"},
        {"gains", "rebuild"}}) {  // so is the per-pair rebuild
    core::SolverRunOptions options;
    options.extra[key] = value;
    auto result = core::DecodeKnobs("sra", registry.Find("sra")->knobs,
                                    options);
    ASSERT_FALSE(result.ok()) << key;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(result.status().message().find(std::string("option '") + key +
                                             "': '" + value + "'"),
              std::string::npos)
        << result.status().message();
  }
  // Bool knobs on the JRA side follow the same contract.
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"bba_bounding", "maybe"},
        {"bba_gain_branching", "2"}}) {
    core::SolverRunOptions options;
    options.extra[key] = value;
    auto result = registry.SolveJra("bba", instance, 1, options);
    ASSERT_FALSE(result.ok()) << key;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(result.status().message().find(key), std::string::npos) << key;
  }
}

TEST(SolverRegistryTest, DescriptorsDeclareWellFormedKnobSchemas) {
  const auto& registry = core::SolverRegistry::Default();
  for (const auto* descriptor : registry.List()) {
    // The instance picks its topic kernel; the `topics` vestige is
    // declared on sdga alone.
    EXPECT_EQ(descriptor->FindKnob("topics") != nullptr,
              descriptor->name == "sdga")
        << descriptor->name;
    EXPECT_EQ(descriptor->FindKnob("no_such_knob"), nullptr)
        << descriptor->name;
    for (const auto& knob : descriptor->knobs) {
      SCOPED_TRACE(descriptor->name + std::string("/") + knob.name);
      EXPECT_FALSE(knob.name.empty());
      EXPECT_FALSE(knob.doc.empty());
      // The rendered line carries the name and the default so
      // `solvers --verbose` / DescribeSolvers are self-describing.
      const std::string line = core::FormatKnobSpec(knob);
      EXPECT_NE(line.find(knob.name), std::string::npos);
      EXPECT_NE(line.find(core::KnobTypeToString(knob.type)),
                std::string::npos);
      // Declared defaults must satisfy their own spec.
      EXPECT_TRUE(core::ParseKnobValue(knob, knob.default_value).ok());
    }
  }
  // The update pipeline shares the same schema machinery.
  const auto& update_knobs = core::IncrementalResolveKnobSpecs();
  EXPECT_FALSE(update_knobs.empty());
  bool has_refine = false;
  for (const auto& knob : update_knobs) {
    if (knob.name == "update_refine") has_refine = true;
    EXPECT_NE(knob.name, "topics");
  }
  EXPECT_TRUE(has_refine);
  core::SolverRunOptions cold;
  cold.extra["update_refine"] = "cold";
  EXPECT_EQ(core::DecodeKnobs("update", update_knobs, cold).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, RunUnifiedDispatchMatchesLegacyWrappers) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();

  core::SolverRequest solve;
  solve.kind = core::SolverRequest::Kind::kSolveCra;
  solve.solver = "sdga";
  auto response = registry.Run(solve, instance);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->assignment.has_value());
  EXPECT_GE(response->seconds, 0.0);
  auto legacy = registry.SolveCra("sdga", instance);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(response->assignment->TotalScore(), legacy->TotalScore());

  core::SolverRequest refine;
  refine.kind = core::SolverRequest::Kind::kRefineCra;
  refine.solver = "sra";
  refine.initial = &*response->assignment;
  auto refined = registry.Run(refine, instance);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  ASSERT_TRUE(refined->assignment.has_value());
  EXPECT_GE(refined->assignment->TotalScore(), legacy->TotalScore());
  // A refine request without an initial assignment is a caller bug.
  refine.initial = nullptr;
  EXPECT_EQ(registry.Run(refine, instance).status().code(),
            StatusCode::kInvalidArgument);

  core::SolverRequest topk;
  topk.kind = core::SolverRequest::Kind::kSolveJraTopK;
  topk.solver = "bba";
  topk.paper = 2;
  topk.k = 3;
  auto groups = registry.Run(topk, instance);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups->jra.size(), 3u);
  EXPECT_FALSE(groups->assignment.has_value());

  core::SolverRequest jra;
  jra.kind = core::SolverRequest::Kind::kSolveJra;
  jra.solver = "bfs";
  jra.paper = 2;
  auto single = registry.Run(jra, instance);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_EQ(single->jra.size(), 1u);
  EXPECT_NEAR(single->jra[0].score, groups->jra[0].score, 1e-9);
}

TEST(KnobSchemaTest, ParseKnobValueAcceptsExactlyTheTypedSpellings) {
  core::KnobSpec flag;
  flag.name = "flag";
  flag.type = core::KnobType::kBool;
  for (const char* yes : {"true", "1", "on"}) {
    auto value = core::ParseKnobValue(flag, yes);
    ASSERT_TRUE(value.ok()) << yes;
    EXPECT_TRUE(std::get<bool>(*value)) << yes;
  }
  for (const char* no : {"false", "0", "off"}) {
    auto value = core::ParseKnobValue(flag, no);
    ASSERT_TRUE(value.ok()) << no;
    EXPECT_FALSE(std::get<bool>(*value)) << no;
  }
  EXPECT_EQ(core::ParseKnobValue(flag, "yes").status().code(),
            StatusCode::kInvalidArgument);

  core::KnobSpec count;
  count.name = "count";
  count.type = core::KnobType::kInt;
  EXPECT_EQ(std::get<int>(*core::ParseKnobValue(count, "42")), 42);
  EXPECT_EQ(core::ParseKnobValue(count, "text").status().code(),
            StatusCode::kInvalidArgument);
  // Values outside int range are rejected, not truncated, and so is any
  // spelling outside the one number grammar (sign, blank, hex).
  for (const char* bad : {"4294967297", "+42", " 42", "42 ", "0x2a"}) {
    EXPECT_EQ(core::ParseKnobValue(count, bad).status().message(),
              std::string("option 'count': '") + bad +
                  "' is not an integer in range");
  }

  core::KnobSpec rate;
  rate.name = "rate";
  rate.type = core::KnobType::kDouble;
  EXPECT_EQ(std::get<double>(*core::ParseKnobValue(rate, "2.25")), 2.25);
  for (const char* bad : {"text", "nan", "inf", "-inf", "+2.25", " 2.25",
                          "0x1p3", "1e400"}) {
    auto value = core::ParseKnobValue(rate, bad);
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(value.status().message().find("'rate'"), std::string::npos);
  }

  core::KnobSpec label;
  label.name = "label";
  EXPECT_EQ(std::get<std::string>(*core::ParseKnobValue(label, "text")),
            "text");
}

// Every plain field of the typed options, so two decodes compare member
// by member (the callables — cancel, progress, trace — are left out).
auto PlainFields(const core::TypedOptions& o) {
  return std::tie(
      o.cra.time_limit_seconds, o.cra.num_threads, o.sdga.time_limit_seconds,
      o.sdga.num_threads, o.sdga.confine_stage_workload,
      o.sra.time_limit_seconds, o.sra.num_threads, o.sra.backend,
      o.sra.gains, o.sra.convergence_window, o.sra.decay_lambda,
      o.sra.max_iterations, o.sra.uniform_probability, o.sra.seed,
      o.ls.time_limit_seconds, o.ls.num_threads, o.ls.max_stall_proposals,
      o.ls.seed,
      o.jra.time_limit_seconds, o.jra.max_nodes,
      o.bba.time_limit_seconds, o.bba.max_nodes, o.bba.use_bounding,
      o.bba.use_gain_branching, o.update_refine);
}

// The drift guard of the single schema: a knob's declared default is read
// off one field, so naming it explicitly must change nothing — in that
// field or in any other field the knob writes.
TEST(KnobSchemaTest, DeclaredDefaultsDecodeLikeAbsentKnobs) {
  auto check = [](const std::string& owner,
                  const std::vector<core::KnobSpec>& specs) {
    auto absent = core::DecodeKnobs(owner, specs, {});
    ASSERT_TRUE(absent.ok()) << absent.status().ToString();
    core::SolverRunOptions all;
    for (const core::KnobSpec& spec : specs) {
      SCOPED_TRACE(owner + "/" + spec.name);
      core::SolverRunOptions one;
      one.extra[spec.name] = spec.default_value;
      all.extra[spec.name] = spec.default_value;
      auto decoded = core::DecodeKnobs(owner, specs, one);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_TRUE(PlainFields(*decoded) == PlainFields(*absent));
    }
    auto decoded = core::DecodeKnobs(owner, specs, all);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(PlainFields(*decoded) == PlainFields(*absent)) << owner;
  };
  for (const auto* descriptor : core::SolverRegistry::Default().List()) {
    check(descriptor->name, descriptor->knobs);
  }
  check("update", core::IncrementalResolveKnobSpecs());
}

TEST(KnobSchemaTest, DecodeFillsEveryStructAKnobWrites) {
  core::SolverRunOptions options;
  options.time_limit_seconds = 3.0;
  options.seed = 5;
  options.extra = {{"threads", "4"},
                   {"lap", "hungarian"},
                   {"gains", "incremental"},
                   {"sra_omega", "3"},
                   {"sra_lambda", "0.2"}};
  auto typed = core::DecodeKnobs(
      "sra", core::SolverRegistry::Default().Find("sra")->knobs, options);
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  for (const core::CraOptions* cra :
       std::initializer_list<const core::CraOptions*>{
           &typed->cra, &typed->sdga, &typed->sra, &typed->ls}) {
    EXPECT_EQ(cra->time_limit_seconds, 3.0);
  }
  // threads reaches every parallel solver; local search is sequential.
  for (const core::CraOptions* cra :
       std::initializer_list<const core::CraOptions*>{
           &typed->cra, &typed->sdga, &typed->sra}) {
    EXPECT_EQ(cra->num_threads, 4);
  }
  EXPECT_EQ(typed->ls.num_threads, 1);
  EXPECT_EQ(typed->sra.backend, core::LapBackend::kHungarian);
  EXPECT_EQ(typed->sra.gains, core::GainMode::kIncremental);
  EXPECT_EQ(typed->sra.convergence_window, 3);
  EXPECT_EQ(typed->sra.decay_lambda, 0.2);
  EXPECT_EQ(typed->sra.seed, 5u);
  EXPECT_EQ(typed->ls.seed, 5u);

  // The stage pipelines run one engine and one gain mode: lap=auction,
  // lap=mcf, gains=rebuild and the retired lap_topk are rejected, naming
  // the knob. lap is declared on sdga and sra only and gains on sra only,
  // so elsewhere they are unknown options like any other; ls takes none.
  const auto declares = [](const std::string& solver, const std::string& key) {
    return (key == "lap" && (solver == "sdga" || solver == "sra")) ||
           (key == "gains" && solver == "sra");
  };
  for (const char* solver : {"sdga", "sdga-sra", "sdga-ls", "sra", "ls"}) {
    for (const auto& [key, value] :
         {std::pair<const char*, const char*>{"lap", "auction"},
          {"lap", "mcf"},
          {"gains", "rebuild"},
          {"lap_topk", "8"},
          {"lap_epsilon", "0.5"}}) {
      SCOPED_TRACE(std::string(solver) + " " + key);
      core::SolverRunOptions bad;
      bad.extra[key] = value;
      auto rejected = core::DecodeKnobs(
          solver, core::SolverRegistry::Default().Find(solver)->knobs, bad);
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
      const std::string& message = rejected.status().message();
      const std::string expected =
          declares(solver, key)
              ? std::string("option '") + key + "': '" + value + "'"
          : std::string(solver) == "ls"
              ? std::string("'ls' takes no options (got '") + key + "')"
              : "'" + std::string(solver) + "' does not take option '" +
                    key + "'";
      EXPECT_NE(message.find(expected), std::string::npos) << message;
    }
  }
  // The update resolve declares neither vestige either.
  for (const char* key : {"lap", "gains"}) {
    core::SolverRunOptions bad;
    bad.extra[key] = "hungarian";
    auto rejected = core::DecodeKnobs(
        "update", core::IncrementalResolveKnobSpecs(), bad);
    EXPECT_NE(rejected.status().message().find(
                  std::string("'update' does not take option '") + key + "'"),
              std::string::npos)
        << rejected.status().message();
  }

  // ilp is one sequential JV solve with no knobs: the engine, its epsilon
  // and the thread count are unknown options there.
  const std::vector<core::KnobSpec>& ilp_knobs =
      core::SolverRegistry::Default().Find("ilp")->knobs;
  EXPECT_TRUE(ilp_knobs.empty());
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"lap", "mcf"},
        {"lap_epsilon", "0.5"},
        {"threads", "4"}}) {
    SCOPED_TRACE(std::string("ilp ") + key);
    core::SolverRunOptions bad;
    bad.extra[key] = value;
    auto rejected = core::DecodeKnobs("ilp", ilp_knobs, bad);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(rejected.status().message(),
              std::string("'ilp' takes no options (got '") + key + "')");
  }
}

// The resolve takes only the knobs its chosen refiner reads: sra takes
// threads, sra_omega and sra_lambda; ls and none take none of them, and
// a run that names one fails before any repair work instead of ignoring it.
TEST(KnobSchemaTest, ResolveRejectsKnobsItsRefinerIgnores) {
  const core::Instance instance = TinyInstance();
  auto sdga = core::SolveCraSdga(instance);
  ASSERT_TRUE(sdga.ok()) << sdga.status().ToString();
  for (const char* refine : {"ls", "none"}) {
    for (const auto& [key, value] :
         {std::pair<const char*, const char*>{"threads", "4"},
          {"sra_omega", "3"},
          {"sra_lambda", "2"}}) {
      SCOPED_TRACE(std::string(refine) + " " + key);
      core::SolverRunOptions options;
      options.extra["update_refine"] = refine;
      options.extra[key] = value;
      core::Assignment working = *sdga;
      auto rejected = core::IncrementalResolve(instance, &working, options);
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(rejected.status().message(),
                std::string("'update refine=") + refine +
                    "' does not take option '" + key +
                    "' (declared knobs: update_refine)");
      EXPECT_EQ(core::DecodeIncrementalResolveKnobs(options).status().message(),
                rejected.status().message());
    }
    core::SolverRunOptions bare;
    bare.extra["update_refine"] = refine;
    core::Assignment working = *sdga;
    EXPECT_TRUE(core::IncrementalResolve(instance, &working, bare).ok());
  }
  // refine=sra (the default) keeps the whole schema.
  core::SolverRunOptions sra;
  sra.extra = {{"threads", "4"}, {"sra_omega", "3"}, {"sra_lambda", "2"}};
  EXPECT_TRUE(core::DecodeIncrementalResolveKnobs(sra).ok());
  sra.extra["update_refine"] = "sra";
  auto decoded = core::DecodeIncrementalResolveKnobs(sra);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sra.num_threads, 4);
}

TEST(SolverRegistryTest, TimeLimitIsThreadedThrough) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  core::SolverRunOptions options;
  options.time_limit_seconds = 5.0;  // generous; must still terminate fast
  auto assignment = registry.SolveCra("sdga-sra", instance, options);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  EXPECT_TRUE(assignment->ValidateComplete().ok());
}

TEST(SolverRegistryTest, ConstructiveSolversHonorTinyTimeLimits) {
  // Pins the once-missing contract: ilp (transportation substrate) and rrap
  // (per-reviewer knapsacks) abort with kResourceExhausted instead of
  // running to completion when the budget is already spent.
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  core::SolverRunOptions options;
  options.time_limit_seconds = 1e-9;  // expired by the first poll
  for (const char* name : {"ilp", "rrap", "sdga", "greedy"}) {
    SCOPED_TRACE(name);
    auto result = registry.SolveCra(name, instance, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(SolverRegistryTest, PreCancelledTokenAbortsEverySolver) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto source = MakeCancelSource();
  source->store(true);
  core::SolverRunOptions options;
  options.cancel = source;
  for (const char* name : {"greedy", "brgg", "sdga", "sm", "ilp", "rrap"}) {
    SCOPED_TRACE(name);
    auto result = registry.SolveCra(name, instance, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  for (const char* name : {"bba", "bfs", "jra-ilp", "jra-cp"}) {
    SCOPED_TRACE(name);
    auto result = registry.SolveJra(name, instance, 0, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // Refiners follow the anytime contract for deadlines but still abort on
  // an explicit cancel — the caller said the result is no longer wanted.
  auto initial = registry.SolveCra("sdga", instance);
  ASSERT_TRUE(initial.ok());
  for (const char* name : {"sra", "ls"}) {
    SCOPED_TRACE(name);
    auto result = registry.RefineCra(name, instance, *initial, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(SolverProgressTest, SolversEmitMonotoneFrames) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  // Every anytime pipeline must emit at least one frame, with best scores
  // that never regress — the property `watch` clients rely on to render a
  // live convergence curve.
  for (const char* name : {"sdga", "sdga-sra", "sdga-ls", "ilp"}) {
    SCOPED_TRACE(name);
    std::vector<core::ProgressFrame> frames;
    core::SolverRunOptions options;
    options.progress = [&frames](const core::ProgressFrame& frame) {
      frames.push_back(frame);
    };
    auto result = registry.SolveCra(name, instance, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(frames.empty());
    for (size_t i = 1; i < frames.size(); ++i) {
      EXPECT_GE(frames[i].best_score, frames[i - 1].best_score)
          << "frame " << i << " regressed";
    }
    // The stream's last best matches the returned assignment — a frame
    // is a faithful preview of the result, not an estimate.
    EXPECT_DOUBLE_EQ(frames.back().best_score, result->TotalScore());
  }
}

TEST(SolverProgressTest, FrameStreamIsDeterministicForAFixedSeed) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto run = [&] {
    std::vector<std::pair<int64_t, double>> frames;
    core::SolverRunOptions options;
    options.seed = 99;
    options.progress = [&frames](const core::ProgressFrame& frame) {
      frames.emplace_back(frame.round, frame.best_score);
    };
    auto result = registry.SolveCra("sdga-sra", instance, options);
    WGRAP_CHECK(result.ok());
    return frames;
  };
  EXPECT_EQ(run(), run());
}

TEST(SolverProgressTest, CancelDuringSraStopsTheFrameStream) {
  const auto& registry = core::SolverRegistry::Default();
  const core::Instance instance = TinyInstance();
  auto initial = registry.SolveCra("sdga", instance);
  ASSERT_TRUE(initial.ok());
  // Cancel from inside the progress callback: the first SRA frame flips
  // the token, so the refiner must abort at its next poll site without
  // emitting a meaningfully longer stream.
  auto source = MakeCancelSource();
  int frames_seen = 0;
  core::SolverRunOptions options;
  options.cancel = source;
  options.progress = [&](const core::ProgressFrame&) {
    ++frames_seen;
    source->store(true);
  };
  auto result = registry.RefineCra("sra", instance, *initial, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GE(frames_seen, 1);
}

}  // namespace
}  // namespace wgrap
