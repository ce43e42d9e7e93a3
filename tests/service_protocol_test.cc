// The line protocol, pinned byte for byte: a scripted ServeStream session
// on stringstreams must produce exactly the frames predicted from the
// shared report formatters — the same property the CI serve smoke checks
// from bash against one-shot CLI output — plus the error-frame contract
// and a TCP round-trip through the socket transport.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/registry.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "fuzz_util.h"
#include "service/api.h"
#include "service/protocol.h"
#include "service/reports.h"
#include "service/tcp.h"

namespace wgrap::service {
namespace {

core::FuzzInstanceConfig Config() {
  core::FuzzInstanceConfig config;
  config.reviewers = 12;
  config.papers = 8;
  config.num_topics = 10;
  config.group_size = 3;
  config.seed = 99;
  return config;
}

std::string Ok(const std::string& payload) {
  return "ok " + std::to_string(payload.size()) + "\n" + payload;
}

std::string Err(StatusCode code, const std::string& message) {
  return std::string("err ") + StatusCodeToString(code) + " " +
         std::to_string(message.size()) + "\n" + message;
}

/// Appends `command <<N\npayload` framing.
void Send(std::string* script, const std::string& command,
          const std::string& payload) {
  *script += command + " <<" + std::to_string(payload.size()) + "\n" + payload;
}

TEST(ProtocolTest, ScriptedSessionIsByteExact) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = data::DatasetToCsv(*dataset);

  // Predict every payload with the same formatters the server uses; the
  // instance the server builds from the CSV must match this one exactly.
  auto instance =
      core::Instance::FromDataset(*dataset, core::MakeFuzzParams(Config()));
  ASSERT_TRUE(instance.ok());
  core::SolverRunOptions options;
  options.seed = 7;
  auto solved =
      core::SolverRegistry::Default().SolveCra("sdga-sra", *instance, options);
  ASSERT_TRUE(solved.ok());

  std::string script;
  script += "ping\n";
  script += "\n";  // blank lines between commands are ignored
  Send(&script, "open conf dp=3", csv);
  script += "sessions\n";
  script += "submit conf solve sdga-sra seed=7\n";
  script += "wait 1\n";
  script += "status 1\n";
  script += "result 1\n";
  script += "evaluate conf\n";
  script += "assignment conf\n";
  script += "close conf\n";
  script += "quit\n";
  script += "ping\n";  // never reached: quit ends the stream

  std::string expected;
  expected += Ok("pong\n");
  const std::string session_line =
      "session conf v1 P=8 R=12 T=10 unassigned\n";
  expected += Ok(session_line);
  expected += Ok(session_line);
  expected += Ok("job 1\n");
  const std::string report =
      SolveReportLine("sdga-sra", *instance, *solved, "");
  expected += Ok(report);
  expected += Ok("job 1 solve:sdga-sra done\n");
  expected += Ok(report);
  expected += Ok(EvaluationReport(*instance, *solved));
  expected += Ok(AssignmentCsv(*solved));
  expected += Ok("closed\n");
  expected += Ok("bye\n");

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(), expected);
}

TEST(ProtocolTest, MutateAndResolveRoundTrip) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());

  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf solve greedy\n";
  script += "wait 1\n";
  Send(&script, "mutate conf", "remove_reviewer 0\n");
  script += "resolve conf refine=sra\n";
  script += "wait 2\n";
  script += "quit\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  const std::string output = out.str();
  // Mutate reports the applied batch and the bumped session line; the
  // resolve job repairs to feasibility.
  EXPECT_NE(output.find("applied 1 updates"), std::string::npos) << output;
  EXPECT_NE(output.find("session conf v"), std::string::npos) << output;
  EXPECT_NE(output.find("incremental: score"), std::string::npos) << output;
  EXPECT_NE(output.find("feasible: yes"), std::string::npos) << output;
}

TEST(ProtocolTest, ZeroCoverageInstanceCannotAbortTheServer) {
  // Every reviewer covers only topic 1, every paper only topic 0, so
  // c(AI) = 0. The solve line prints optimality 0.0% and evaluate omits the
  // ratio (as for an infeasible AI) instead of dividing by zero; the
  // server keeps answering.
  const std::string csv =
      "kind,name,venue,h_index,t0,t1\n"
      "reviewer,ra,,1,0,1\n"
      "reviewer,rb,,1,0,1\n"
      "paper,pa,V,0,1,0\n"
      "paper,pb,V,0,1,0\n";
  std::string script;
  Send(&script, "open z dp=2", csv);
  script += "submit z solve sdga\n";
  script += "wait 1\n";
  script += "evaluate z\n";
  script += "ping\n";

  std::string expected;
  expected += Ok("session z v1 P=2 R=2 T=2 unassigned\n");
  expected += Ok("job 1\n");
  expected +=
      Ok("sdga: coverage 0.000 (optimality 0.0%), lowest paper 0.000\n");
  expected += Ok(
      "pairs: 4\nfeasible: yes\ncoverage score: 0.0000\n"
      "lowest paper coverage: 0.0000\n");
  expected += Ok("pong\n");

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(), expected);
}

TEST(ProtocolTest, NegativeWorkloadCannotAbortTheServer) {
  // Regression: a negative dr used to build an instance with dynamic δr,
  // and the session's InstanceUpdater then aborted on the mismatch. The
  // open is now rejected and the server keeps answering.
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  std::string script;
  Send(&script, "open s dp=3 dr=-3", data::DatasetToCsv(*dataset));
  script += "ping\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(),
            Err(StatusCode::kInvalidArgument,
                "reviewer_workload must be >= 0 (0 = minimal)") +
                Ok("pong\n"));
}

TEST(ProtocolTest, ZeroPaperInstanceCannotAbortTheServer) {
  // Regression: a reviewer-only dataset used to open as a P = 0 session;
  // sdga-ls then failed a CHECK sampling a paper and killed the server.
  // Both routes to a paperless instance are refused instead: the open
  // itself, and a batch removing the last paper (rolled back whole, so
  // the session keeps both papers and still solves).
  const std::string reviewers =
      "kind,name,venue,h_index,t0,t1\n"
      "reviewer,ra,,1,0,1\n"
      "reviewer,rb,,1,1,0\n"
      "reviewer,rc,,1,1,1\n"
      "reviewer,rd,,1,0.5,1\n";
  const std::string papers = "paper,pa,V,0,1,0\npaper,pb,V,0,0.5,0.5\n";
  std::string script;
  Send(&script, "open s dp=3", reviewers);
  script += "submit s solve sdga-ls\n";
  Send(&script, "open t dp=3", reviewers + papers);
  Send(&script, "mutate t", "remove_paper 0\nremove_paper 0\n");
  script += "submit t solve sdga-ls\n";
  script += "wait 1\n";
  script += "ping\n";

  std::string expected;
  expected += Err(StatusCode::kInvalidArgument, "no papers");
  expected += Err(StatusCode::kNotFound, "no session 's'");
  expected += Ok("session t v1 P=2 R=4 T=2 unassigned\n");
  expected += Err(StatusCode::kInvalidArgument, "cannot remove the last paper");
  expected += Ok("job 1\n");
  expected += Ok(
      "sdga-ls: coverage 2.000 (optimality 100.0%), lowest paper 1.000\n");
  expected += Ok("pong\n");

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(), expected);
}

// Numeric keys take finite numbers only, like every registry knob:
// "budget=nan" is an error, not an unlimited budget.
TEST(ProtocolTest, NonFiniteBudgetIsRejected) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf solve sdga budget=nan\n";
  script += "resolve conf budget=inf\n";
  script += "ping\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(),
            Ok("session conf v1 P=8 R=12 T=10 unassigned\n") +
                Err(StatusCode::kInvalidArgument,
                    "'budget' must be a finite number, got 'nan'") +
                Err(StatusCode::kInvalidArgument,
                    "'budget' must be a finite number, got 'inf'") +
                Ok("pong\n"));
}

// A negative budget is as invalid as a non-finite one (0 stays
// "unlimited"), on submit and resolve alike, and every number key takes
// one whole base-10 token. `open` refuses a key it does not know, the
// retired topic kernel option included: the instance picks its kernel.
TEST(ProtocolTest, NegativeBudgetAndSignedSpellingsAreRejected) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = data::DatasetToCsv(*dataset);
  std::string script;
  Send(&script, "open conf dp=3 topics=sparse", csv);
  Send(&script, "open conf dp=+3", csv);
  Send(&script, "open conf dp=3", csv);
  script += "submit conf solve greedy budget=-5\n";
  script += "resolve conf budget=-0.5\n";
  script += "submit conf jra bba paper=0x1\n";
  script += "submit conf solve greedy budget=0\n";
  script += "ping\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  api.jobs().Drain();
  EXPECT_EQ(out.str(),
            Err(StatusCode::kInvalidArgument,
                "unknown open option 'topics'") +
                Err(StatusCode::kInvalidArgument,
                    "'dp' must be an integer, got '+3'") +
                Ok("session conf v1 P=8 R=12 T=10 unassigned\n") +
                Err(StatusCode::kInvalidArgument,
                    "'budget' must be a finite number, got '-5'") +
                Err(StatusCode::kInvalidArgument,
                    "'budget' must be a finite number, got '-0.5'") +
                Err(StatusCode::kInvalidArgument,
                    "'paper' must be an integer, got '0x1'") +
                Ok("job 1\n") + Ok("pong\n"));
}

// Seeds are unsigned over the whole uint64 range, like the CLI's --seed, so
// any CLI run replays through serve; a sign or a wrap is refused.
TEST(ProtocolTest, SeedsTakeTheFullUnsignedRange) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  auto instance =
      core::Instance::FromDataset(*dataset, core::MakeFuzzParams(Config()));
  ASSERT_TRUE(instance.ok());
  core::SolverRunOptions options;
  options.seed = UINT64_MAX;
  auto solved =
      core::SolverRegistry::Default().SolveCra("sdga-sra", *instance, options);
  ASSERT_TRUE(solved.ok());

  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf solve sdga-sra seed=18446744073709551615\n";
  script += "wait 1\n";
  script += "submit conf solve sdga-sra seed=-1\n";
  script += "resolve conf seed=+1\n";
  script += "submit conf solve sdga-sra seed=18446744073709551616\n";
  script += "ping\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  const auto refused = [](const std::string& seed) {
    return Err(StatusCode::kInvalidArgument,
               "'seed' must be a non-negative integer, got '" + seed + "'");
  };
  EXPECT_EQ(out.str(),
            Ok("session conf v1 P=8 R=12 T=10 unassigned\n") +
                Ok("job 1\n") +
                Ok(SolveReportLine("sdga-sra", *instance, *solved, "")) +
                refused("-1") + refused("+1") +
                refused("18446744073709551616") + Ok("pong\n"));
}

// install takes the bool spellings every bool knob takes.
TEST(ProtocolTest, InstallTakesTheKnobBoolSpellings) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf solve greedy install=0\n";
  script += "wait 1\n";
  script += "sessions\n";
  script += "submit conf solve greedy install=on\n";
  script += "wait 2\n";
  script += "sessions\n";
  script += "submit conf solve greedy install=yes\n";
  script += "ping\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  const std::string reply = out.str();
  const size_t kept = reply.find("session conf v1 P=8 R=12 T=10 unassigned\n",
                                 reply.find("job 1\n"));
  const size_t installed =
      reply.find("session conf v2 P=8 R=12 T=10 assigned\n");
  EXPECT_NE(kept, std::string::npos) << reply;
  EXPECT_NE(installed, std::string::npos) << reply;
  EXPECT_LT(kept, installed) << reply;
  EXPECT_NE(reply.find(Err(StatusCode::kInvalidArgument,
                           "'install' must be true/false, 1/0 or on/off, "
                           "got 'yes'") +
                       Ok("pong\n")),
            std::string::npos)
      << reply;
}

// Regression: BBA top-k prunes nothing until it holds k groups, so
// topk=1000000000 used to enumerate and store every C(R, dp) group (209 MB
// and a 1.1M-line reply on a 189-reviewer pool). The registry caps k at
// kMaxJraTopK, and submit runs the registry's checks, so a k outside
// [1, kMaxJraTopK] fails the submit itself: no job id is handed out.
TEST(ProtocolTest, HugeTopKIsRejected) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf jra bba topk=0 paper=0\n";
  script += "submit conf jra bba topk=1000000000 paper=0\n";
  script += "submit conf jra bba topk=1001 paper=1\n";
  script += "submit conf jra bba topk=1000 paper=2\n";
  script += "wait 1\n";
  script += "ping\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  const std::string rejected =
      Err(StatusCode::kInvalidArgument, "top-k requires k <= 1000");
  const std::string head =
      Ok("session conf v1 P=8 R=12 T=10 unassigned\n") +
      Err(StatusCode::kInvalidArgument, "top-k requires k >= 1") + rejected +
      rejected + Ok("job 1\n");
  const std::string reply = out.str();
  ASSERT_EQ(reply.substr(0, head.size()), head);
  // k = 1000 is allowed; the 12-reviewer pool has C(12, 3) = 220 groups,
  // and the session still answers afterwards.
  EXPECT_NE(reply.find("#220 score"), std::string::npos);
  EXPECT_EQ(reply.find("#221 score"), std::string::npos);
  EXPECT_EQ(reply.substr(reply.size() - 5), "pong\n");
}

TEST(ProtocolTest, ErrorFramesCarryStatusCodes) {
  ServiceApi api;
  std::string script;
  script += "bogus\n";
  script += "evaluate nowhere\n";
  script += "submit nowhere solve sdga-sra\n";
  script += "open x <<trailing\n";  // malformed size suffix → treated as args
  script += "result 7\n";
  script += "status notanumber\n";
  script += "solvers verbose extra\n";
  script += "quit\n";

  std::string expected;
  expected += Err(StatusCode::kInvalidArgument, "unknown command 'bogus'");
  expected += Err(StatusCode::kNotFound, "no session 'nowhere'");
  expected += Err(StatusCode::kNotFound, "no session 'nowhere'");
  // `<<trailing` is not a byte count, so it parses as a stray argument.
  expected += Err(StatusCode::kInvalidArgument,
                  "expected key=value, got '<<trailing'");
  expected += Err(StatusCode::kNotFound, "no job 7");
  expected += Err(StatusCode::kInvalidArgument, "usage: status <job-id>");
  expected += Err(StatusCode::kInvalidArgument, "usage: solvers [verbose]");
  expected += Ok("bye\n");

  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(), expected);
}

TEST(ProtocolTest, KnobErrorsFailTheSubmitWithoutAJobId) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  // Min-cost flow is no longer a stage engine, ilp takes no lap_epsilon,
  // and the resolve declares no lap at all; submit and resolve check their
  // knobs before handing out a job id, and the session keeps serving.
  script += "submit conf solve sdga lap=mcf\n";
  script += "submit conf solve ilp lap_epsilon=0.5\n";
  script += "submit conf solve greedy\n";
  script += "wait 1\n";
  script += "resolve conf lap=mcf\n";
  script += "resolve conf refine=none\n";
  script += "quit\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  const std::string stage_engine =
      Err(StatusCode::kInvalidArgument,
          "option 'lap': 'mcf' (use hungarian)");
  const std::string rule =
      Err(StatusCode::kInvalidArgument,
          "'ilp' takes no options (got 'lap_epsilon')");
  const std::string session = Ok("session conf v1 P=8 R=12 T=10 unassigned\n");
  const std::string output = out.str();
  ASSERT_EQ(output.rfind(session + stage_engine + rule + Ok("job 1\n"), 0),
            0u)
      << output;
  const std::string resolve_lap =
      Err(StatusCode::kInvalidArgument,
          "'update' does not take option 'lap' (declared knobs: threads, "
          "sra_omega, sra_lambda, update_refine)");
  const std::size_t resolved = output.find(resolve_lap + Ok("job 2\n"));
  EXPECT_NE(resolved, std::string::npos) << output;
}

TEST(ProtocolTest, ResolveRefusesKnobsItsRefinerIgnores) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf solve greedy\n";
  script += "wait 1\n";
  // ls and none read no refiner knob, so naming one fails the resolve
  // without a job id; refine=sra keeps threads and the sra_* knobs.
  script += "resolve conf refine=ls threads=2\n";
  script += "resolve conf refine=none threads=2\n";
  script += "resolve conf refine=none sra_omega=3\n";
  script += "resolve conf refine=sra threads=2\n";
  script += "resolve conf refine=ls\n";
  script += "quit\n";

  ServiceApi api;
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);
  const auto refused = [](const std::string& refine, const std::string& key) {
    return Err(StatusCode::kInvalidArgument,
               "'update refine=" + refine + "' does not take option '" + key +
                   "' (declared knobs: update_refine)");
  };
  const std::string expected = refused("ls", "threads") +
                               refused("none", "threads") +
                               refused("none", "sra_omega") +
                               Ok("job 2\n") + Ok("job 3\n") + Ok("bye\n");
  const std::string output = out.str();
  ASSERT_GE(output.size(), expected.size()) << output;
  EXPECT_EQ(output.substr(output.size() - expected.size()), expected)
      << output;
}

TEST(ProtocolTest, SolversVerboseRendersKnobSchemas) {
  ServiceApi api;
  std::istringstream in("solvers verbose\nquit\n");
  std::ostringstream out;
  ServeStream(in, out, api);
  const std::string expected =
      Ok(SolversReport(core::SolverRegistry::Default(), true)) + Ok("bye\n");
  EXPECT_EQ(out.str(), expected);
  // The self-describing part: schemas mention the knob grammar.
  EXPECT_NE(out.str().find("sdga-sra knobs:"), std::string::npos);
  EXPECT_NE(out.str().find("sra_omega"), std::string::npos);
}

TEST(ProtocolTest, TruncatedPayloadIsAnError) {
  ServiceApi api;
  std::istringstream in("open conf <<100\nshort");
  std::ostringstream out;
  ServeStream(in, out, api);
  EXPECT_EQ(out.str(), Err(StatusCode::kInvalidArgument,
                           "truncated payload: expected 100 bytes"));
}

TEST(ProtocolTest, AbsurdPayloadSizeIsRefusedWithoutAllocating) {
  // Regression: `open s <<9999999999999` used to drive an unbounded
  // payload.resize(). Now it is refused before any allocation and the
  // stream keeps serving — no bytes follow the frame, so the next line is
  // the next command.
  ServiceApi api;
  std::istringstream in("open conf <<9999999999999\nping\nquit\n");
  std::ostringstream out;
  ServeStream(in, out, api);
  const std::string expected =
      Err(StatusCode::kInvalidArgument,
          "payload of 9999999999999 bytes exceeds the 67108864-byte limit") +
      Ok("pong\n") + Ok("bye\n");
  EXPECT_EQ(out.str(), expected);
}

TEST(ProtocolTest, PayloadCapIsOverridable) {
  ServiceApi api;
  ServeOptions options;
  options.max_payload_bytes = 8;
  // 9 bytes is over the tiny cap; 3 bytes is fine (and reaches the CSV
  // parser, proving the under-cap path still reads payloads).
  std::istringstream in("open conf <<9\nopen conf <<3\nabcquit\n");
  std::ostringstream out;
  ServeStream(in, out, api, options);
  const std::string expected =
      Err(StatusCode::kInvalidArgument,
          "payload of 9 bytes exceeds the 8-byte limit") +
      Err(StatusCode::kInvalidArgument, "missing or malformed header row") +
      Ok("bye\n");
  EXPECT_EQ(out.str(), expected);
}

TEST(ProtocolTest, FailpointsVerbArmsTripsAndClears) {
  failpoint::DisarmAll();
  ServiceApi api;
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = data::DatasetToCsv(*dataset);

  std::string script;
  script += "failpoints arm io.parse error\n";
  Send(&script, "open conf dp=3", csv);  // trips io.parse → err
  script += "failpoints\n";
  script += "failpoints disarm io.parse\n";
  Send(&script, "open conf dp=3", csv);  // succeeds now
  script += "failpoints bogus\n";
  script += "failpoints clear\n";
  script += "quit\n";

  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);

  const std::string text = out.str();
  EXPECT_NE(text.find(Ok("armed io.parse\n")), std::string::npos);
  // The armed open failed with the injected fault, naming the site.
  EXPECT_NE(text.find("err Internal"), std::string::npos);
  EXPECT_NE(text.find("failpoint 'io.parse' injected Internal"),
            std::string::npos);
  // The listing shows the armed site with its trip count.
  EXPECT_NE(text.find(Ok("io.parse error:Internal trips=1\n")),
            std::string::npos);
  EXPECT_NE(text.find(Ok("disarmed io.parse\n")), std::string::npos);
  // The disarmed open succeeded.
  EXPECT_NE(text.find("session conf v1"), std::string::npos);
  EXPECT_NE(text.find("usage: failpoints"), std::string::npos);
  EXPECT_NE(text.find(Ok("cleared\n")), std::string::npos);
  failpoint::DisarmAll();
}

TEST(ProtocolTest, WatchStreamsProgressFramesThenTheWaitReply) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());

  ServiceApi api;
  {
    std::string script;
    Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
    script += "submit conf solve sdga-sra seed=7\n";
    std::istringstream in(script);
    std::ostringstream out;
    ServeStream(in, out, api);
  }
  // Sink path (what ServeStream uses): frames arrive through the callback
  // before the final reply, each in the fixed progress format.
  std::vector<std::string> streamed;
  Reply live = HandleCommand(api, "watch 1", "",
                             [&streamed](const std::string& frame) {
                               streamed.push_back(frame);
                             });
  ASSERT_TRUE(live.status.ok()) << live.status.ToString();
  ASSERT_FALSE(streamed.empty());
  for (const std::string& frame : streamed) {
    EXPECT_EQ(frame.rfind("progress ", 0), 0u) << frame;
  }
  // The final payload is exactly the `wait` reply (no telemetry in it).
  Reply waited = HandleCommand(api, "wait 1", "");
  EXPECT_EQ(live.payload, waited.payload);
  EXPECT_EQ(live.payload.find("progress"), std::string::npos);

  // Sinkless path: same frames, collected into Reply::frames — and a
  // second watch of the finished job replays the identical stream.
  Reply collected = HandleCommand(api, "watch 1", "");
  ASSERT_TRUE(collected.status.ok());
  EXPECT_EQ(collected.frames, streamed);
  EXPECT_EQ(collected.payload, waited.payload);

  // Unknown job: the err frame, no stream.
  Reply missing = HandleCommand(api, "watch 99", "");
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(missing.frames.empty());
}

TEST(ProtocolTest, WatchAnEvictedJobReportsResourceExhausted) {
  auto dataset = core::MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  // max_results=1: the first job's payload (and frames) get evicted by
  // the second.
  ServiceApi api(ServiceOptions{/*job_workers=*/1, /*max_results=*/1});
  std::string script;
  Send(&script, "open conf dp=3", data::DatasetToCsv(*dataset));
  script += "submit conf solve greedy\n";
  script += "wait 1\n";
  script += "submit conf solve greedy\n";
  script += "wait 2\n";
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(in, out, api);

  Reply evicted = HandleCommand(api, "watch 1", "");
  EXPECT_EQ(evicted.status.code(), StatusCode::kResourceExhausted);
  Reply kept = HandleCommand(api, "watch 2", "");
  EXPECT_TRUE(kept.status.ok());
}

TEST(ProtocolTest, StatsRendersTheMetricsScrape) {
  ServiceApi api;
  Reply reply = HandleCommand(api, "stats", "");
  ASSERT_TRUE(reply.status.ok());
  if (obs::Enabled()) {
    // The endpoint histograms and job counters registered by this
    // process's earlier activity (any test in this binary) show up on the
    // page; at minimum the page renders without error. Force one metric
    // so the assertion is self-contained:
    obs::Registry::Global().GetCounter("wgrap_test_probe_total")->Add();
    reply = HandleCommand(api, "stats", "");
    EXPECT_NE(reply.payload.find("wgrap_test_probe_total"),
              std::string::npos);
  } else {
    EXPECT_TRUE(reply.payload.empty());
  }
  EXPECT_EQ(HandleCommand(api, "stats extra", "").status.code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpServerTest, RoundTripOverASocket) {
  ServiceApi api;
  TcpServer server(&api);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "ping\nquit\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string received;
  char buffer[256];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    received.append(buffer, static_cast<size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(received, Ok("pong\n") + Ok("bye\n"));
  server.Stop();
}

}  // namespace
}  // namespace wgrap::service
