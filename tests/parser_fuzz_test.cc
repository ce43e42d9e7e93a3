// Seeded mangling fuzz over the text parsers a client reaches: dataset and
// assignment CSV rows, mutation-script lines, and protocol open / submit /
// resolve / mutate lines, and the `<<N` payload framing (N off by a few
// bytes, not a number, huge or over the limit, a payload cut short, a
// command inside a payload). Each case takes a valid input and applies one
// to three fuzz_util Mangle edits (hostile number spellings, cut lines,
// stray characters) or one framing edit. A parser must answer ok or fail with kInvalidArgument or
// kOutOfRange; a session fed the mangled lines must answer every one with
// a well-formed frame, never abort, and still answer `pong`. The seeds are
// fixed, so a failure reproduces from its seed; the suite stays well under
// a second under ASan.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/update.h"
#include "data/io.h"
#include "fuzz_util.h"
#include "service/api.h"
#include "service/protocol.h"

namespace wgrap::core {
namespace {

FuzzInstanceConfig Config() {
  FuzzInstanceConfig config;
  config.reviewers = 6;
  config.papers = 4;
  config.num_topics = 4;
  config.group_size = 2;
  config.seed = 5;
  return config;
}

void ExpectParsedOrRefused(const Status& status, const std::string& input) {
  EXPECT_TRUE(status.ok() || status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kOutOfRange)
      << status.ToString() << "\n--- input ---\n"
      << input;
}

TEST(ParserFuzzTest, CsvRowsParseOrFailCleanly) {
  auto dataset = MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::vector<std::string> rows =
      TextLines(data::DatasetToCsv(*dataset));
  const std::vector<std::string> pairs = {"paper_id,reviewer_id", "0,3",
                                          "1,5", "2,0", "3,1"};
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const std::string csv = MangleOneLine(rows, &rng);
    ExpectParsedOrRefused(data::DatasetFromCsv(csv).status(), csv);
    const std::string assignment = MangleOneLine(pairs, &rng);
    ExpectParsedOrRefused(data::AssignmentPairsFromCsv(assignment).status(),
                          assignment);
  }
}

const std::vector<std::string>& ScriptLines() {
  static const std::vector<std::string> lines = {
      "remove_paper 1",
      "add_paper 0.25 0 0.75 0",
      "add_reviewer 1 0 0.5 0   # late sign-up",
      "remove_reviewer 2",
      "set_coi 4 1 on",
      "set_bid 1 4 0.625",
      "set_paper_topics 0 0.5 0.5 0 0",
      "set_reviewer_topics 5 0 1 0 0.125"};
  return lines;
}

// A parsed script is also applied, so the ids and vectors the grammar lets
// through meet the updater's checks rather than a CHECK.
TEST(ParserFuzzTest, MutationScriptLinesParseOrFailCleanly) {
  auto base = MakeFuzzInstance(Config());
  ASSERT_TRUE(base.ok());
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const std::string script = MangleOneLine(ScriptLines(), &rng);
    auto updates = ParseMutationScript(script);
    ExpectParsedOrRefused(updates.status(), script);
    if (!updates.ok()) continue;
    Instance instance = *base;
    InstanceUpdater updater(&instance, MakeFuzzParams(Config()));
    for (const InstanceUpdate& update : *updates) {
      const Status applied = updater.Apply(update).status();
      // set_bid on an instance without bids is a precondition, not a parse,
      // failure.
      if (applied.code() == StatusCode::kFailedPrecondition) continue;
      ExpectParsedOrRefused(applied, script);
    }
  }
}

// Splits a ServeStream transcript into frames, checking each header's byte
// count; returns the error codes seen and the last payload.
struct Transcript {
  std::vector<std::string> codes;
  std::string last_payload;
  bool well_formed = true;
};

Transcript ReadFrames(const std::string& out) {
  Transcript transcript;
  size_t at = 0;
  while (at < out.size()) {
    const size_t eol = out.find('\n', at);
    if (eol == std::string::npos) return {{}, {}, false};
    const std::vector<std::string> header =
        SplitTokens(std::string_view(out).substr(at, eol - at));
    uint64_t size = 0;
    const bool ok_frame = header.size() == 2 && header[0] == "ok";
    const bool err_frame = header.size() == 3 && header[0] == "err";
    if ((!ok_frame && !err_frame) || !ParseUint64(header.back(), &size) ||
        eol + 1 + size > out.size()) {
      return {{}, {}, false};
    }
    if (err_frame) transcript.codes.push_back(header[1]);
    transcript.last_payload = out.substr(eol + 1, size);
    at = eol + 1 + size;
  }
  return transcript;
}

void Send(std::string* script, const std::string& command,
          const std::string& payload) {
  *script += command + " <<" + std::to_string(payload.size()) + "\n" + payload;
}

TEST(ParserFuzzTest, SessionSurvivesMangledCommandLines) {
  auto dataset = MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = data::DatasetToCsv(*dataset);
  const std::vector<std::string> commands = {
      "submit s solve greedy budget=0.5 seed=7 install=1",
      "submit s jra bba paper=1 topk=3 seed=18446744073709551615",
      "submit s refine sra seed=3 sra_omega=4 install=off",
      "resolve s refine=none budget=0 seed=9",
      "open t dp=2 dr=3 scoring=cR topics=sparse"};
  for (uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed);
    std::string script;
    Send(&script, "open s dp=2", csv);
    script += "submit s solve greedy\nwait 1\n";
    for (int i = 0; i < 4; ++i) {
      const std::string line =
          Mangle(commands[rng.NextBounded(commands.size())], &rng);
      // A mangled line that still ends in a frame marker would swallow the
      // next command as its payload; every other line stands alone.
      if (line.find("<<") != std::string::npos) continue;
      if (line.rfind("open", 0) == 0) {
        Send(&script, line, csv);
      } else {
        script += line + "\n";
      }
    }
    Send(&script, "mutate s", MangleOneLine(ScriptLines(), &rng));
    script += "ping\n";

    service::ServiceApi api;
    std::istringstream in(script);
    std::ostringstream out;
    service::ServeStream(in, out, api);
    api.jobs().Drain();
    const Transcript transcript = ReadFrames(out.str());
    ASSERT_TRUE(transcript.well_formed) << script << "\n---\n" << out.str();
    EXPECT_EQ(transcript.last_payload, "pong\n") << script;
    // Parse errors are InvalidArgument or OutOfRange; a mangled solver or
    // session name may also miss (NotFound), and a mutate may hit an
    // instance without bids (FailedPrecondition).
    for (const std::string& code : transcript.codes) {
      EXPECT_TRUE(code == "InvalidArgument" || code == "OutOfRange" ||
                  code == "NotFound" || code == "FailedPrecondition")
          << code << "\n" << script << "\n---\n" << out.str();
    }
  }
}

// One framed command with its framing mangled, appended to `script`. No
// edit runs a payload past the end of the stream; the truncated case is
// its own connection below.
void SendMangledFrame(std::string* script, const std::string& command,
                      const std::string& payload, int64_t max_payload,
                      Rng* rng) {
  const int64_t n = static_cast<int64_t>(payload.size());
  std::string marker;
  std::string body = payload;
  switch (rng->NextInt(0, 6)) {
    case 0: {  // N a few bytes short: the rest falls through as commands
      marker = std::to_string(std::max<int64_t>(0, n - rng->NextInt(1, 8)));
      break;
    }
    case 1: {  // N a few bytes long: the payload eats the next line's head
      marker = std::to_string(n + rng->NextInt(1, 8));
      break;
    }
    case 2: {  // not a number: the line is a command, the payload lines too
      const char* spellings[] = {"12a", "-5", "+5", " 5", "0x10", "5 ", "",
                                 "1e3", "\xff"};
      marker = spellings[rng->NextBounded(9)];
      break;
    }
    case 3: {  // huge or just over the limit: refused without reading
      const std::string spellings[] = {
          "99999999999999999999999", "9223372036854775807",
          "9223372036854775808", std::to_string(max_payload + 1)};
      marker = spellings[rng->NextBounded(4)];
      break;
    }
    case 4: {  // a second command inside the payload: data, never run
      const std::string inner[] = {"quit\n", "ping\n",
                                   "open x <<3\nabc",
                                   "submit s solve greedy\nwait 1\n"};
      body = inner[rng->NextBounded(4)] + payload;
      marker = std::to_string(body.size());
      break;
    }
    default: {  // a well-formed frame around a mangled payload
      body = Mangle(payload, rng);
      marker = std::to_string(body.size());
      break;
    }
  }
  *script += command + " <<" + marker + "\n" + body;
}

// Seeded mangling of the `<<N` framing itself. Each session opens s, sends
// four framed commands with mangled framing, then blank lines (longer than
// any overrun) and `ping`: it must answer every frame well-formed, with
// only parse-class errors, and end in `pong` — so no framing edit lets a
// payload's `quit` run or the stream desynchronize for good. A second
// connection to the same server then sends a payload cut short, which
// must be refused as truncated, and a third still gets `pong`.
TEST(ParserFuzzTest, PayloadFramingSurvivesMangling) {
  auto dataset = MakeFuzzDataset(Config());
  ASSERT_TRUE(dataset.ok());
  const std::string csv = data::DatasetToCsv(*dataset);
  const std::string script_text = StrJoin(ScriptLines(), "\n") + "\n";
  service::ServeOptions options;
  options.max_payload_bytes = 4096;
  ASSERT_LT(static_cast<int64_t>(csv.size()), options.max_payload_bytes);
  const std::pair<std::string, std::string> frames[] = {
      {"open t dp=2", csv},
      {"mutate s", script_text},
      {"put-assignment s", "paper_id,reviewer_id\n0,1\n0,2\n"},
      {"open u dp=2 topics=sparse", csv}};
  for (uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(900 + seed);
    std::string script;
    Send(&script, "open s dp=2", csv);
    for (int i = 0; i < 4; ++i) {
      const auto& [command, payload] = frames[rng.NextBounded(4)];
      SendMangledFrame(&script, command, payload, options.max_payload_bytes,
                       &rng);
    }
    script += std::string(16, '\n') + "ping\n";

    service::ServiceApi api;
    std::istringstream in(script);
    std::ostringstream out;
    service::ServeStream(in, out, api, options);
    const Transcript transcript = ReadFrames(out.str());
    ASSERT_TRUE(transcript.well_formed) << script << "\n---\n" << out.str();
    EXPECT_EQ(transcript.last_payload, "pong\n") << script;
    // Framing and payload errors are InvalidArgument or OutOfRange; a cut
    // assignment or script may also leave a precondition unmet.
    for (const std::string& code : transcript.codes) {
      EXPECT_TRUE(code == "InvalidArgument" || code == "OutOfRange" ||
                  code == "FailedPrecondition")
          << code << "\n" << script << "\n---\n" << out.str();
    }

    // A payload cut short: only the last frame of a stream can be.
    const std::string cut =
        csv.substr(0, rng.NextBounded(csv.size()));
    std::istringstream truncated("open v dp=2 <<" +
                                 std::to_string(csv.size()) + "\n" + cut);
    std::ostringstream truncated_out;
    service::ServeStream(truncated, truncated_out, api, options);
    const Transcript refused = ReadFrames(truncated_out.str());
    ASSERT_TRUE(refused.well_formed) << truncated_out.str();
    ASSERT_EQ(refused.codes, std::vector<std::string>{"InvalidArgument"});
    EXPECT_EQ(refused.last_payload.rfind("truncated payload", 0), 0u)
        << refused.last_payload;

    std::istringstream ping("ping\n");
    std::ostringstream pong;
    service::ServeStream(ping, pong, api, options);
    EXPECT_EQ(ReadFrames(pong.str()).last_payload, "pong\n");
    api.jobs().Drain();
  }
}

}  // namespace
}  // namespace wgrap::core
