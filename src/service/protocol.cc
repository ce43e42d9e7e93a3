#include "service/protocol.h"

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace wgrap::service {

namespace {

Reply Ok(std::string payload) {
  Reply reply;
  reply.payload = std::move(payload);
  return reply;
}

Reply Err(Status status) {
  Reply reply;
  reply.status = std::move(status);
  return reply;
}

Reply BadArgs(const std::string& message) {
  return Err(Status::InvalidArgument(message));
}

/// Splits "key=value" tokens (everything after the fixed positional args)
/// into a map; a token without '=' is an error.
Status ParseKeyValues(const std::vector<std::string>& tokens,
                      std::size_t first,
                      std::map<std::string, std::string>* out) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" + token +
                                     "'");
    }
    (*out)[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return Status::OK();
}

/// Pops `key` from `kv` through `parse` (common/string_util.h) into the
/// typed slot; absent keys leave the default. A refused value fails naming
/// the key and what it must be.
template <typename T>
Status Take(std::map<std::string, std::string>* kv, const std::string& key,
            bool (*parse)(std::string_view, T*), const char* must_be,
            T* out) {
  auto it = kv->find(key);
  if (it == kv->end()) return Status::OK();
  if (!parse(it->second, out)) {
    return Status::InvalidArgument("'" + key + "' must be " + must_be +
                                   ", got '" + it->second + "'");
  }
  kv->erase(it);
  return Status::OK();
}

// The keys submit and resolve share; the first refused one wins.
Status TakeBudgetAndSeed(std::map<std::string, std::string>* kv,
                         double* budget, uint64_t* seed) {
  WGRAP_RETURN_IF_ERROR(
      Take(kv, "budget", core::ParseTimeLimit, "a finite number", budget));
  return Take(kv, "seed", ParseUint64, "a non-negative integer", seed);
}

void TakeString(std::map<std::string, std::string>* kv, const std::string& key,
                std::string* out) {
  auto it = kv->find(key);
  if (it == kv->end()) return;
  *out = it->second;
  kv->erase(it);
}

std::string SessionLine(const SessionInfo& info) {
  return "session " + info.name + " v" + std::to_string(info.version) + " P=" +
         std::to_string(info.papers) + " R=" + std::to_string(info.reviewers) +
         " T=" + std::to_string(info.topics) +
         (info.has_assignment ? " assigned" : " unassigned") + "\n";
}

Reply RenderJobResult(const Result<JobResult>& result) {
  if (!result.ok()) return Err(result.status());
  // A finished-but-failed job (cancelled, budget blown, infeasible): its
  // stored status becomes the error frame.
  if (!result->status.ok()) return Err(result->status);
  return Ok(result->report);
}

Reply HandleOpen(ServiceApi& api, const std::vector<std::string>& tokens,
                 const std::string& payload) {
  if (tokens.size() < 2) return BadArgs("usage: open <session> [k=v...] <<N");
  OpenRequest request;
  request.session = tokens[1];
  request.dataset_csv = payload;
  std::map<std::string, std::string> kv;
  if (Status parsed = ParseKeyValues(tokens, 2, &kv); !parsed.ok()) {
    return Err(parsed);
  }
  for (const Status& taken :
       {Take(&kv, "dp", ParseInt, "an integer", &request.params.group_size),
        Take(&kv, "dr", ParseInt, "an integer",
             &request.params.reviewer_workload)}) {
    if (!taken.ok()) return Err(taken);
  }
  std::string scoring = "c";
  TakeString(&kv, "scoring", &scoring);
  auto parsed_scoring = core::ParseScoringFunction(scoring);
  if (!parsed_scoring.ok()) return Err(parsed_scoring.status());
  request.params.scoring = *parsed_scoring;
  std::string topics = "dense";
  TakeString(&kv, "topics", &topics);
  auto sparse_topics = core::ParseTopicsMode(topics);
  if (!sparse_topics.ok()) return Err(sparse_topics.status());
  request.params.sparse_topics = *sparse_topics;
  if (!kv.empty()) {
    return BadArgs("unknown open option '" + kv.begin()->first + "'");
  }
  auto response = api.Open(request);
  if (!response.ok()) return Err(response.status());
  return Ok(SessionLine(response->info));
}

Reply HandleSubmit(ServiceApi& api, const std::vector<std::string>& tokens) {
  if (tokens.size() < 4) {
    return BadArgs(
        "usage: submit <session> solve|refine|jra <algo> [k=v...]");
  }
  SubmitRequest request;
  request.session = tokens[1];
  const std::string& kind = tokens[2];
  request.solver = tokens[3];
  std::map<std::string, std::string> kv;
  if (Status parsed = ParseKeyValues(tokens, 4, &kv); !parsed.ok()) {
    return Err(parsed);
  }
  for (const Status& taken :
       {TakeBudgetAndSeed(&kv, &request.time_limit_seconds, &request.seed),
        Take(&kv, "install", ParseBool, "true/false, 1/0 or on/off",
             &request.install)}) {
    if (!taken.ok()) return Err(taken);
  }
  if (kind == "solve") {
    request.kind = core::SolverRequest::Kind::kSolveCra;
  } else if (kind == "refine") {
    request.kind = core::SolverRequest::Kind::kRefineCra;
  } else if (kind == "jra") {
    if (kv.count("paper") == 0) return BadArgs("jra requires paper=<id>");
    request.kind = kv.count("topk") != 0
                       ? core::SolverRequest::Kind::kSolveJraTopK
                       : core::SolverRequest::Kind::kSolveJra;
    for (const Status& taken :
         {Take(&kv, "paper", ParseInt, "an integer", &request.paper),
          Take(&kv, "topk", ParseInt, "an integer", &request.k)}) {
      if (!taken.ok()) return Err(taken);
    }
  } else {
    return BadArgs("unknown submit kind '" + kind +
                   "' (use solve, refine or jra)");
  }
  // Everything left is a solver knob; Submit validates it against the
  // solver's declared schema.
  request.knobs = std::move(kv);
  auto response = api.Submit(request);
  if (!response.ok()) return Err(response.status());
  return Ok("job " + std::to_string(response->job) + "\n");
}

Reply HandleResolve(ServiceApi& api, const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) return BadArgs("usage: resolve <session> [k=v...]");
  ResolveRequest request;
  request.session = tokens[1];
  std::map<std::string, std::string> kv;
  if (Status parsed = ParseKeyValues(tokens, 2, &kv); !parsed.ok()) {
    return Err(parsed);
  }
  if (Status taken =
          TakeBudgetAndSeed(&kv, &request.time_limit_seconds, &request.seed);
      !taken.ok()) {
    return Err(taken);
  }
  // Protocol sugar: `refine=sra` reads better on the wire than the
  // pipeline-level knob name it maps to.
  auto refine = kv.find("refine");
  if (refine != kv.end()) {
    kv["update_refine"] = refine->second;
    kv.erase(refine);
  }
  request.knobs = std::move(kv);
  auto response = api.Resolve(request);
  if (!response.ok()) return Err(response.status());
  return Ok("job " + std::to_string(response->job) + "\n");
}

/// `watch <job>`: replays the job's progress frames from index 0 — each
/// through the sink (or into Reply::frames) as its own ok frame — then
/// finishes exactly like `wait`. Replaying from 0 (rather than "frames
/// since now") makes the stream independent of when the watcher attached:
/// a watch of a finished job and a live watch produce the same bytes.
Reply HandleWatch(ServiceApi& api, int64_t id, const FrameFn& frame,
                  Reply* collected) {
  std::size_t cursor = 0;
  for (;;) {
    auto page = api.WaitJobProgress(id, cursor);
    if (!page.ok()) return Err(page.status());
    for (const std::string& line : page->frames) {
      if (frame) {
        frame(line);
      } else {
        collected->frames.push_back(line);
      }
    }
    cursor += page->frames.size();
    if (page->done) break;
  }
  return RenderJobResult(api.WaitJob(id));
}

Reply HandleJobCommand(ServiceApi& api, const std::vector<std::string>& tokens,
                       const FrameFn& frame) {
  int64_t id = 0;
  if (tokens.size() != 2 || !ParseInt64(tokens[1], &id)) {
    return BadArgs("usage: " + tokens[0] + " <job-id>");
  }
  const std::string& command = tokens[0];
  if (command == "status") {
    auto status = api.GetJobStatus(id);
    if (!status.ok()) return Err(status.status());
    return Ok("job " + std::to_string(status->id) + " " + status->label + " " +
              JobStateToString(status->state) + "\n");
  }
  if (command == "wait") return RenderJobResult(api.WaitJob(id));
  if (command == "watch") {
    Reply collected;
    Reply final = HandleWatch(api, id, frame, &collected);
    final.frames = std::move(collected.frames);
    return final;
  }
  if (command == "result") return RenderJobResult(api.GetJobResult(id));
  // cancel
  if (Status cancelled = api.CancelJob(id); !cancelled.ok()) {
    return Err(cancelled);
  }
  return Ok("cancelled\n");
}

/// `failpoints [arm <name> <spec> | disarm <name> | clear]`: live fault
/// injection over the wire — what the chaos tests and operators poke. The
/// listing includes trip counts, so like `stats` it is never byte-diffed.
Reply HandleFailpoints(const std::vector<std::string>& tokens) {
  if (tokens.size() == 1) {
    if (!failpoint::CompiledIn()) {
      return Err(Status::FailedPrecondition(
          "failpoints compiled out (WGRAP_FAILPOINT_DISABLED)"));
    }
    std::string payload;
    for (const failpoint::ArmedInfo& info : failpoint::List()) {
      payload += info.name + " " + info.spec + " trips=" +
                 std::to_string(info.trips) + "\n";
    }
    return Ok(std::move(payload));
  }
  const std::string& action = tokens[1];
  if (action == "arm") {
    if (tokens.size() != 4) {
      return BadArgs("usage: failpoints arm <name> <spec>");
    }
    if (Status armed = failpoint::Arm(tokens[2], tokens[3]); !armed.ok()) {
      return Err(armed);
    }
    return Ok("armed " + tokens[2] + "\n");
  }
  if (action == "disarm") {
    if (tokens.size() != 3) return BadArgs("usage: failpoints disarm <name>");
    if (Status disarmed = failpoint::Disarm(tokens[2]); !disarmed.ok()) {
      return Err(disarmed);
    }
    return Ok("disarmed " + tokens[2] + "\n");
  }
  if (action == "clear") {
    if (tokens.size() != 2) return BadArgs("usage: failpoints clear");
    failpoint::DisarmAll();
    return Ok("cleared\n");
  }
  return BadArgs("usage: failpoints [arm <name> <spec> | disarm <name> | "
                 "clear]");
}

}  // namespace

Reply HandleCommand(ServiceApi& api, const std::string& line,
                    const std::string& payload, FrameFn frame) {
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) return BadArgs("empty command");
  const std::string& command = tokens[0];

  if (command == "ping") return Ok("pong\n");
  if (command == "stats") {
    if (tokens.size() != 1) return BadArgs("usage: stats");
    // The one deliberately non-deterministic payload (real timings) —
    // CI never byte-diffs it. Empty when the registry is disabled.
    return Ok(obs::Registry::Global().RenderPrometheus());
  }
  if (command == "quit") {
    Reply reply = Ok("bye\n");
    reply.quit = true;
    return reply;
  }
  if (command == "solvers") {
    DescribeSolversRequest request;
    if (tokens.size() > 1) {
      if (tokens.size() != 2 || tokens[1] != "verbose") {
        return BadArgs("usage: solvers [verbose]");
      }
      request.verbose = true;
    }
    auto response = api.DescribeSolvers(request);
    if (!response.ok()) return Err(response.status());
    return Ok(response->text);
  }
  if (command == "open") return HandleOpen(api, tokens, payload);
  if (command == "sessions") {
    std::string payload_text;
    for (const SessionInfo& info : api.ListSessions()) {
      payload_text += SessionLine(info);
    }
    return Ok(std::move(payload_text));
  }
  if (command == "close") {
    if (tokens.size() != 2) return BadArgs("usage: close <session>");
    if (Status closed = api.CloseSession(tokens[1]); !closed.ok()) {
      return Err(closed);
    }
    return Ok("closed\n");
  }
  if (command == "put-assignment") {
    if (tokens.size() != 2) {
      return BadArgs("usage: put-assignment <session> <<N");
    }
    auto response = api.PutAssignment(tokens[1], payload);
    if (!response.ok()) return Err(response.status());
    return Ok(SessionLine(response->info));
  }
  if (command == "assignment") {
    if (tokens.size() != 2) return BadArgs("usage: assignment <session>");
    auto response = api.GetAssignment(tokens[1]);
    if (!response.ok()) return Err(response.status());
    return Ok(response->text);
  }
  if (command == "evaluate") {
    if (tokens.size() != 2) return BadArgs("usage: evaluate <session>");
    auto response = api.Evaluate(tokens[1]);
    if (!response.ok()) return Err(response.status());
    return Ok(response->text);
  }
  if (command == "submit") return HandleSubmit(api, tokens);
  if (command == "mutate") {
    if (tokens.size() != 2) return BadArgs("usage: mutate <session> <<N");
    MutateRequest request;
    request.session = tokens[1];
    request.script = payload;
    auto response = api.Mutate(request);
    if (!response.ok()) return Err(response.status());
    return Ok(response->text + SessionLine(response->info));
  }
  if (command == "resolve") return HandleResolve(api, tokens);
  if (command == "status" || command == "wait" || command == "watch" ||
      command == "result" || command == "cancel") {
    return HandleJobCommand(api, tokens, frame);
  }
  if (command == "failpoints") return HandleFailpoints(tokens);
  return BadArgs("unknown command '" + command + "'");
}

std::string EncodeReply(const Reply& reply) {
  if (reply.status.ok()) {
    return "ok " + std::to_string(reply.payload.size()) + "\n" + reply.payload;
  }
  const std::string& message = reply.status.message();
  return std::string("err ") + StatusCodeToString(reply.status.code()) + " " +
         std::to_string(message.size()) + "\n" + message;
}

void ServeStream(std::istream& in, std::ostream& out, ServiceApi& api,
                 const ServeOptions& options) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank lines between commands are fine

    // `... <<N` marks N payload bytes following the newline.
    std::string payload;
    Reply reply;
    bool framed_ok = true;
    const std::size_t marker = line.rfind(" <<");
    if (marker != std::string::npos &&
        line.find_first_not_of("0123456789", marker + 3) ==
            std::string::npos &&
        marker + 3 < line.size()) {
      int64_t size = 0;
      if (!ParseInt64(std::string_view(line).substr(marker + 3), &size)) {
        reply = BadArgs("bad payload size in '" + line + "'");
        framed_ok = false;
      } else if (size > options.max_payload_bytes) {
        // Refuse before the resize: the attacker-controlled N never turns
        // into an allocation. The payload bytes (if the client sends them
        // anyway) fall through as garbage commands — see protocol.h.
        reply = BadArgs("payload of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(options.max_payload_bytes) +
                        "-byte limit");
        framed_ok = false;
      } else {
        payload.resize(static_cast<std::size_t>(size));
        if (size > 0 && !in.read(payload.data(), size)) {
          reply = BadArgs("truncated payload: expected " +
                          std::to_string(size) + " bytes");
          framed_ok = false;
        }
        line.erase(marker);
      }
    }
    if (framed_ok) {
      // Streamed frames (watch) are encoded and flushed as they arrive,
      // so a client following a live job sees progress immediately.
      reply = HandleCommand(api, line, payload,
                            [&out](const std::string& frame) {
                              Reply progress;
                              progress.payload = frame;
                              out << EncodeReply(progress);
                              out.flush();
                            });
    }
    out << EncodeReply(reply);
    out.flush();
    if (reply.quit) break;
  }
}

}  // namespace wgrap::service
