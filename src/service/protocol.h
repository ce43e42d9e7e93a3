// The wgrap service line protocol: a newline-framed, length-prefixed text
// protocol designed so CI can drive a server with nothing but a shell.
//
// Request framing — one command per line:
//   <command> [args...]          no payload
//   <command> [args...] <<N     N payload bytes follow the newline
// Response framing — one status line, then the payload:
//   ok <N>\n<N bytes>
//   err <StatusCode> <N>\n<N message bytes>
//
// Commands (args in [] optional; key=value args order-free):
//   ping
//   solvers [verbose]                         solver table [+ knob schemas]
//   open <session> [dp=3] [dr=0] [scoring=c] [topics=dense] <<N  dataset CSV
//   sessions                                  one line per open session
//   close <session>
//   put-assignment <session> <<N              assignment CSV
//   assignment <session>                      current assignment as CSV
//   evaluate <session>                        `wgrap_cli evaluate` block
//   submit <session> solve <algo> [budget=S] [seed=N] [install=true]
//          [<knob>=<value>...]                -> "job <id>"
//   submit <session> refine <algo> [...]      refines current assignment
//   submit <session> jra <algo> paper=P [topk=K] [...]
//   mutate <session> <<N                      mutation script; sync
//   resolve <session> [budget=S] [seed=N] [refine=sra] [<knob>=<value>...]
//                                             incremental re-solve job
//   status <job>                              "job <id> queued|running|done"
//   wait <job>                                blocks, then like `result`
//   watch <job>                               streams one ok frame per
//                                             progress line ("progress
//                                             <phase> round <N> best <S>"),
//                                             then the `wait` reply
//   result <job>                              the job's report payload
//   cancel <job>
//   stats                                     telemetry scrape (Prometheus
//                                             text; empty when WGRAP_OBS=0)
//   failpoints                                one line per armed failpoint
//   failpoints arm <name> <spec>              live fault injection
//                                             (common/failpoint.h grammar,
//                                             e.g. error:Unavailable|oneshot)
//   failpoints disarm <name>
//   failpoints clear
//   quit
//
// Every number key (dp, dr, paper, topk, budget, seed, install, knobs)
// reads the one grammar of common/string_util.h: budget=S is seconds >= 0
// (0 = unlimited), seed=N any uint64, install=true|1|on|false|0|off.
//
// Degradation: a `<<N` payload larger than ServeOptions::max_payload_bytes
// is refused with `err InvalidArgument` *without reading the N bytes* —
// the connection survives, but any payload bytes a client sends anyway
// parse as (garbage) commands and err individually. Well-behaved clients
// stop at the err frame; hostile ones only hurt their own stream.
//
// Determinism: job ids count up from 1 and every payload is rendered by
// service/reports.h without wall-clock numbers, so a scripted session
// produces a byte-identical response stream on every run — the property
// the CI smoke diffs against one-shot CLI output. `watch` replays the
// job's retained frames from index 0, and solvers emit frames only at
// round boundaries (never on wall-clock ticks), so a watch of a seeded
// job is byte-deterministic too. `stats` is the deliberate exception:
// its payload carries real timings and is never byte-diffed.
#ifndef WGRAP_SERVICE_PROTOCOL_H_
#define WGRAP_SERVICE_PROTOCOL_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/api.h"

namespace wgrap::service {

/// Outcome of one command. `payload` is sent on ok; a non-ok status
/// becomes an `err` frame carrying the status message. `frames` holds
/// intermediate ok-frames a streaming command (watch) produced before the
/// final reply — populated only when HandleCommand ran without a sink.
struct Reply {
  Status status = Status::OK();
  std::string payload;
  std::vector<std::string> frames;
  bool quit = false;
};

/// Sink for a streaming command's intermediate frames: called with each
/// frame payload as it becomes available, before HandleCommand returns the
/// final reply. ServeStream passes one that encodes-and-flushes
/// immediately, so a `watch` client sees progress live.
using FrameFn = std::function<void(const std::string&)>;

/// Executes one already-deframed command (line without the `<<N` marker,
/// plus its payload) against the api. Unknown commands and malformed
/// arguments come back as kInvalidArgument replies, never exceptions.
/// Without a `frame` sink, streaming commands collect their intermediate
/// payloads into Reply::frames instead.
Reply HandleCommand(ServiceApi& api, const std::string& line,
                    const std::string& payload, FrameFn frame = {});

/// "ok <N>\n<payload>" or "err <Code> <N>\n<message>".
std::string EncodeReply(const Reply& reply);

/// Per-stream resource limits.
struct ServeOptions {
  /// Largest `<<N` payload the server will buffer for one command. An
  /// over-limit frame is refused (err kInvalidArgument) without
  /// allocating; the stream stays open.
  int64_t max_payload_bytes = 64ll * 1024 * 1024;
};

/// Reads framed commands from `in` and writes framed replies to `out`
/// until EOF or `quit`. The stdio transport is exactly this on
/// std::cin/std::cout; the TCP transport runs it per connection.
void ServeStream(std::istream& in, std::ostream& out, ServiceApi& api,
                 const ServeOptions& options = {});

}  // namespace wgrap::service

#endif  // WGRAP_SERVICE_PROTOCOL_H_
