// Wire protocol between the batch supervisor and its sandboxed
// execution workers (`cudanp-cc --worker`).
//
// A worker speaks length-prefixed frames over a pipe pair:
//
//   [1 byte type][4 bytes little-endian payload length][payload]
//
//   'J'  job      supervisor -> worker   AttemptRequest JSON
//   'R'  result   worker -> supervisor   AttemptReply JSON (the
//        AttemptResult plus the certificates the attempt derived)
//   'H'  heartbeat worker -> supervisor  empty payload, sent on a real
//        timer while an attempt is executing so the supervisor can tell
//        "slow but alive" from "wedged"
//
// One frame in, one frame out: the worker executes exactly ONE attempt
// per 'J' frame (the retry/deadline/backoff loop stays in the
// supervisor, where it remains a pure function of virtual time). All
// framed reads in the supervisor go through read_frame's poll-based
// timeout, so a worker that stops responding mid-job — crashed, wedged,
// or killed — can never hang the batch (ISSUE: crash isolation).
//
// Payloads are JSON (support/json.hpp) rather than a packed struct so a
// torn or corrupt frame degrades to a structured parse failure, which
// the supervisor classifies as a crash, never undefined behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "np/compiler.hpp"
#include "sim/fault.hpp"
#include "support/record.hpp"

namespace cudanp::serve {

inline constexpr char kFrameJob = 'J';
inline constexpr char kFrameResult = 'R';
inline constexpr char kFrameHeartbeat = 'H';

// Daemon frames (`cudanp-cc --serve`, same framing over an AF_UNIX
// stream; see serve/daemon.hpp and docs/robustness.md "Persistent
// serving"):
//
//   'M'  submit       client -> daemon   SubmitRequest JSON (a whole
//        manifest, driven through BatchService as one request)
//   'P'  report       daemon -> client   SubmitReply JSON (the
//        ServiceReport, human + JSON renderings)
//   'X'  reject       daemon -> client   RejectReply JSON with a
//        structured cause: "tenant-quota" / "queue-full" / "draining" /
//        "bad-request" / "bad-manifest" / "internal-error"
//   'S'  status       client -> daemon   payload "status" or "healthz"
//   'T'  status-reply daemon -> client   JSON counters document
//   'Q'  shutdown     client -> daemon   empty; begins a graceful drain
inline constexpr char kFrameSubmit = 'M';
inline constexpr char kFrameReport = 'P';
inline constexpr char kFrameReject = 'X';
inline constexpr char kFrameStatus = 'S';
inline constexpr char kFrameStatusReply = 'T';
inline constexpr char kFrameShutdown = 'Q';

/// Frames above this are treated as stream corruption (a real request
/// is kernel source + options, well under a mebibyte).
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

struct Frame {
  char type = 0;
  std::string payload;
};

enum class ReadStatus : std::uint8_t {
  kOk,       // a complete frame was read
  kTimeout,  // nothing (or a partial frame) within the time budget
  kEof,      // orderly close — the peer exited
  kError,    // read error or a corrupt frame header
};

/// Writes all of `data` to `fd`, riding out EINTR and short writes.
/// Returns false on any write error. Every blocking write in the serve
/// layer (frames, journal records, cache artifacts) goes through it.
bool write_all(int fd, std::string_view data);

/// Writes one complete frame to `fd`, retrying on EINTR / short writes.
/// Returns false on any write error (e.g. EPIPE from a dead worker; the
/// supervisor runs with SIGPIPE ignored so this surfaces as an error
/// return, not a process kill).
bool write_frame(int fd, char type, std::string_view payload);

/// Reads one complete frame from `fd`. `timeout_ms` bounds the whole
/// read (poll-based, measured against CLOCK_MONOTONIC); negative waits
/// forever. Every blocking supervisor read goes through this — the
/// read-timeout satellite of the crash-isolation issue. Handles
/// O_NONBLOCK fds (daemon session sockets) as well as blocking pipes.
ReadStatus read_frame(int fd, Frame* out, int timeout_ms);

/// write_frame with a wall-clock deadline, for O_NONBLOCK session
/// sockets: a client that stops draining its receive buffer (a wedged
/// reader) makes this return false within `timeout_ms` instead of
/// blocking the session thread forever — the daemon reaps the session.
bool write_frame_deadline(int fd, char type, std::string_view payload,
                          int timeout_ms);

/// One attempt's worth of work, shipped to a worker (or executed
/// in-process via execute_attempt — both isolation modes run exactly
/// this struct, which is why their reports are bit-identical).
struct AttemptRequest : record::Codec<AttemptRequest> {
  std::string source;
  /// Requested kernel name; empty = first kernel with NP pragmas.
  std::string kernel;
  int elems = 32;
  int tb = 32;
  /// Device model: resolved by name ("gtx680"/"k20c") + sm override so
  /// the worker reconstructs the supervisor's spec exactly.
  std::string device = "gtx680";
  int sm_version = 30;
  /// Final per-block step budget for this attempt (the supervisor has
  /// already folded the deadline clamp in).
  std::int64_t max_steps = 0;
  /// Apply the fault plan's AST corruption before compiling (mirrors
  /// spec.inject && (drop_barrier || skew_index); corruption persists
  /// across attempts like a real transform bug).
  bool corrupt_ast = false;
  /// Wire the fault plan's statement-level hooks (and the OOM probe /
  /// worker wedge) into this attempt. The supervisor clears this after
  /// JobSpec::transient_attempts, which is how injected faults stay
  /// transient under retry.
  bool hook_faults = false;
  sim::FaultPlan fault;
  /// Sanitizer knobs (sim::SanitizerEngine::Options, flattened).
  std::int64_t error_limit = 100;
  bool portable_races = false;
  bool dedupe = true;
  double f32_rel_tol = 1e-3;
  /// Real-time heartbeat interval the worker keeps while executing.
  int heartbeat_ms = 200;
  /// Symbolic-equivalence certification (np/certifier.hpp): certify
  /// each candidate variant the attempt tries and quarantine refuted
  /// ones as proven-wrong before they can serve an answer.
  bool certify = false;
  /// With certify: proven variants skip the per-run sanitized
  /// cross-check (the watchdog still applies).
  bool certified_fast_path = false;
  /// Known certificates (np::Certificate::json()) of candidate configs:
  /// cache hits plus what earlier attempts derived. The attempt
  /// certifies only the consulted configs missing here.
  std::vector<std::string> certificates;

  static constexpr auto fields() {
    using R = AttemptRequest;
    using record::field;
    return std::tuple{field("source", &R::source),
                      field("kernel", &R::kernel),
                      field("elems", &R::elems),
                      field("tb", &R::tb),
                      field("device", &R::device),
                      field("sm_version", &R::sm_version),
                      field("max_steps", &R::max_steps),
                      field("corrupt_ast", &R::corrupt_ast),
                      field("hook_faults", &R::hook_faults),
                      field("fault", &R::fault),
                      field("error_limit", &R::error_limit),
                      field("portable_races", &R::portable_races),
                      field("dedupe", &R::dedupe),
                      field("f32_rel_tol", &R::f32_rel_tol),
                      field("heartbeat_ms", &R::heartbeat_ms),
                      field("certify", &R::certify),
                      field("certified_fast_path", &R::certified_fast_path),
                      field("certificates", &R::certificates)};
  }
};

/// What one attempt produced. Either a structured rejection (parse
/// failed, kernel missing, internal error) or a FallbackDecision — the
/// same split BatchService::run_job has always committed.
struct AttemptResult : record::Codec<AttemptResult> {
  bool rejected = false;
  std::string reject_cause;   // "compile-error" / "no-kernel" /
                              // "internal-error"
  std::string reject_detail;
  /// Name of the kernel actually compiled (breaker identity).
  std::string kernel_name;
  np::FallbackDecision decision;

  static constexpr auto fields() {
    using R = AttemptResult;
    using record::field;
    return std::tuple{field("rejected", &R::rejected),
                      field("reject_cause", &R::reject_cause),
                      field("reject_detail", &R::reject_detail),
                      field("kernel_name", &R::kernel_name),
                      field("decision", &R::decision)};
  }
};

/// The worker's 'R' frame: an attempt's result and the certificates it
/// derived, beside it so the AttemptResult bytes the attempt cache
/// stores do not change.
struct AttemptReply : record::Codec<AttemptReply> {
  AttemptResult result;
  std::vector<std::string> certificates;

  static constexpr auto fields() {
    using R = AttemptReply;
    using record::field;
    return std::tuple{field("result", &R::result),
                      field("certificates", &R::certificates)};
  }
};

/// One client request to the daemon: a whole manifest, attributed to a
/// tenant for admission accounting. base_dir resolves relative file=
/// entries (the client sends its manifest's parent directory).
struct SubmitRequest : record::Codec<SubmitRequest> {
  std::string tenant;
  std::string manifest;
  std::string base_dir;

  static constexpr auto fields() {
    using R = SubmitRequest;
    using record::field;
    return std::tuple{field("tenant", &R::tenant),
                      field("manifest", &R::manifest),
                      field("base_dir", &R::base_dir)};
  }
};

/// The daemon's answer to an admitted request: both renderings of the
/// ServiceReport, verbatim — the client re-emits them so its output is
/// byte-identical to a --batch run of the same manifest.
struct SubmitReply : record::Codec<SubmitReply> {
  std::string report_text;
  std::string report_json;

  static constexpr auto fields() {
    using R = SubmitReply;
    using record::field;
    return std::tuple{field("report_text", &R::report_text),
                      field("report_json", &R::report_json)};
  }
};

/// Structured refusal ('X' frame): the request never entered the
/// pipeline. cause is machine-readable; detail is for humans.
struct RejectReply : record::Codec<RejectReply> {
  std::string cause;
  std::string detail;

  static constexpr auto fields() {
    using R = RejectReply;
    using record::field;
    return std::tuple{field("cause", &R::cause), field("detail", &R::detail)};
  }
};

}  // namespace cudanp::serve
