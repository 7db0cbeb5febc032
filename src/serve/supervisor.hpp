// Supervisor side of the process-isolation split (`--isolate=process`).
//
// A WorkerSupervisor owns a pool of sandboxed worker subprocesses
// (`cudanp-cc --worker`, wire protocol in serve/wire.hpp) and executes
// one attempt per call: frame the AttemptRequest out, then read frames
// under a wall-clock timeout until the result arrives. Heartbeats reset
// the timer, so a slow-but-alive attempt is never killed; a worker that
// stops responding entirely is.
//
// Every way a worker can die maps to a structured verdict the retry /
// breaker / baseline-fallback machinery already understands:
//
//   nonzero exit          -> kCrashed ("worker exited with status N")
//   killed by a signal    -> kCrashed ("worker killed by signal N")
//   wedged pipe / silence -> kTimedOut (SIGKILL + reap, deterministic
//                            detail — the read-timeout satellite)
//   malformed result      -> kCrashed (corrupt stream, never UB)
//
// The detail strings carry no timing values, so reports built from them
// stay bit-identical run over run. Workers are respawned on demand with
// crash-loop backoff: consecutive worker deaths back the respawn rate
// off exponentially (real sleeps — invisible to the virtual clock).
//
// The cleanup registry at the bottom is the async-signal-safe inventory
// of live worker pids and temp files; cudanp-cc's batch mode installs
// SIGINT/SIGTERM handlers over it so an interrupted batch never leaks
// workers or half-written journal segments.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/wire.hpp"
#include "support/record.hpp"

namespace cudanp::serve {

struct SupervisorOptions {
  /// Worker command line; empty means re-exec ourselves:
  /// {"/proc/self/exe", "--worker"}.
  std::vector<std::string> worker_cmd;
  /// Address-space cap handed to each worker (--worker-mem-mb); 0 = no
  /// cap.
  std::int64_t worker_mem_mb = 0;
  /// Wall-clock budget for each framed read from a worker. Heartbeats
  /// reset it; only total silence trips it.
  int read_timeout_ms = 10000;
  /// Heartbeat interval workers are asked to keep (must be well under
  /// read_timeout_ms).
  int heartbeat_ms = 200;
};

/// Pool observability: the `workers` block of the daemon's status.
struct WorkerCounters : record::Codec<WorkerCounters> {
  int spawned = 0;
  int crashes = 0;
  int timeouts = 0;
  /// Worker deaths / spawn failures since the last completed attempt:
  /// the respawn backoff's depth, daemon-wide when the supervisor is
  /// shared; healthz reports "crash-loop" past a threshold.
  int consecutive_failures = 0;

  static constexpr auto fields() {
    using R = WorkerCounters;
    using record::field;
    return std::tuple{field("spawned", &R::spawned),
                      field("crashes", &R::crashes),
                      field("timeouts", &R::timeouts),
                      field("consecutive_failures", &R::consecutive_failures)};
  }
};

enum class AttemptStatus : std::uint8_t {
  kCompleted,   // result frame received and parsed
  kCrashed,     // worker died (exit / signal / corrupt stream)
  kTimedOut,    // worker went silent; SIGKILLed and reaped
  kSpawnFailed, // could not start a worker at all
};

struct SupervisedAttempt {
  AttemptStatus status = AttemptStatus::kSpawnFailed;
  /// Valid only when status == kCompleted.
  AttemptResult result;
  /// The certificates the attempt derived (AttemptReply::certificates).
  std::vector<std::string> certificates;
  /// Deterministic description for the non-completed statuses.
  std::string detail;
};

class WorkerSupervisor {
 public:
  explicit WorkerSupervisor(SupervisorOptions opt);
  /// Kills and reaps every pooled worker.
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Executes one attempt on a pooled (or freshly spawned) worker.
  /// Thread-safe: BatchService calls this concurrently from exec_pool
  /// workers; each call owns one subprocess for its duration. Never
  /// throws; every failure mode comes back as a status.
  [[nodiscard]] SupervisedAttempt execute(const AttemptRequest& req);

  /// A snapshot of the pool counters.
  [[nodiscard]] WorkerCounters counters() const;

 private:
  struct Worker {
    pid_t pid = -1;
    int to_fd = -1;    // supervisor writes job frames here
    int from_fd = -1;  // supervisor reads result/heartbeat frames here
  };

  std::optional<Worker> spawn_locked();
  std::optional<Worker> checkout();
  void checkin(Worker w);
  /// SIGKILL (if still alive) + reap + close + unregister.
  void destroy(Worker& w);
  /// Reaps a dead worker and renders the deterministic death detail.
  std::string reap_detail(Worker& w);

  SupervisorOptions opt_;
  mutable std::mutex mu_;
  std::vector<Worker> free_;
  WorkerCounters counters_;
  /// Previous SIGPIPE disposition (ignored while the supervisor lives —
  /// a write to a just-died worker must surface as EPIPE, not kill the
  /// batch).
  struct sigaction old_sigpipe_ {};
};

/// Async-signal-safe inventory of live worker pids and temp paths, and
/// the SIGINT/SIGTERM handlers cudanp-cc installs over it in batch
/// mode. Fixed-capacity (no allocation in handlers); registration past
/// capacity is dropped — cleanup is best-effort by design.
namespace cleanup {

void register_pid(pid_t pid);
void unregister_pid(pid_t pid);
void register_path(const std::string& path);
void unregister_path(const std::string& path);

/// Installs SIGINT/SIGTERM handlers that kill registered pids, unlink
/// registered paths, then re-raise with the default disposition (so the
/// caller still dies by the signal). Idempotent.
void install_signal_handlers();

}  // namespace cleanup

}  // namespace cudanp::serve
