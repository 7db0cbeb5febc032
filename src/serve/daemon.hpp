// Persistent serve daemon: `cudanp-cc --serve=<socket>`.
//
// A ServeDaemon listens on an AF_UNIX stream socket and drives every
// submitted manifest through the full BatchService pipeline without
// ever dying from client-induced failures. The moving parts:
//
//   accept loop   - one thread (serve()) polling {listen fd, signal
//                   self-pipe}; each accepted connection gets a Session
//                   thread (serve/session.hpp);
//   admission     - DrrScheduler: per-tenant quotas (a tenant past its
//                   quota is shed with cause "tenant-quota") and
//                   deficit-round-robin dequeue, so one flooding tenant
//                   delays but never starves the others; a global
//                   pending bound sheds with "queue-full";
//   executor      - one thread running admitted requests serially
//                   through BatchService (the exec_pool parallelizes
//                   jobs *within* a request; serial requests keep every
//                   report bit-identical to a standalone --batch run);
//   shared state  - one WorkerSupervisor (crash-loop backoff becomes
//                   daemon-wide policy), one ArtifactCache (compile
//                   once across tenants, checksummed + quarantining),
//                   and optionally one BreakerRegistry (cross-tenant
//                   breakers — off by default to keep the strict
//                   per-client determinism contract);
//   lifecycle     - SIGTERM/SIGINT (or a 'Q' frame) begins a graceful
//                   drain: admitted requests finish and journal, new
//                   connections get a structured "draining" reject, and
//                   serve() returns 0. With --journal-dir each request
//                   journals under a fingerprint-derived name and
//                   resumes idempotently after a restart.
//
// Determinism contract: one client's manifest stream produces
// ServiceReports bit-identical to --batch runs of the same manifests —
// the cache only skips work, journal resume replays outcomes, and
// breaker sharing is opt-in.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/artifact_cache.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "sim/device.hpp"
#include "support/record.hpp"

namespace cudanp::serve {

class Session;

/// One admitted (or to-be-admitted) client request: a manifest's worth
/// of jobs plus the rendezvous the session thread blocks on.
struct ServeRequest {
  std::string tenant;
  std::vector<JobSpec> jobs;
  /// DRR cost: number of jobs (set at admission).
  std::int64_t cost = 0;

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::string error;
  ServiceReport report;
};

/// Tenant-fair admission: per-tenant FIFO queues with quotas, dequeued
/// deficit-round-robin. Each visit to a tenant grants `quantum` credit;
/// the head request is served once credit covers its cost, so a
/// many-job manifest waits proportionally instead of starving everyone
/// (and instead of being starved). One request is served per visit,
/// which keeps the interleave across tenants tight. Not internally
/// locked — the daemon guards it with its scheduler mutex; tests drive
/// it single-threaded.
class DrrScheduler {
 public:
  DrrScheduler(int tenant_quota, int max_pending, int quantum);

  /// Admits or sheds. Returns "" on admit, else the structured cause:
  /// "tenant-quota" (this tenant has quota_ requests queued+running)
  /// or "queue-full" (global pending bound).
  [[nodiscard]] std::string submit(std::shared_ptr<ServeRequest> r);

  /// DRR dequeue; nullptr when nothing is pending.
  [[nodiscard]] std::shared_ptr<ServeRequest> next();

  /// Releases the tenant's quota slot once its request finished.
  void finished(const std::string& tenant);

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::int64_t in_flight(const std::string& tenant) const;

 private:
  struct Tenant {
    std::deque<std::shared_ptr<ServeRequest>> q;
    std::int64_t deficit = 0;
    /// Queued + executing requests; bounded by the quota.
    std::int64_t in_flight = 0;
  };

  int quota_;
  int max_pending_;
  int quantum_;
  std::size_t pending_ = 0;
  std::map<std::string, Tenant> tenants_;
  /// Tenants with a non-empty queue, in first-arrival order; rr_ is the
  /// round-robin cursor into it.
  std::vector<std::string> active_;
  std::size_t rr_ = 0;
};

/// The `requests` block of `status`.
struct RequestCounters : record::Codec<RequestCounters> {
  std::int64_t submitted = 0;
  std::int64_t served = 0;
  std::int64_t failed = 0;
  std::int64_t rejected_tenant_quota = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_draining = 0;
  std::int64_t rejected_bad_request = 0;

  static constexpr auto fields() {
    using R = RequestCounters;
    using record::field;
    return std::tuple{field("submitted", &R::submitted),
                      field("served", &R::served), field("failed", &R::failed),
                      field("rejected_tenant_quota", &R::rejected_tenant_quota),
                      field("rejected_queue_full", &R::rejected_queue_full),
                      field("rejected_draining", &R::rejected_draining),
                      field("rejected_bad_request", &R::rejected_bad_request)};
  }
};

/// The `sessions` block of `status`.
struct SessionCounters : record::Codec<SessionCounters> {
  std::int64_t opened = 0;
  std::int64_t reaped = 0;

  static constexpr auto fields() {
    using R = SessionCounters;
    using record::field;
    return std::tuple{field("opened", &R::opened), field("reaped", &R::reaped)};
  }
};

/// The `jobs` block of `status`: ServiceReport counters summed across
/// every served request.
struct JobCounters : record::Codec<JobCounters> {
  std::int64_t submitted = 0;
  std::int64_t succeeded = 0;
  std::int64_t succeeded_after_retry = 0;
  std::int64_t degraded = 0;
  std::int64_t rejected = 0;
  std::int64_t retries = 0;
  std::int64_t crashes = 0;
  std::int64_t resource_limited = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_short_circuits = 0;

  static constexpr auto fields() {
    using R = JobCounters;
    using record::field;
    return std::tuple{
        field("submitted", &R::submitted), field("succeeded", &R::succeeded),
        field("succeeded_after_retry", &R::succeeded_after_retry),
        field("degraded", &R::degraded), field("rejected", &R::rejected),
        field("retries", &R::retries), field("crashes", &R::crashes),
        field("resource_limited", &R::resource_limited),
        field("deadline_exceeded", &R::deadline_exceeded),
        field("breaker_opens", &R::breaker_opens),
        field("breaker_short_circuits", &R::breaker_short_circuits)};
  }
};

/// Operator counters for `status`.
struct DaemonStats {
  RequestCounters requests;
  SessionCounters sessions;
  JobCounters jobs;
};

struct DaemonOptions {
  std::string socket_path;
  /// Template for every request's BatchService (the shared supervisor /
  /// cache / breaker pointers are filled in per request by the daemon).
  ServiceOptions service;
  ManifestDefaults defaults;
  sim::DeviceSpec spec = sim::DeviceSpec::gtx680();

  /// Max requests one tenant may have queued + executing.
  int tenant_quota = 4;
  /// Global pending bound across tenants.
  int max_pending = 64;
  /// DRR credit granted per tenant visit (in jobs).
  int drr_quantum = 8;
  /// A session silent this long (real ms) is reaped.
  int session_idle_ms = 30000;
  /// Deadline for writing one reply frame to a client.
  int reply_timeout_ms = 10000;
  /// Consecutive worker failures before healthz reports "crash-loop".
  int crash_loop_threshold = 8;

  /// Compile cache: entry capacity (0 disables) and optional backing
  /// directory for restart-warm entries.
  int cache_entries = 0;
  std::string cache_dir;
  /// Per-request write-ahead journals land here as
  /// req-<fingerprint>.journal with resume-if-present semantics, making
  /// restart idempotent. Empty = no journaling.
  std::string journal_dir;
  /// Share circuit breakers across requests and tenants. Off by
  /// default: sharing makes one tenant's failures visible in another's
  /// report, deliberately trading the strict per-client determinism
  /// contract for cross-tenant protection.
  bool shared_breakers = false;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(DaemonOptions opt);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds the socket, installs drain signal handlers, starts the
  /// executor. False (with *error) on bind/listen failure.
  [[nodiscard]] bool start(std::string* error);

  /// Accept loop; returns the process exit code (0 after a graceful
  /// drain). Call start() first.
  int serve();

  /// Begins a graceful drain (idempotent, any thread): admitted
  /// requests finish, new work is refused with "draining", serve()
  /// returns once everything settled.
  void request_drain();
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // --- Session-facing interface. ---
  /// Admits a request into the scheduler ("" = admitted, else the
  /// structured reject cause, including "draining").
  [[nodiscard]] std::string submit(std::shared_ptr<ServeRequest> r);
  [[nodiscard]] std::string status_json();
  [[nodiscard]] std::string healthz_json();
  void note_session_reaped();
  void note_bad_request();
  [[nodiscard]] const DaemonOptions& options() const { return opt_; }

 private:
  struct SessionSlot {
    std::shared_ptr<Session> session;
    std::thread thread;
  };

  void executor_loop();
  void run_request(ServeRequest& r);
  void accumulate(const ServiceReport& report);
  void reap_finished_sessions();

  DaemonOptions opt_;
  int listen_fd_ = -1;
  int drain_rd_ = -1;
  int drain_wr_ = -1;
  std::atomic<bool> draining_{false};

  /// Request scheduling state (scheduler, executor handshake).
  std::mutex mu_;
  std::condition_variable work_cv_;
  DrrScheduler sched_;
  bool executing_ = false;
  bool stop_executor_ = false;
  std::thread executor_;

  /// Shared across every request.
  std::unique_ptr<ArtifactCache> cache_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  BreakerRegistry registry_;

  std::mutex stats_mu_;
  DaemonStats stats_;

  std::mutex sessions_mu_;
  std::vector<SessionSlot> sessions_;
  std::uint64_t next_session_id_ = 1;
};

/// Connects to a daemon socket (client side + tests). Returns the fd or
/// -1 with errno set.
[[nodiscard]] int connect_unix(const std::string& socket_path);

}  // namespace cudanp::serve
