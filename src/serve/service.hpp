// Resilient batch serving: the failure *policy* layered on PR 3's
// failure primitives.
//
// A BatchService accepts compile-and-run jobs (kernel source + workload
// + sanitizer options) into a bounded queue and drives each one through
// the full guarded pipeline (parse -> NpCompiler::compile_with_fallback
// under sanitizer + watchdog), surviving every failure mode the chaos
// harness can produce:
//
//   admission   - structured overload rejection: infeasible deadlines
//                 are rejected up front, and jobs beyond the queue
//                 capacity are shed with a distinct cause;
//   deadlines   - each job's remaining wall-clock budget is mapped onto
//                 the per-block step watchdog (remaining_ms *
//                 steps_per_ms), so a hanging kernel trips at its
//                 deadline instead of consuming the global budget;
//   retry       - transient failures (np::transient) retry with
//                 exponential backoff and deterministic jitter until
//                 attempts or deadline run out;
//   breakers    - a per-(kernel, first-choice variant) circuit breaker
//                 opens after K consecutive failures, routes traffic to
//                 the guaranteed baseline, and half-open-probes back;
//   drain       - request_drain() lets in-flight jobs finish and
//                 rejects queued ones with cause "drained".
//
// Every job ends in exactly one terminal state — succeeded /
// succeeded-after-retry / degraded-to-baseline / rejected — and the run
// emits a ServiceReport with str() + json(). All time is virtual
// (serve/clock.hpp) and breaker transitions commit in admission order,
// so a whole run is bit-identical at every --jobs count. Scheduling
// runs on the PR-2 exec_pool: jobs execute concurrently, each
// simulating its grid serially (the pool is not reentrant).
//
// Exposed as `cudanp-cc --batch=<manifest>`; see serve/manifest.hpp and
// docs/robustness.md ("Serving and degradation policy").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "np/compiler.hpp"
#include "serve/breaker.hpp"
#include "serve/retry.hpp"
#include "serve/supervisor.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/sanitizer.hpp"
#include "support/record.hpp"

namespace cudanp::serve {

class ArtifactCache;

/// Breakers that outlive a single BatchService::run — the daemon's
/// cross-request (and, when enabled, cross-tenant) breaker state.
/// Breaker cooldowns are measured in virtual time, which restarts at 0
/// every run; base_ms carries the virtual clock forward across runs so
/// an open breaker keeps cooling down between requests. Not
/// thread-safe: the daemon executes requests serially.
struct BreakerRegistry {
  std::map<std::string, CircuitBreaker> breakers;
  std::int64_t base_ms = 0;
};

/// One compile-and-run job.
struct JobSpec {
  /// Label used in reports; defaults to "job<index>" when empty.
  std::string name;
  /// Kernel source text (required).
  std::string source;
  /// Kernel to compile; empty = first kernel with #pragma np loops,
  /// else the first kernel.
  std::string kernel;
  /// Synthetic workload problem size and baseline block size.
  int elems = 32;
  int tb = 32;
  /// Per-job wall-clock deadline in virtual ms; 0 = service default.
  std::int64_t deadline_ms = 0;
  /// Attempt cap for this job; 0 = the retry policy's max_attempts.
  int max_attempts = 0;
  /// Per-block watchdog budget (0 = auto); the deadline clamps it.
  long long watchdog_steps = 0;
  /// Chaos knobs: when inject is true, `fault` is wired into the
  /// interpreter. transient_attempts > 0 limits injection to the first
  /// N attempts (a transient fault the retry loop outlives); 0 injects
  /// on every attempt (a persistent fault the breaker learns about).
  bool inject = false;
  sim::FaultPlan fault;
  int transient_attempts = 0;
};

/// The four terminal states; every submitted job ends in exactly one.
enum class JobState : std::uint8_t {
  kSucceeded,            // pristine first attempt
  kSucceededAfterRetry,  // pristine after >= 1 retry
  kDegraded,             // ran, but a quarantine/breaker/deadline meant
                         // a non-first-choice (usually baseline) answer
  kRejected,             // never produced an answer: admission, drain,
                         // compile error, or internal error
};

inline constexpr record::Slug<JobState> kJobStateSlugs[] = {
    {JobState::kSucceeded, "succeeded"},
    {JobState::kSucceededAfterRetry, "succeeded-after-retry"},
    {JobState::kDegraded, "degraded"},
    {JobState::kRejected, "rejected"},
};

[[nodiscard]] inline const char* to_string(JobState s) {
  return record::slug(kJobStateSlugs, s);
}

/// Where each job's compile-and-run step executes.
enum class IsolationMode : std::uint8_t {
  kNone,     // in-process (the historical default)
  kProcess,  // sandboxed worker subprocess per attempt (crash-isolated)
};

/// Also the --isolate flag's choices.
inline constexpr record::Slug<IsolationMode> kIsolationModeSlugs[] = {
    {IsolationMode::kNone, "none"},
    {IsolationMode::kProcess, "process"},
};

[[nodiscard]] inline const char* to_string(IsolationMode m) {
  return record::slug(kIsolationModeSlugs, m);
}

struct JobResult : record::Codec<JobResult> {
  std::size_t index = 0;
  std::string name;
  JobState state = JobState::kRejected;
  /// Terminal cause slug: empty on success; "queue-full",
  /// "deadline-infeasible", "empty-source", "drained", "compile-error",
  /// "no-kernel", "internal-error", "breaker-open",
  /// "deadline-exceeded", or a np::FailureCause slug.
  std::string cause;
  /// Human detail for rejections (compile diagnostics etc.).
  std::string detail;
  /// Chosen configuration ("baseline" when degraded to baseline).
  std::string chosen_config;
  /// Breaker key this job reported to; empty when it never ran.
  std::string breaker_key;
  int attempts = 0;
  /// Attempts that died with the worker (--isolate=process only): the
  /// worker crashed, was killed, or went silent past the read timeout.
  int crashed_attempts = 0;
  std::int64_t deadline_ms = 0;
  /// Virtual ms this job consumed (attempt costs + backoffs).
  std::int64_t virtual_ms = 0;
  bool deadline_exceeded = false;
  /// True when an open breaker routed this job to the baseline.
  bool breaker_routed = false;
  /// Quarantine records from the final attempt.
  std::vector<np::VariantFailure> quarantined;

  [[nodiscard]] bool terminal_ok() const {
    return state == JobState::kSucceeded ||
           state == JobState::kSucceededAfterRetry;
  }
  [[nodiscard]] std::string str() const;

  static constexpr auto fields() {
    using R = JobResult;
    using record::field;
    return std::tuple{field("index", &R::index),
                      field("name", &R::name),
                      field("state", &R::state, kJobStateSlugs),
                      field("cause", &R::cause),
                      field("detail", &R::detail),
                      field("chosen_config", &R::chosen_config),
                      field("breaker_key", &R::breaker_key),
                      field("attempts", &R::attempts),
                      field("crashed_attempts", &R::crashed_attempts),
                      field("deadline_ms", &R::deadline_ms),
                      field("virtual_ms", &R::virtual_ms),
                      field("deadline_exceeded", &R::deadline_exceeded),
                      field("breaker_routed", &R::breaker_routed),
                      field("quarantined", &R::quarantined)};
  }
};

/// State of one circuit breaker, for the report and the daemon's
/// status.
struct BreakerSnapshot : record::Codec<BreakerSnapshot> {
  std::string key;  // "<kernel>|<first-choice config>"
  BreakerState state = BreakerState::kClosed;
  int opens = 0;
  int probes = 0;
  int short_circuits = 0;

  BreakerSnapshot() = default;
  BreakerSnapshot(std::string breaker_key, const CircuitBreaker& br)
      : key(std::move(breaker_key)),
        state(br.state()),
        opens(br.opens()),
        probes(br.probes()),
        short_circuits(br.short_circuits()) {}

  static constexpr auto fields() {
    using R = BreakerSnapshot;
    using record::field;
    return std::tuple{field("key", &R::key),
                      field("state", &R::state, kBreakerStateSlugs),
                      field("opens", &R::opens),
                      field("probes", &R::probes),
                      field("short_circuits", &R::short_circuits)};
  }
};

/// Speculative per-job outcome: what execution produced, before the
/// serial commit turns it into a JobResult. Public (and serializable)
/// because the write-ahead journal persists exactly these — the commit
/// pass is a pure function of outcomes in admission order, which is why
/// a resumed batch reproduces an uninterrupted report byte for byte.
struct JobOutcome : record::Codec<JobOutcome> {
  bool ran = false;       // executed (false = drained slot)
  bool success = false;   // pristine decision on the final attempt
  bool rejected = false;  // terminal kRejected during execution
  std::string reject_cause;
  std::string reject_detail;
  int attempts = 0;
  int crashed_attempts = 0;
  std::int64_t virtual_ms = 0;
  bool deadline_exceeded = false;
  std::int64_t deadline_ms = 0;
  std::string breaker_key;
  np::FallbackDecision decision;

  static constexpr auto fields() {
    using R = JobOutcome;
    using record::field;
    return std::tuple{field("ran", &R::ran),
                      field("success", &R::success),
                      field("rejected", &R::rejected),
                      field("reject_cause", &R::reject_cause),
                      field("reject_detail", &R::reject_detail),
                      field("attempts", &R::attempts),
                      field("crashed_attempts", &R::crashed_attempts),
                      field("virtual_ms", &R::virtual_ms),
                      field("deadline_exceeded", &R::deadline_exceeded),
                      field("deadline_ms", &R::deadline_ms),
                      field("breaker_key", &R::breaker_key),
                      field("decision", &R::decision)};
  }
};

/// Per-run accounting: every counter a long-lived operator cares about.
/// Its json() round trip is exact — the resume CI job diffs json() of a
/// resumed run against an uninterrupted one byte for byte.
struct ServiceReport : record::Codec<ServiceReport> {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  /// Load-shed at admission (queue full).
  std::size_t shed = 0;
  /// Rejected at admission for structured reasons other than shedding
  /// (infeasible deadline, empty source).
  std::size_t rejected_admission = 0;
  /// Accepted but rejected by a drain before starting.
  std::size_t drained = 0;
  std::size_t succeeded = 0;
  std::size_t succeeded_after_retry = 0;
  std::size_t degraded = 0;
  /// Terminal kRejected during execution (compile errors etc.).
  std::size_t rejected_execution = 0;
  /// Extra attempts performed across all jobs.
  std::size_t retries = 0;
  /// Attempts that died with their worker process (exit / signal /
  /// wedge), across all jobs. Nonzero only under --isolate=process;
  /// nonzero crashes flip cudanp-cc's exit to 8 (crashed-but-completed).
  std::size_t crashes = 0;
  /// Jobs whose final decision hit a resource cap (RLIMIT_AS) — the
  /// non-transient, breaker-eligible cousin of a crash.
  std::size_t resource_limited = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t breaker_opens = 0;
  std::size_t breaker_probes = 0;
  std::size_t breaker_short_circuits = 0;
  /// Final virtual clock (sum of committed job costs).
  std::int64_t virtual_ms = 0;

  std::vector<JobResult> jobs;
  std::vector<BreakerSnapshot> breakers;

  /// True when every submitted job reached a terminal state (always, by
  /// construction — asserted by tests, relied on by CI).
  [[nodiscard]] bool complete() const { return jobs.size() == submitted; }
  /// True when every job succeeded (possibly after retries).
  [[nodiscard]] bool all_succeeded() const {
    return degraded == 0 && rejected_admission == 0 && shed == 0 &&
           drained == 0 && rejected_execution == 0;
  }
  [[nodiscard]] std::string str() const;

  static constexpr auto fields() {
    using R = ServiceReport;
    using record::field;
    return std::tuple{
        field("submitted", &R::submitted),
        field("accepted", &R::accepted),
        field("shed", &R::shed),
        field("rejected_admission", &R::rejected_admission),
        field("drained", &R::drained),
        field("succeeded", &R::succeeded),
        field("succeeded_after_retry", &R::succeeded_after_retry),
        field("degraded", &R::degraded),
        field("rejected_execution", &R::rejected_execution),
        field("retries", &R::retries),
        field("crashes", &R::crashes),
        field("resource_limited", &R::resource_limited),
        field("deadline_exceeded", &R::deadline_exceeded),
        field("breaker_opens", &R::breaker_opens),
        field("breaker_probes", &R::breaker_probes),
        field("breaker_short_circuits", &R::breaker_short_circuits),
        field("virtual_ms", &R::virtual_ms),
        field("breakers", &R::breakers),
        field("jobs", &R::jobs)};
  }
};

struct ServiceOptions {
  /// Bounded admission queue; submissions beyond it are shed.
  int queue_capacity = 256;
  /// Host threads executing jobs concurrently (exec_pool semantics:
  /// 0 = CUDANP_JOBS env, else hardware concurrency).
  int jobs = 0;
  /// Deadline applied to jobs that do not set one.
  std::int64_t default_deadline_ms = 2000;
  /// Admission floor: declared deadlines below this are rejected
  /// outright (structured overload rejection) rather than admitted to
  /// fail.
  std::int64_t min_feasible_ms = 1;
  /// Deadline -> watchdog mapping: a job with R virtual ms remaining
  /// runs its next attempt under a step budget of R * steps_per_ms.
  std::int64_t steps_per_ms = 4096;
  /// Virtual cost charged per completed attempt (a watchdog trip whose
  /// budget was deadline-bound charges the full remaining deadline
  /// instead).
  std::int64_t attempt_cost_ms = 10;
  /// Deterministic drain point for tests: accepted-queue positions >=
  /// this are rejected with cause "drained" (as if request_drain() had
  /// been called after that many jobs were claimed). Negative = never.
  std::int64_t drain_before_job = -1;
  RetryPolicy retry;
  BreakerPolicy breaker;
  sim::SanitizerEngine::Options sanitizer;
  double f32_rel_tol = 1e-3;

  /// Symbolic equivalence certification (np/certifier.hpp): an attempt
  /// certifies each variant it consults before running it — proven
  /// variants carry a machine-checkable certificate, refuted ones are
  /// quarantined as proven-wrong. Certificates are content-addressed
  /// serve artifacts: with an artifact_cache they persist across runs
  /// (checksummed; torn/corrupt entries quarantined and re-certified).
  bool certify = false;
  /// With certify: variants whose certificate verdict is proven skip
  /// the per-run sanitized cross-check and execute on the fast path
  /// (the watchdog still applies). Off, certificates only gate refuted
  /// variants.
  bool certified_fast_path = false;

  /// Crash isolation: kProcess runs every attempt in a sandboxed worker
  /// subprocess (serve/supervisor.hpp), so a natively crashing,
  /// aborting, or wedged job cannot take the batch down. Reports are
  /// bit-identical across modes for batches that do not actually crash.
  IsolationMode isolate = IsolationMode::kNone;
  /// The worker pool's knobs under kProcess: command line, RLIMIT_AS cap
  /// (overruns surface as the "resource-limit" failure cause), read
  /// timeout and heartbeat.
  SupervisorOptions supervisor;

  /// Write-ahead commit journal: when set, every job's outcome is
  /// appended durably (fsync per record) in admission order before its
  /// commit. A batch killed at any point — including SIGKILL — can then
  /// finish under resume=true with a ServiceReport byte-identical to an
  /// uninterrupted run; a journal whose fingerprint does not match the
  /// submitted batch raises ResumeMismatchError (exit 9 in cudanp-cc).
  std::string journal_path;
  bool resume = false;
  /// Jobs executed per execute->journal->commit round when journaling
  /// (bounds how much re-execution a crash can cost). Chunking cannot
  /// affect the report: outcomes are independent and commit order is
  /// fixed. <= 0 runs the whole batch as one chunk.
  int commit_chunk = 16;

  /// Content-addressed compile cache shared across runs (non-owning;
  /// the daemon owns one). A hit returns the byte-identical
  /// AttemptResult recompilation would produce, so caching can never
  /// change a report — only skip work. Null = no caching.
  ArtifactCache* artifact_cache = nullptr;
  /// Long-lived worker pool shared across runs (non-owning). When set
  /// (and isolate == kProcess) the service uses it instead of spawning
  /// its own, so crash-loop respawn backoff accumulates daemon-wide
  /// instead of resetting per batch. Null = per-run supervisor.
  WorkerSupervisor* shared_supervisor = nullptr;
  /// Cross-run breaker state (non-owning). When set, this run reads
  /// and advances the shared breakers (keyed identically to the local
  /// ones) and snapshots only the keys it touched, in sorted order —
  /// so a run that shares breakers with nobody reports exactly what a
  /// standalone run would. Null = per-run breakers (the default, and
  /// the strict determinism contract).
  BreakerRegistry* breaker_registry = nullptr;
};

/// Content-addressed artifact-cache key of one equivalence certificate:
/// the job source plus everything that changes the proof (kernel,
/// device model, workload shape, config, certifier options: the
/// service's are validation_options(req).certifier_options()). Exposed
/// so tests and operators can address stored certificates directly.
[[nodiscard]] std::string certificate_cache_key(
    const std::string& source, const std::string& kernel,
    const std::string& device, int sm_version, int elems, int tb,
    const std::string& config, const np::CertifyOptions& copt);

class BatchService {
 public:
  BatchService(sim::DeviceSpec spec, ServiceOptions opt);
  ~BatchService();

  /// Runs a whole batch to completion and returns the report. Every job
  /// in `jobs` appears in report.jobs (same order) in exactly one
  /// terminal state; the call never throws on job misbehaviour (a
  /// resume fingerprint mismatch throws ResumeMismatchError — operator
  /// error, not job misbehaviour).
  [[nodiscard]] ServiceReport run(const std::vector<JobSpec>& jobs);

  /// Graceful shutdown: jobs already executing finish and commit;
  /// queued jobs are rejected with cause "drained". Safe to call from
  /// any thread while run() is in flight. (For deterministic tests use
  /// ServiceOptions::drain_before_job instead — which jobs a live drain
  /// catches depends on scheduling, by nature.)
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }

 private:
  void run_job(const JobSpec& spec, std::size_t index,
               JobOutcome* out) const;

  sim::DeviceSpec spec_;
  ServiceOptions opt_;
  std::atomic<bool> drain_{false};
  /// Live only while run() executes with isolate == kProcess and no
  /// shared supervisor was provided.
  std::unique_ptr<WorkerSupervisor> owned_supervisor_;
  /// The supervisor run_job executes through (owned or shared); null
  /// outside run() or under isolate == kNone.
  WorkerSupervisor* sup_ = nullptr;
};

}  // namespace cudanp::serve
