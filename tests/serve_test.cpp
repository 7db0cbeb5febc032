// Resilient batch serving: admission control, deadline mapping, retry
// with deterministic backoff, per-variant circuit breakers, drain, and
// the exactly-one-terminal-state contract. The batch report must be
// bit-identical at every job count (the determinism contract extended
// to the serving layer).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "serve/breaker.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"
#include "sim/device.hpp"
#include "support/string_utils.hpp"

namespace cudanp {
namespace {

// Paper Fig. 1 kernel: compiles cleanly and has candidates to choose.
const char* kTmv = R"(
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)";

// Unannotated spin kernel: hangs until the watchdog (and therefore the
// deadline mapping) trips it.
const char* kSpin = R"(
__global__ void spin(int* a, int n) {
  int i = 0;
  while (n > 0) { i = i + 1; }
  a[0] = i;
}
)";

serve::JobSpec tmv_job(const std::string& name) {
  serve::JobSpec j;
  j.name = name;
  j.source = kTmv;
  j.elems = 16;
  j.tb = 8;
  return j;
}

serve::JobSpec faulty_job(const std::string& name, int transient_attempts) {
  serve::JobSpec j = tmv_job(name);
  j.inject = true;
  j.fault.sim_error_at_step = 5;
  j.transient_attempts = transient_attempts;
  return j;
}

serve::JobSpec spin_job(const std::string& name, std::int64_t deadline_ms) {
  serve::JobSpec j;
  j.name = name;
  j.source = kSpin;
  j.elems = 8;
  j.tb = 8;
  j.deadline_ms = deadline_ms;
  return j;
}

serve::ServiceReport run_batch(const std::vector<serve::JobSpec>& jobs,
                               serve::ServiceOptions opt) {
  serve::BatchService service(sim::DeviceSpec::gtx680(), opt);
  return service.run(jobs);
}

// Every submitted job must land in exactly one terminal state, and the
// per-state counters must account for every job.
void expect_complete(const serve::ServiceReport& r) {
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.submitted,
            r.succeeded + r.succeeded_after_retry + r.degraded + r.shed +
                r.rejected_admission + r.drained + r.rejected_execution);
}

// ---------------------------------------------------------------------
// Virtual clock.

TEST(VirtualClock, AdvancesMonotonically) {
  serve::VirtualClock c;
  EXPECT_EQ(c.now_ms(), 0);
  c.advance_ms(50);
  c.advance_ms(0);
  c.advance_ms(-10);  // non-positive deltas are ignored
  EXPECT_EQ(c.now_ms(), 50);
}

// ---------------------------------------------------------------------
// Retry policy: exponential, capped, deterministically jittered.

TEST(RetryPolicy, BackoffIsDeterministic) {
  serve::RetryPolicy p;
  for (int attempt = 1; attempt <= 5; ++attempt)
    EXPECT_EQ(p.backoff_ms(7, attempt), p.backoff_ms(7, attempt));
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  serve::RetryPolicy p;
  p.jitter_ms = 0;
  p.base_backoff_ms = 20;
  p.max_backoff_ms = 100;
  EXPECT_EQ(p.backoff_ms(0, 1), 20);
  EXPECT_EQ(p.backoff_ms(0, 2), 40);
  EXPECT_EQ(p.backoff_ms(0, 3), 80);
  EXPECT_EQ(p.backoff_ms(0, 4), 100);  // capped
  EXPECT_EQ(p.backoff_ms(0, 10), 100);
}

TEST(RetryPolicy, JitterStaysInRangeAndDecorrelatesJobs) {
  serve::RetryPolicy p;
  p.jitter_ms = 10;
  bool differ = false;
  for (std::uint64_t job = 0; job < 64; ++job) {
    std::int64_t b = p.backoff_ms(job, 1);
    EXPECT_GE(b, p.base_backoff_ms);
    EXPECT_LT(b, p.base_backoff_ms + p.jitter_ms);
    if (b != p.backoff_ms(0, 1)) differ = true;
  }
  // Different jobs back off out of phase (no thundering herd).
  EXPECT_TRUE(differ);
}

// ---------------------------------------------------------------------
// Circuit breaker state machine.

TEST(CircuitBreaker, OpensAtThresholdAndShortCircuits) {
  serve::BreakerPolicy pol;
  pol.failure_threshold = 3;
  pol.cooldown_ms = 100;
  serve::CircuitBreaker br(pol);
  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);
  ASSERT_TRUE(br.allow(0));
  br.on_failure(0);
  ASSERT_TRUE(br.allow(1));
  br.on_failure(1);
  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);
  ASSERT_TRUE(br.allow(2));
  br.on_failure(2);  // third consecutive failure
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(br.opens(), 1);
  EXPECT_FALSE(br.allow(50));  // cooldown not expired
  EXPECT_EQ(br.short_circuits(), 1);
}

TEST(CircuitBreaker, SuccessResetsFailureRun) {
  serve::BreakerPolicy pol;
  pol.failure_threshold = 3;
  serve::CircuitBreaker br(pol);
  br.on_failure(0);
  br.on_failure(1);
  br.on_success();
  EXPECT_EQ(br.consecutive_failures(), 0);
  br.on_failure(2);
  br.on_failure(3);
  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);  // run restarted
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  serve::BreakerPolicy pol;
  pol.failure_threshold = 1;
  pol.cooldown_ms = 100;
  serve::CircuitBreaker br(pol);
  br.on_failure(0);
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_FALSE(br.allow(99));
  EXPECT_TRUE(br.allow(100));  // cooldown expired -> half-open probe
  EXPECT_EQ(br.state(), serve::BreakerState::kHalfOpen);
  EXPECT_EQ(br.probes(), 1);
  br.on_success();
  EXPECT_EQ(br.state(), serve::BreakerState::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopens) {
  serve::BreakerPolicy pol;
  pol.failure_threshold = 2;
  pol.cooldown_ms = 100;
  serve::CircuitBreaker br(pol);
  br.on_failure(0);
  br.on_failure(1);
  ASSERT_TRUE(br.allow(101));  // probe
  br.on_failure(101);          // probe fails -> straight back to open
  EXPECT_EQ(br.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(br.opens(), 2);
  EXPECT_FALSE(br.allow(150));
  EXPECT_GE(br.open_until_ms(), 201);
}

// ---------------------------------------------------------------------
// Admission control.

TEST(BatchService, ShedsBeyondQueueCapacity) {
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(tmv_job("j" + std::to_string(i)));
  serve::ServiceOptions opt;
  opt.queue_capacity = 4;
  opt.jobs = 2;
  auto r = run_batch(jobs, opt);
  expect_complete(r);
  EXPECT_EQ(r.accepted, 4u);
  EXPECT_EQ(r.shed, 2u);
  EXPECT_EQ(r.jobs[4].state, serve::JobState::kRejected);
  EXPECT_EQ(r.jobs[4].cause, "queue-full");
  EXPECT_EQ(r.jobs[5].cause, "queue-full");
  EXPECT_FALSE(r.all_succeeded());
}

TEST(BatchService, RejectsInfeasibleDeadlineAndEmptySource) {
  serve::JobSpec infeasible = tmv_job("too-tight");
  infeasible.deadline_ms = 2;
  serve::JobSpec empty;
  empty.name = "empty";
  serve::ServiceOptions opt;
  opt.jobs = 1;
  opt.min_feasible_ms = 5;
  auto r = run_batch({infeasible, empty, tmv_job("fine")}, opt);
  expect_complete(r);
  EXPECT_EQ(r.rejected_admission, 2u);
  EXPECT_EQ(r.jobs[0].cause, "deadline-infeasible");
  EXPECT_EQ(r.jobs[1].cause, "empty-source");
  EXPECT_EQ(r.jobs[2].state, serve::JobState::kSucceeded);
}

// ---------------------------------------------------------------------
// Execution outcomes.

TEST(BatchService, HealthyBatchAllSucceed) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), tmv_job("b"),
                                      tmv_job("c")};
  serve::ServiceOptions opt;
  opt.jobs = 2;
  auto r = run_batch(jobs, opt);
  expect_complete(r);
  EXPECT_EQ(r.succeeded, 3u);
  EXPECT_TRUE(r.all_succeeded());
  for (const auto& j : r.jobs) {
    EXPECT_TRUE(j.terminal_ok());
    EXPECT_EQ(j.attempts, 1);
    EXPECT_NE(j.chosen_config, "");
    EXPECT_NE(j.chosen_config, "baseline");
  }
  EXPECT_NE(r.str().find("SERVED"), std::string::npos);
}

TEST(BatchService, TransientFaultSucceedsAfterRetry) {
  // The fault injects only on attempt 1; the retry loop outlives it.
  auto r = run_batch({faulty_job("flaky", /*transient_attempts=*/1)},
                     serve::ServiceOptions{});
  expect_complete(r);
  ASSERT_EQ(r.succeeded_after_retry, 1u);
  EXPECT_EQ(r.jobs[0].state, serve::JobState::kSucceededAfterRetry);
  EXPECT_EQ(r.jobs[0].attempts, 2);
  EXPECT_EQ(r.retries, 1u);
  // Virtual time: two attempt costs plus one backoff were charged.
  serve::ServiceOptions defaults;
  EXPECT_GE(r.jobs[0].virtual_ms,
            2 * defaults.attempt_cost_ms + defaults.retry.base_backoff_ms);
  EXPECT_TRUE(r.all_succeeded());
}

TEST(BatchService, PersistentFaultDegradesToBaseline) {
  auto r = run_batch({faulty_job("broken", /*transient_attempts=*/0)},
                     serve::ServiceOptions{});
  expect_complete(r);
  ASSERT_EQ(r.degraded, 1u);
  const auto& j = r.jobs[0];
  EXPECT_EQ(j.state, serve::JobState::kDegraded);
  EXPECT_EQ(j.chosen_config, "baseline");
  EXPECT_EQ(j.cause, "run-error");  // transient-class, so it was retried
  EXPECT_EQ(j.attempts, 3);         // the full retry budget
  EXPECT_FALSE(j.quarantined.empty());
}

TEST(BatchService, HangingKernelTripsAtItsDeadline) {
  serve::ServiceOptions opt;
  opt.jobs = 1;
  auto r = run_batch({spin_job("hang", /*deadline_ms=*/20)}, opt);
  expect_complete(r);
  ASSERT_EQ(r.degraded, 1u);
  const auto& j = r.jobs[0];
  EXPECT_EQ(j.cause, "deadline-exceeded");
  EXPECT_TRUE(j.deadline_exceeded);
  // A deadline-bound watchdog trip consumes the whole remaining budget.
  EXPECT_EQ(j.virtual_ms, 20);
  EXPECT_EQ(r.deadline_exceeded, 1u);
}

TEST(BatchService, CompileErrorIsRejectedNotThrown) {
  serve::JobSpec bad;
  bad.name = "bad";
  bad.source = "__global__ void broken(int* a) { a[0] = ; }";
  auto r = run_batch({bad, tmv_job("good")}, serve::ServiceOptions{});
  expect_complete(r);
  EXPECT_EQ(r.rejected_execution, 1u);
  EXPECT_EQ(r.jobs[0].state, serve::JobState::kRejected);
  EXPECT_EQ(r.jobs[0].cause, "compile-error");
  EXPECT_FALSE(r.jobs[0].detail.empty());
  EXPECT_EQ(r.jobs[1].state, serve::JobState::kSucceeded);
}

// ---------------------------------------------------------------------
// Circuit breaker integration: the repeat offender gets routed to the
// baseline, and probes re-admit it after cooldown.

TEST(BatchService, BreakerOpensForRepeatOffenderAndRoutesToBaseline) {
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(faulty_job("b" + std::to_string(i), 0));
  serve::ServiceOptions opt;
  opt.jobs = 2;
  opt.breaker.failure_threshold = 3;
  opt.breaker.cooldown_ms = 100000;  // no probe within this batch
  auto r = run_batch(jobs, opt);
  expect_complete(r);
  EXPECT_EQ(r.degraded, 4u);
  EXPECT_EQ(r.breaker_opens, 1u);
  EXPECT_EQ(r.breaker_short_circuits, 1u);
  // Jobs 0-2 burn their retry budget; job 3 is routed without running
  // the doomed variant again.
  EXPECT_EQ(r.jobs[3].cause, "breaker-open");
  EXPECT_TRUE(r.jobs[3].breaker_routed);
  EXPECT_EQ(r.jobs[3].chosen_config, "baseline");
  ASSERT_EQ(r.breakers.size(), 1u);
  EXPECT_EQ(r.breakers[0].state, serve::BreakerState::kOpen);
}

TEST(BatchService, BreakerHalfOpenProbesAfterCooldown) {
  // Three failures open the breaker; by the time the next job of the
  // same key commits, enough virtual time has passed (each failed job
  // charges attempts + backoffs) that it becomes the half-open probe.
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 5; ++i)
    jobs.push_back(faulty_job("b" + std::to_string(i), 0));
  serve::ServiceOptions opt;
  opt.jobs = 1;
  opt.breaker.failure_threshold = 3;
  opt.breaker.cooldown_ms = 50;
  auto r = run_batch(jobs, opt);
  expect_complete(r);
  EXPECT_GE(r.breaker_probes, 1u);
  EXPECT_GE(r.breaker_opens, 2u);  // probe failed and re-opened
}

TEST(BatchService, BreakersArePerKernel) {
  // A sick kernel must not open the breaker for a healthy one.
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(faulty_job("sick", 0));
  jobs.push_back(tmv_job("healthy"));
  jobs.back().kernel = "tmv";
  serve::ServiceOptions opt;
  opt.jobs = 2;
  auto r = run_batch(jobs, opt);
  expect_complete(r);
  // The healthy job shares the kernel name but not the failing history:
  // injected-fault jobs key on tmv|baseline (their baseline is the
  // first quarantine), the healthy one on tmv|<first candidate>.
  EXPECT_EQ(r.jobs[3].state, serve::JobState::kSucceeded);
  std::set<std::string> keys;
  for (const auto& b : r.breakers) keys.insert(b.key);
  EXPECT_EQ(keys.size(), 2u);
}

// ---------------------------------------------------------------------
// Drain.

TEST(BatchService, DrainRejectsQueuedJobsWithDistinctCause) {
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(tmv_job("j" + std::to_string(i)));
  serve::ServiceOptions opt;
  opt.jobs = 1;
  opt.drain_before_job = 2;  // deterministic drain point
  auto r = run_batch(jobs, opt);
  expect_complete(r);
  EXPECT_EQ(r.succeeded, 2u);
  EXPECT_EQ(r.drained, 3u);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(r.jobs[i].state, serve::JobState::kRejected);
    EXPECT_EQ(r.jobs[i].cause, "drained");
  }
  EXPECT_FALSE(r.all_succeeded());
}

// ---------------------------------------------------------------------
// The acceptance criterion: a 50-job mixed batch completes with no job
// lost, and the full report is bit-identical at --jobs=1 and --jobs=8.

std::vector<serve::JobSpec> mixed_batch() {
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 50; ++i) {
    switch (i % 7) {
      case 0:
      case 1:
      case 2:
        jobs.push_back(tmv_job("healthy" + std::to_string(i)));
        break;
      case 3:
        jobs.push_back(faulty_job("flaky" + std::to_string(i), 1));
        break;
      case 4:
        jobs.push_back(faulty_job("broken" + std::to_string(i), 0));
        break;
      case 5:
        jobs.push_back(spin_job("hang" + std::to_string(i), 15));
        break;
      default: {
        serve::JobSpec bad;
        bad.name = "bad" + std::to_string(i);
        bad.source = "__global__ void oops(int* a) { a[0] = ; }";
        jobs.push_back(bad);
        break;
      }
    }
  }
  jobs[49].deadline_ms = -1;  // falls back to the service default
  return jobs;
}

TEST(BatchService, MixedBatchNoJobLostAndBitIdenticalAcrossJobCounts) {
  serve::ServiceOptions opt;
  opt.queue_capacity = 45;  // force some shedding too
  opt.breaker.cooldown_ms = 150;
  opt.jobs = 1;
  auto serial = run_batch(mixed_batch(), opt);
  opt.jobs = 8;
  auto parallel = run_batch(mixed_batch(), opt);

  expect_complete(serial);
  expect_complete(parallel);
  EXPECT_GT(serial.succeeded, 0u);
  EXPECT_GT(serial.succeeded_after_retry, 0u);
  EXPECT_GT(serial.degraded, 0u);
  EXPECT_GT(serial.rejected_execution, 0u);
  EXPECT_EQ(serial.shed, 5u);
  // The whole report — every terminal state, cause, attempt count,
  // virtual timestamp and breaker transition — is scheduling-invariant.
  EXPECT_EQ(serial.json(), parallel.json());
  EXPECT_EQ(serial.str(), parallel.str());
}

// ---------------------------------------------------------------------
// Manifest parsing.

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/cudanp_serve_test_" + std::to_string(::getpid());
    std::string cmd = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    std::ofstream(dir_ + "/k.cu") << kTmv;
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    (void)std::system(cmd.c_str());
  }
  std::string dir_;
};

TEST_F(ManifestTest, ParsesFieldsAndDefaults) {
  serve::ManifestDefaults d;
  d.elems = 48;
  d.deadline_ms = 99;
  std::string error;
  auto jobs = serve::parse_manifest(
      "# comment\n"
      "\n"
      "file=k.cu kernel=tmv elems=64 tb=16 deadline-ms=500 attempts=2\n"
      "file=k.cu fault-step=5 transient-attempts=1 name=flaky\n"
      "file=k.cu drop-barrier\n",
      dir_, d, &error);
  ASSERT_EQ(jobs.size(), 3u) << error;
  EXPECT_EQ(jobs[0].kernel, "tmv");
  EXPECT_EQ(jobs[0].elems, 64);
  EXPECT_EQ(jobs[0].tb, 16);
  EXPECT_EQ(jobs[0].deadline_ms, 500);
  EXPECT_EQ(jobs[0].max_attempts, 2);
  EXPECT_EQ(jobs[0].name, "k.cu:3");  // default: basename + line number
  EXPECT_FALSE(jobs[0].inject);
  EXPECT_NE(jobs[0].source.find("__global__"), std::string::npos);
  EXPECT_EQ(jobs[1].name, "flaky");
  EXPECT_TRUE(jobs[1].inject);
  EXPECT_EQ(jobs[1].fault.sim_error_at_step, 5);
  EXPECT_EQ(jobs[1].transient_attempts, 1);
  EXPECT_EQ(jobs[1].elems, 48);        // defaults applied
  EXPECT_EQ(jobs[1].deadline_ms, 99);  // defaults applied
  EXPECT_TRUE(jobs[2].fault.drop_barrier);
}

TEST_F(ManifestTest, RejectsBadNumericsWithLineNumbers) {
  serve::ManifestDefaults d;
  std::string error;
  auto jobs =
      serve::parse_manifest("file=k.cu elems=64x\n", dir_, d, &error);
  EXPECT_TRUE(jobs.empty());
  EXPECT_EQ(error,
            "line 1: bad value for elems: '64x' (expected integer in "
            "[1, 1048576])");
  jobs = serve::parse_manifest("file=k.cu\nfile=k.cu tb=0\n", dir_, d,
                               &error);
  EXPECT_TRUE(jobs.empty());
  EXPECT_EQ(error,
            "line 2: bad value for tb: '0' (expected integer in [1, 1024])");
}

TEST_F(ManifestTest, WatchdogStepsTakesTheCliRange) {
  // Any negative budget disables the watchdog (ExecutionLimits), on a
  // manifest line as with --watchdog-steps, which sets the line default.
  for (const char* steps : {"-2", "-9223372036854775808"}) {
    std::string error;
    auto keyed = serve::parse_manifest(
        std::string("file=k.cu watchdog-steps=") + steps, dir_,
        serve::ManifestDefaults{}, &error);
    ASSERT_EQ(keyed.size(), 1u) << error;
    serve::ManifestDefaults flagged;
    flagged.watchdog_steps = *parse_i64(steps);
    auto defaulted = serve::parse_manifest("file=k.cu", dir_, flagged, &error);
    ASSERT_EQ(defaulted.size(), 1u) << error;
    EXPECT_EQ(keyed[0].watchdog_steps, flagged.watchdog_steps);
    EXPECT_EQ(serve::batch_fingerprint(keyed, sim::DeviceSpec::gtx680(), {}),
              serve::batch_fingerprint(defaulted, sim::DeviceSpec::gtx680(),
                                       {}));
  }
}

TEST_F(ManifestTest, RejectsUnknownFieldsMissingFileAndUnreadableFile) {
  serve::ManifestDefaults d;
  std::string error;
  EXPECT_TRUE(
      serve::parse_manifest("file=k.cu bogus=1\n", dir_, d, &error).empty());
  EXPECT_EQ(error, "line 1: unknown field 'bogus=1'");
  EXPECT_TRUE(serve::parse_manifest("elems=64\n", dir_, d, &error).empty());
  EXPECT_EQ(error, "line 1: missing file=");
  EXPECT_TRUE(
      serve::parse_manifest("file=nope.cu\n", dir_, d, &error).empty());
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST_F(ManifestTest, EveryKeyAcceptsExactlyItsRange) {
  // Each field rides alone on a `file=k.cu` line. The table was recorded
  // from the per-key parser the flag table replaced: a rejected field
  // reads "-", an accepted one the fingerprint of the job it produced,
  // which covers every JobSpec field (inject and the fault plan too).
  const char* const fields[] = {
      "elems=1", "elems=1048576", "elems=0", "elems=1048577", "elems",
      "elems=", "elems=64x", "tb=1", "tb=1024", "tb=0", "tb=1025",
      "deadline-ms=1", "deadline-ms=4611686018427387903",
      "deadline-ms=4611686018427387904", "deadline-ms=0", "attempts=1",
      "attempts=1000", "attempts=0", "attempts=1001", "watchdog-steps=-1",
      "watchdog-steps=0", "watchdog-steps=9223372036854775807",
      "watchdog-steps=9223372036854775808", "seed=0",
      "seed=9223372036854775807", "seed=-1", "fault-step=1",
      "fault-step=0", "fault-block=-1", "fault-block=0", "fault-block=-2",
      "stall-block=0", "stall-block=-1", "transient-attempts=0",
      "transient-attempts=1000", "transient-attempts=1001",
      "crash-step=1", "crash-step=0", "oom-mb=1", "oom-mb=1048576",
      "oom-mb=1048577", "oom-mb=0", "wedge", "wedge=1", "drop-barrier",
      "skew-index=x", "cache-corrupt", "cache-torn=", "cert-corrupt",
      "cert-torn", "kernel", "kernel=", "kernel=tmv", "name", "name=",
      "name=x", "file", "file=", "bogus", "bogus=1", "=1", "Elems=5",
      "elems=5 elems=7"};
  std::string table;
  for (const char* field : fields) {
    std::string error;
    auto jobs = serve::parse_manifest(std::string("file=k.cu ") + field,
                                      dir_, serve::ManifestDefaults{},
                                      &error);
    table += field;
    table += " ";
    table += jobs.empty() ? "-"
                          : serve::batch_fingerprint(
                                jobs, sim::DeviceSpec::gtx680(),
                                serve::ServiceOptions{});
    table += "\n";
  }
  EXPECT_EQ(table,
            "elems=1 ea0b2b93ae19503d\n"
            "elems=1048576 fef8b35cd1a6090f\n"
            "elems=0 -\n"
            "elems=1048577 -\n"
            "elems -\n"
            "elems= -\n"
            "elems=64x -\n"
            "tb=1 c7cbcd4a130b4b71\n"
            "tb=1024 11c18efe7c99eba5\n"
            "tb=0 -\n"
            "tb=1025 -\n"
            "deadline-ms=1 118fde9f5c377bd0\n"
            "deadline-ms=4611686018427387903 37617953ebf40cc1\n"
            "deadline-ms=4611686018427387904 -\n"
            "deadline-ms=0 -\n"
            "attempts=1 8981fe545db1d088\n"
            "attempts=1000 90ada3ed34b98d1c\n"
            "attempts=0 -\n"
            "attempts=1001 -\n"
            "watchdog-steps=-1 09c348662856f0b1\n"
            "watchdog-steps=0 5a6646165baaaf3b\n"
            "watchdog-steps=9223372036854775807 441c8e1665134a53\n"
            "watchdog-steps=9223372036854775808 -\n"
            "seed=0 85b3143e1e857794\n"
            "seed=9223372036854775807 de7851334e3daf0c\n"
            "seed=-1 -\n"
            "fault-step=1 99e226d41b6c9217\n"
            "fault-step=0 -\n"
            "fault-block=-1 730aaf48e4c90b58\n"
            "fault-block=0 ed99e0b6dcb9cdc2\n"
            "fault-block=-2 -\n"
            "stall-block=0 42c964f33dcc071a\n"
            "stall-block=-1 -\n"
            "transient-attempts=0 5a6646165baaaf3b\n"
            "transient-attempts=1000 5c6f7e604b320d18\n"
            "transient-attempts=1001 -\n"
            "crash-step=1 275a8cf5c54d5c1b\n"
            "crash-step=0 -\n"
            "oom-mb=1 0c358fe5d9036779\n"
            "oom-mb=1048576 2981b98a2917669b\n"
            "oom-mb=1048577 -\n"
            "oom-mb=0 -\n"
            "wedge 0514f735b7403ae3\n"
            "wedge=1 0514f735b7403ae3\n"
            "drop-barrier b7ef69b20c6a5a39\n"
            "skew-index=x 6c8fea6a3ccf3117\n"
            "cache-corrupt 73bace4ffa53fca4\n"
            "cache-torn= d8abd54b868c07ea\n"
            "cert-corrupt 676a87130e652dbe\n"
            "cert-torn 5ca87e04193f6dea\n"
            "kernel 5a6646165baaaf3b\n"
            "kernel= 5a6646165baaaf3b\n"
            "kernel=tmv 26bcf56b05857982\n"
            "name 5a6646165baaaf3b\n"
            "name= 5a6646165baaaf3b\n"
            "name=x 3d19db324fa0de39\n"
            "file -\n"
            "file= -\n"
            "bogus -\n"
            "bogus=1 -\n"
            "=1 -\n"
            "Elems=5 -\n"
            "elems=5 elems=7 6dd2bad6a4c15bcf\n");
}

TEST_F(ManifestTest, LoadManifestResolvesRelativeToItsOwnDirectory) {
  std::ofstream(dir_ + "/m.txt") << "file=k.cu name=one\n";
  serve::ManifestDefaults d;
  std::string error;
  auto jobs = serve::load_manifest(dir_ + "/m.txt", d, &error);
  ASSERT_EQ(jobs.size(), 1u) << error;
  EXPECT_EQ(jobs[0].name, "one");
  EXPECT_TRUE(
      serve::load_manifest(dir_ + "/absent.txt", d, &error).empty());
  EXPECT_NE(error.find("cannot read manifest"), std::string::npos);
}

}  // namespace
}  // namespace cudanp
