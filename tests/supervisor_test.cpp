// Crash-isolated execution workers and durable batch recovery: the
// supervisor contains native crashes (SIGSEGV), wedged workers (read
// timeout), and RLIMIT_AS overruns as structured failure causes; the
// write-ahead journal makes a SIGKILL'd batch resumable with a
// byte-identical report. Reports must stay bit-identical across
// isolation modes (for non-crashing batches), job counts, commit chunk
// sizes, and resume boundaries.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "serve/artifact_cache.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "sim/device.hpp"
#include "support/record.hpp"
#include "temp_util.hpp"

#ifndef CUDANP_CC_PATH
#define CUDANP_CC_PATH "tools/cudanp-cc"
#endif

namespace cudanp {
namespace {

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

serve::JobSpec tmv_job(const std::string& name) {
  serve::JobSpec j;
  j.name = name;
  j.source = kTmv;
  j.elems = 16;
  j.tb = 8;
  return j;
}

serve::JobSpec crashing_job(const std::string& name) {
  serve::JobSpec j = tmv_job(name);
  j.inject = true;
  j.fault.crash_at_step = 3;
  return j;
}

serve::JobSpec wedging_job(const std::string& name) {
  serve::JobSpec j = tmv_job(name);
  j.inject = true;
  j.fault.wedge_worker = true;
  j.max_attempts = 1;
  return j;
}

/// Process-isolated options pointing the supervisor at the real
/// cudanp-cc binary (the test binary itself has no --worker mode).
serve::ServiceOptions isolated_options() {
  serve::ServiceOptions opt;
  opt.isolate = serve::IsolationMode::kProcess;
  opt.supervisor.worker_cmd = {CUDANP_CC_PATH, "--worker"};
  return opt;
}

serve::ServiceReport run_batch(const std::vector<serve::JobSpec>& jobs,
                               serve::ServiceOptions opt) {
  serve::BatchService service(sim::DeviceSpec::gtx680(), opt);
  return service.run(jobs);
}

/// ctest runs suites in parallel processes: every temp path must be
/// pid-unique, and journals are created O_EXCL by the writer itself.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "cudanp_sup_" +
         std::to_string(::getpid()) + "_" + name;
}

// ---------------------------------------------------------------------
// Crash isolation.

TEST(Supervisor, NativeCrashDegradesInsteadOfKillingTheBatch) {
  // In-process this SIGSEGV would take the whole test runner down; the
  // worker sandbox must convert it into a structured kCrash degradation
  // while neighbouring jobs succeed untouched.
  auto report = run_batch(
      {tmv_job("a"), crashing_job("boom"), tmv_job("b")},
      isolated_options());
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_EQ(report.jobs[0].state, serve::JobState::kSucceeded);
  EXPECT_EQ(report.jobs[2].state, serve::JobState::kSucceeded);

  const serve::JobResult& boom = report.jobs[1];
  EXPECT_EQ(boom.state, serve::JobState::kDegraded);
  EXPECT_EQ(boom.cause, "crash");
  EXPECT_EQ(boom.chosen_config, "baseline");
  EXPECT_GT(boom.crashed_attempts, 0);
  ASSERT_FALSE(boom.quarantined.empty());
  EXPECT_EQ(boom.quarantined.front().cause, np::FailureCause::kCrash);
  EXPECT_NE(boom.quarantined.front().detail.find("signal"),
            std::string::npos)
      << boom.quarantined.front().detail;
  EXPECT_GT(report.crashes, 0u);
}

TEST(Supervisor, CrashIsTransientAndRetried) {
  // kCrash is a transient cause: the job gets its full attempt budget,
  // each on a fresh worker (the persistent fault crashes every one).
  serve::JobSpec j = crashing_job("boom");
  j.max_attempts = 3;
  auto report = run_batch({j}, isolated_options());
  EXPECT_EQ(report.jobs[0].attempts, 3);
  EXPECT_EQ(report.jobs[0].crashed_attempts, 3);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_EQ(report.retries, 2u);
}

TEST(Supervisor, ReportBitIdenticalAcrossIsolationModes) {
  // The isolation mode is an execution detail: a batch that does not
  // crash must produce the same bytes either way.
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), tmv_job("b")};
  serve::JobSpec flaky = tmv_job("flaky");
  flaky.inject = true;
  flaky.fault.sim_error_at_step = 5;
  flaky.transient_attempts = 1;
  jobs.push_back(flaky);

  serve::ServiceOptions in_process;
  auto a = run_batch(jobs, in_process);
  auto b = run_batch(jobs, isolated_options());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.json(), b.json());
}

TEST(Supervisor, CrashingBatchBitIdenticalAcrossJobCounts) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), crashing_job("boom"),
                                      tmv_job("b"), crashing_job("boom2"),
                                      tmv_job("c")};
  serve::ServiceOptions opt = isolated_options();
  opt.jobs = 1;
  auto serial = run_batch(jobs, opt);
  opt.jobs = 4;
  auto parallel = run_batch(jobs, opt);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_EQ(serial.json(), parallel.json());
}

TEST(Supervisor, UnlaunchableWorkerIsAStructuredCrashNotAHang) {
  // exec of the worker binary fails: the child _exits 127 (the shell
  // convention), which the supervisor reaps into a deterministic
  // structured crash — the batch completes degraded, never hangs.
  serve::ServiceOptions opt = isolated_options();
  opt.supervisor.worker_cmd = {"/nonexistent/cudanp-worker", "--worker"};
  auto report = run_batch({tmv_job("a")}, opt);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, serve::JobState::kDegraded);
  EXPECT_EQ(report.jobs[0].cause, "crash");
  ASSERT_FALSE(report.jobs[0].quarantined.empty());
  EXPECT_EQ(report.jobs[0].quarantined.front().detail,
            "worker exited with status 127");
}

// ---------------------------------------------------------------------
// Read-timeout regression: a worker that stops responding mid-job.

TEST(Supervisor, WedgedWorkerTripsReadTimeoutNotForever) {
  // The worker takes the job and then goes silent — no heartbeat, no
  // result, no exit. Every blocking supervisor read has a deadline, so
  // the batch must finish (well inside the ctest timeout) with the
  // wedged job degraded as a crash.
  serve::ServiceOptions opt = isolated_options();
  opt.supervisor.read_timeout_ms = 500;
  opt.supervisor.heartbeat_ms = 50;
  auto report =
      run_batch({wedging_job("stuck"), tmv_job("after")}, opt);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].state, serve::JobState::kDegraded);
  EXPECT_EQ(report.jobs[0].cause, "crash");
  ASSERT_FALSE(report.jobs[0].quarantined.empty());
  EXPECT_NE(
      report.jobs[0].quarantined.front().detail.find("unresponsive"),
      std::string::npos)
      << report.jobs[0].quarantined.front().detail;
  // The slot was reclaimed: the next job ran on a fresh worker.
  EXPECT_EQ(report.jobs[1].state, serve::JobState::kSucceeded);
}

TEST(Supervisor, SlowButAliveWorkerIsNotKilled) {
  // Heartbeats arrive faster than the read timeout, so a job that takes
  // longer than one timeout interval still completes.
  serve::ServiceOptions opt = isolated_options();
  opt.supervisor.read_timeout_ms = 300;
  opt.supervisor.heartbeat_ms = 50;
  serve::JobSpec big = tmv_job("big");
  big.elems = 4096;
  big.tb = 64;
  auto report = run_batch({big}, opt);
  EXPECT_EQ(report.jobs[0].state, serve::JobState::kSucceeded)
      << report.str();
  EXPECT_EQ(report.crashes, 0u);
}

// ---------------------------------------------------------------------
// Resource limits.

TEST(Supervisor, MemoryCapSurfacesAsResourceLimit) {
  serve::ServiceOptions opt = isolated_options();
  opt.supervisor.worker_mem_mb = 512;
  serve::JobSpec fat = tmv_job("fat");
  fat.inject = true;
  fat.fault.oom_mb = 4096;  // far past the cap
  fat.max_attempts = 3;
  auto report = run_batch({fat, tmv_job("thin")}, opt);
  ASSERT_EQ(report.jobs.size(), 2u);
  const serve::JobResult& r = report.jobs[0];
  EXPECT_EQ(r.state, serve::JobState::kDegraded);
  EXPECT_EQ(r.cause, "resource-limit");
  // Deterministic for a given cap: never retried.
  EXPECT_EQ(r.attempts, 1);
  ASSERT_FALSE(r.quarantined.empty());
  EXPECT_EQ(r.quarantined.front().cause,
            np::FailureCause::kResourceLimit);
  EXPECT_EQ(report.resource_limited, 1u);
  EXPECT_EQ(report.crashes, 0u);
  // A modest job under the same cap is unaffected.
  EXPECT_EQ(report.jobs[1].state, serve::JobState::kSucceeded);
}

TEST(Supervisor, ResourceLimitFeedsTheBreaker) {
  // Non-transient and breaker-eligible: repeat offenders open the
  // breaker exactly like any other persistent failure.
  serve::ServiceOptions opt = isolated_options();
  opt.supervisor.worker_mem_mb = 512;
  opt.breaker.failure_threshold = 2;
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    serve::JobSpec j = tmv_job("fat" + std::to_string(i));
    j.inject = true;
    j.fault.oom_mb = 4096;
    jobs.push_back(j);
  }
  auto report = run_batch(jobs, opt);
  EXPECT_GT(report.breaker_opens, 0u);
  bool routed = false;
  for (const auto& j : report.jobs) routed |= j.breaker_routed;
  EXPECT_TRUE(routed) << report.str();
}

TEST(Supervisor, OomProbeIsHarmlessWithoutACap) {
  serve::ServiceOptions opt = isolated_options();
  serve::JobSpec j = tmv_job("probe");
  j.inject = true;
  j.fault.oom_mb = 64;  // allocatable: probe succeeds, job is clean
  auto report = run_batch({j}, opt);
  EXPECT_EQ(report.jobs[0].state, serve::JobState::kSucceeded)
      << report.str();
  EXPECT_EQ(report.resource_limited, 0u);
}

// ---------------------------------------------------------------------
// Write-ahead journal and resume.

TEST(Journal, UninterruptedJournaledRunMatchesUnjournaled) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), crashing_job("boom"),
                                      tmv_job("b")};
  serve::ServiceOptions opt = isolated_options();
  auto plain = run_batch(jobs, opt);

  std::string path = temp_path("j_uninterrupted.log");
  opt.journal_path = path;
  opt.commit_chunk = 1;
  auto journaled = run_batch(jobs, opt);
  EXPECT_EQ(plain.str(), journaled.str());
  EXPECT_EQ(plain.json(), journaled.json());
  std::remove(path.c_str());
}

TEST(Journal, ResumeReplaysCompletedJobsWithoutReexecution) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), tmv_job("b"),
                                      crashing_job("boom"), tmv_job("c")};
  std::string path = temp_path("j_replay.log");
  serve::ServiceOptions opt = isolated_options();
  opt.journal_path = path;
  opt.commit_chunk = 1;
  auto full = run_batch(jobs, opt);

  // Truncate the journal to the header + first two records — as if the
  // batch had been SIGKILL'd after committing two jobs.
  std::ifstream in(path);
  std::string line, kept;
  for (int i = 0; i < 3 && std::getline(in, line); ++i)
    kept += line + "\n";
  in.close();
  std::remove(path.c_str());
  std::ofstream(path) << kept;

  opt.resume = true;
  auto resumed = run_batch(jobs, opt);
  EXPECT_EQ(full.str(), resumed.str());
  EXPECT_EQ(full.json(), resumed.json());
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsDiscardedAndReexecuted) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), tmv_job("b")};
  std::string path = temp_path("j_torn.log");
  serve::ServiceOptions opt = isolated_options();
  opt.journal_path = path;
  opt.commit_chunk = 1;
  auto full = run_batch(jobs, opt);

  // Chop the final record mid-line: a SIGKILL during append.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::size_t cut = text.rfind("\"success\"");
  ASSERT_NE(cut, std::string::npos);
  std::remove(path.c_str());
  std::ofstream(path) << text.substr(0, cut);

  std::string error;
  auto contents = serve::load_journal(path, &error);
  ASSERT_TRUE(contents.has_value()) << error;
  EXPECT_EQ(contents->records.size(), 1u);  // torn record dropped
  EXPECT_LT(static_cast<std::size_t>(contents->valid_bytes), text.size());

  opt.resume = true;
  auto resumed = run_batch(jobs, opt);
  EXPECT_EQ(full.str(), resumed.str());
  std::remove(path.c_str());
}

TEST(Journal, HeaderOnlyJournalResumesFromScratch) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a")};
  serve::ServiceOptions opt = isolated_options();
  auto full = run_batch(jobs, opt);

  std::string path = temp_path("j_header.log");
  std::string error;
  {
    auto w = serve::JournalWriter::create(
        path, serve::batch_fingerprint(jobs, sim::DeviceSpec::gtx680(), opt),
        &error);
    ASSERT_TRUE(w.has_value()) << error;
  }
  opt.journal_path = path;
  opt.resume = true;
  auto resumed = run_batch(jobs, opt);
  EXPECT_EQ(full.str(), resumed.str());
  std::remove(path.c_str());
}

TEST(Journal, ResumeAgainstDifferentBatchThrowsMismatch) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a")};
  std::string path = temp_path("j_mismatch.log");
  serve::ServiceOptions opt = isolated_options();
  opt.journal_path = path;
  (void)run_batch(jobs, opt);

  opt.resume = true;
  std::vector<serve::JobSpec> other = {tmv_job("renamed")};
  EXPECT_THROW((void)run_batch(other, opt), serve::ResumeMismatchError);
  // Changed determinism-relevant options also mismatch.
  serve::ServiceOptions tweaked = opt;
  tweaked.attempt_cost_ms = 99;
  EXPECT_THROW((void)run_batch(jobs, tweaked),
               serve::ResumeMismatchError);
  std::remove(path.c_str());
}

TEST(Journal, MissingJournalOnResumeStartsFresh) {
  // Killed before the header landed (or never ran): resume is a fresh
  // run, not an error — the recovery loop must converge.
  std::vector<serve::JobSpec> jobs = {tmv_job("a")};
  serve::ServiceOptions opt = isolated_options();
  auto full = run_batch(jobs, opt);
  std::string path = temp_path("j_missing.log");
  opt.journal_path = path;
  opt.resume = true;
  auto resumed = run_batch(jobs, opt);
  EXPECT_EQ(full.str(), resumed.str());
  std::remove(path.c_str());
}

TEST(Journal, FingerprintIgnoresJobsCountAndCommitChunk) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a")};
  const sim::DeviceSpec spec = sim::DeviceSpec::gtx680();
  serve::ServiceOptions a;
  serve::ServiceOptions b;
  b.jobs = 8;
  b.commit_chunk = 1;
  EXPECT_EQ(serve::batch_fingerprint(jobs, spec, a),
            serve::batch_fingerprint(jobs, spec, b));
  b.supervisor.worker_mem_mb = 512;  // outcome-relevant: must change the print
  EXPECT_NE(serve::batch_fingerprint(jobs, spec, a),
            serve::batch_fingerprint(jobs, spec, b));
  // sm_version decides which variants apply (__shfl needs sm_30).
  sim::DeviceSpec sm20 = spec;
  sm20.sm_version = 20;
  EXPECT_NE(serve::batch_fingerprint(jobs, spec, a),
            serve::batch_fingerprint(jobs, sm20, a));
}

TEST(Journal, FuzzTruncateAtEveryByteOfLastTwoRecords) {
  // A crash can cut the journal at ANY byte. For every truncation point
  // inside the last two records (including cutting a line mid-JSON and
  // cutting exactly at a boundary), resume must replay the intact
  // prefix and re-execute the rest, reproducing the uninterrupted
  // report byte-for-byte — never fabricating an outcome from a torn
  // line. In-process jobs keep the loop hot: the journal logic under
  // test is identical across isolation modes.
  serve::JobSpec flaky = tmv_job("flaky");
  flaky.inject = true;
  flaky.fault.sim_error_at_step = 5;  // persistent: degrades to baseline
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), flaky, tmv_job("c")};

  test::ScopedTempDir tmp("cudanp_jfuzz");
  const std::string path = tmp.file("j.log");
  serve::ServiceOptions opt;
  opt.journal_path = path;
  opt.commit_chunk = 1;
  auto full = run_batch(jobs, opt);
  const std::string full_text = full.str();
  const std::string full_json = full.json();

  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Line start offsets: header, then one line per record.
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  ASSERT_EQ(starts.size(), 1u + jobs.size());
  const std::size_t fuzz_from = starts[starts.size() - 2];

  for (std::size_t cut = fuzz_from; cut <= text.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(text.data(), static_cast<std::streamsize>(cut));
    }
    std::string error;
    auto contents = serve::load_journal(path, &error);
    ASSERT_TRUE(contents.has_value()) << "cut=" << cut << ": " << error;
    // Only whole intact records may load, in order — a torn tail is
    // dropped, never parsed into a fabricated outcome.
    ASSERT_LE(contents->records.size(), jobs.size()) << "cut=" << cut;
    ASSERT_LE(contents->valid_bytes, static_cast<std::int64_t>(cut))
        << "cut=" << cut;
    for (std::size_t i = 0; i < contents->records.size(); ++i)
      ASSERT_EQ(contents->records[i].k, i) << "cut=" << cut;

    serve::ServiceOptions ropt = opt;
    ropt.resume = true;
    auto resumed = run_batch(jobs, ropt);
    ASSERT_TRUE(resumed.str() == full_text) << "cut=" << cut;
    ASSERT_TRUE(resumed.json() == full_json) << "cut=" << cut;
  }
}

TEST(Journal, CommitChunkCannotAffectTheReport) {
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < 7; ++i) jobs.push_back(tmv_job("j" + std::to_string(i)));
  jobs.push_back(crashing_job("boom"));
  serve::ServiceOptions opt = isolated_options();
  std::string p1 = temp_path("j_chunk1.log");
  std::string p3 = temp_path("j_chunk3.log");
  opt.journal_path = p1;
  opt.commit_chunk = 1;
  auto one = run_batch(jobs, opt);
  opt.journal_path = p3;
  opt.commit_chunk = 3;
  auto three = run_batch(jobs, opt);
  EXPECT_EQ(one.str(), three.str());
  EXPECT_EQ(one.json(), three.json());
  std::remove(p1.c_str());
  std::remove(p3.c_str());
}

// ---------------------------------------------------------------------
// JSON round trips: every wire/journal/report type must satisfy
// parse(str(x)) == x for every terminal state.

TEST(RoundTrip, ServiceReportSurvivesJsonForEveryTerminalState) {
  // One batch exercising succeeded, succeeded-after-retry, degraded
  // (crash + resource-limit), and rejected.
  serve::JobSpec flaky = tmv_job("flaky");
  flaky.inject = true;
  flaky.fault.sim_error_at_step = 5;
  flaky.transient_attempts = 1;
  serve::JobSpec broken = tmv_job("broken");
  broken.source = "__global__ void oops(";
  serve::JobSpec fat = tmv_job("fat");
  fat.inject = true;
  fat.fault.oom_mb = 4096;
  serve::ServiceOptions opt = isolated_options();
  opt.supervisor.worker_mem_mb = 512;
  auto report = run_batch(
      {tmv_job("a"), flaky, crashing_job("boom"), broken, fat}, opt);
  EXPECT_GT(report.crashes, 0u);
  EXPECT_GT(report.resource_limited, 0u);

  auto parsed = serve::ServiceReport::from_json(report.json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->json(), report.json());
  EXPECT_EQ(parsed->str(), report.str());
}

TEST(RoundTrip, JobOutcomeSurvivesJson) {
  serve::JobOutcome o;
  o.ran = true;
  o.success = false;
  o.rejected = false;
  o.attempts = 3;
  o.crashed_attempts = 2;
  o.virtual_ms = 145;
  o.deadline_exceeded = true;
  o.deadline_ms = 150;
  o.breaker_key = "tmv";
  o.decision.kernel = "tmv";
  o.decision.used_baseline = true;
  np::VariantFailure f;
  f.kernel = "tmv";
  f.config = "worker";
  f.cause = np::FailureCause::kCrash;
  f.detail = "worker killed by signal 11";
  o.decision.quarantined.push_back(f);
  auto parsed = serve::JobOutcome::from_json(o.json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->json(), o.json());
}

TEST(RoundTrip, JournalRecordsSurviveLoad) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), crashing_job("boom")};
  std::string path = temp_path("j_roundtrip.log");
  serve::ServiceOptions opt = isolated_options();
  opt.journal_path = path;
  opt.commit_chunk = 1;
  (void)run_batch(jobs, opt);

  std::string error;
  auto contents = serve::load_journal(path, &error);
  ASSERT_TRUE(contents.has_value()) << error;
  EXPECT_EQ(contents->fingerprint,
            serve::batch_fingerprint(jobs, sim::DeviceSpec::gtx680(), opt));
  ASSERT_EQ(contents->records.size(), 2u);
  // Loaded outcomes re-serialize to the exact bytes that were appended.
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  for (const auto& rec : contents->records) {
    std::getline(in, line);
    EXPECT_EQ(line, "{\"k\":" + std::to_string(rec.k) +
                        ",\"outcome\":" + rec.outcome.json() + "}");
  }
  std::remove(path.c_str());
}

TEST(RoundTrip, WireTypesSurviveJson) {
  serve::AttemptRequest req;
  req.source = kTmv;
  req.kernel = "tmv";
  req.elems = 64;
  req.tb = 16;
  req.device = "k20c";
  req.sm_version = 35;
  req.max_steps = 1 << 20;
  req.corrupt_ast = true;
  req.hook_faults = true;
  req.fault.seed = 77;
  req.fault.crash_at_step = 9;
  req.fault.oom_mb = 12;
  req.fault.wedge_worker = true;
  req.error_limit = 5;
  req.portable_races = true;
  req.dedupe = false;
  req.f32_rel_tol = 2.5e-4;
  req.heartbeat_ms = 125;
  auto req2 = serve::AttemptRequest::from_json(req.json());
  ASSERT_TRUE(req2.has_value());
  EXPECT_EQ(req2->json(), req.json());

  serve::AttemptResult res;
  res.rejected = true;
  res.reject_cause = "compile-error";
  res.reject_detail = "line 1: expected ')'";
  res.kernel_name = "tmv";
  auto res2 = serve::AttemptResult::from_json(res.json());
  ASSERT_TRUE(res2.has_value());
  EXPECT_EQ(res2->json(), res.json());
}

TEST(RoundTrip, EnumSlugsReverse) {
  // Each slug table is the one spelling of its enum: to_string and the
  // record reader both come from it.
  auto check = [](const auto& table, const char* unknown) {
    for (const auto& row : table) {
      EXPECT_STREQ(to_string(row.value), row.text);
      EXPECT_EQ(record::from_slug(table, row.text), row.value);
    }
    EXPECT_FALSE(record::from_slug(table, unknown).has_value());
  };
  check(serve::kJobStateSlugs, "nope");
  check(serve::kIsolationModeSlugs, "vm");
  check(serve::kBreakerStateSlugs, "ajar");
  check(np::kFailureCauseSlugs, "segfault");
}

// ---------------------------------------------------------------------
// Record formats: the bytes every wire, journal, cache and report type
// writes are pinned here, so a codec change cannot drift them silently.

/// Needs every escape the writer knows: quote, backslash, \n \t \r and
/// a raw control byte.
const char* const kAwkward = "q\"b\\n\nt\tr\rc\x01";

sim::FaultPlan full_fault_plan() {
  sim::FaultPlan p;
  p.seed = 0x123456789abcdefULL;
  p.bit_flips = 3;
  p.sim_error_at_step = 1LL << 40;
  p.fault_block = 7;
  p.drop_barrier = true;
  p.skew_index = true;
  p.stall_block = 2;
  p.crash_at_step = 11;
  p.oom_mb = 4096;
  p.wedge_worker = true;
  p.corrupt_cache = true;
  p.tear_cache = true;
  p.corrupt_cert = true;
  p.tear_cert = true;
  return p;
}

np::Certificate full_certificate() {
  np::Certificate c;
  c.kernel = "tmv";
  c.config = std::string("inter-warp slave=4 ") + kAwkward;
  c.verdict = np::Verdict::kRefuted;
  c.detail = "output 'c[0]' differs";
  c.counterexample_seed = 5;
  c.geometry = "grid 2x1x1 block 8x1x1";
  return c;
}

np::VariantFailure full_variant_failure(np::FailureCause cause) {
  np::VariantFailure f;
  f.kernel = "tmv";
  f.config = "intra-warp slave=8";
  f.cause = cause;
  f.detail = kAwkward;
  f.hazard_count = 12;
  return f;
}

np::FallbackDecision full_decision() {
  np::FallbackDecision d;
  d.kernel = "tmv";
  d.used_baseline = false;
  d.chosen_config = "inter-warp slave=2";
  d.first_choice = "intra-warp slave=8";
  d.quarantined = {full_variant_failure(np::FailureCause::kHazards),
                   full_variant_failure(np::FailureCause::kProvenWrong)};
  return d;
}

serve::JobResult full_job_result() {
  serve::JobResult r;
  r.index = 4;
  r.name = "job \"four\"";
  r.state = serve::JobState::kSucceededAfterRetry;
  r.cause = "watchdog-trip";
  r.detail = kAwkward;
  r.chosen_config = "inter-warp slave=2";
  r.breaker_key = "tmv|intra-warp slave=8";
  r.attempts = 3;
  r.crashed_attempts = 1;
  r.deadline_ms = 2000;
  r.virtual_ms = 1234;
  r.deadline_exceeded = true;
  r.breaker_routed = true;
  r.quarantined = {full_variant_failure(np::FailureCause::kWatchdogTrip)};
  return r;
}

serve::BreakerSnapshot full_breaker() {
  serve::BreakerSnapshot b;
  b.key = "tmv|intra-warp slave=8";
  b.state = serve::BreakerState::kHalfOpen;
  b.opens = 2;
  b.probes = 3;
  b.short_circuits = 4;
  return b;
}

serve::JobOutcome full_outcome() {
  serve::JobOutcome o;
  o.ran = true;
  o.success = true;
  o.rejected = true;
  o.reject_cause = "compile-error";
  o.reject_detail = kAwkward;
  o.attempts = 2;
  o.crashed_attempts = 1;
  o.virtual_ms = 77;
  o.deadline_exceeded = true;
  o.deadline_ms = 150;
  o.breaker_key = "tmv|baseline";
  o.decision = full_decision();
  return o;
}

serve::ServiceReport full_report() {
  serve::ServiceReport r;
  r.submitted = 1;
  r.accepted = 2;
  r.shed = 3;
  r.rejected_admission = 4;
  r.drained = 5;
  r.succeeded = 6;
  r.succeeded_after_retry = 7;
  r.degraded = 8;
  r.rejected_execution = 9;
  r.retries = 10;
  r.crashes = 11;
  r.resource_limited = 12;
  r.deadline_exceeded = 13;
  r.breaker_opens = 14;
  r.breaker_probes = 15;
  r.breaker_short_circuits = 16;
  r.virtual_ms = 1LL << 33;
  r.breakers = {full_breaker(), full_breaker()};
  r.jobs = {full_job_result()};
  return r;
}

serve::AttemptRequest full_request() {
  serve::AttemptRequest r;
  r.source =
      std::string("__global__ void k(int* o) { o[0] = 1; }") + kAwkward;
  r.kernel = "tmv";
  r.elems = 64;
  r.tb = 16;
  r.device = "k20c";
  r.sm_version = 35;
  r.max_steps = 1LL << 36;
  r.corrupt_ast = true;
  r.hook_faults = true;
  r.fault = full_fault_plan();
  r.error_limit = 5;
  r.portable_races = true;
  r.dedupe = false;
  r.f32_rel_tol = 2.5e-4;
  r.heartbeat_ms = 125;
  r.certify = true;
  r.certified_fast_path = true;
  r.certificates = {full_certificate().json(), kAwkward};
  return r;
}

serve::AttemptResult full_result() {
  serve::AttemptResult r;
  r.rejected = true;
  r.reject_cause = "no-kernel";
  r.reject_detail = kAwkward;
  r.kernel_name = "tmv";
  r.decision = full_decision();
  return r;
}

serve::AttemptReply full_attempt_reply() {
  serve::AttemptReply r;
  r.result = full_result();
  r.certificates = {full_certificate().json(), kAwkward};
  return r;
}

serve::SubmitRequest full_submit() {
  serve::SubmitRequest r;
  r.tenant = "team-a";
  r.manifest = std::string("file=tmv.cu elems=64\n") + kAwkward;
  r.base_dir = "/srv/manifests";
  return r;
}

serve::SubmitReply full_reply() {
  serve::SubmitReply r;
  r.report_text = std::string("batch: 1 submitted\n") + kAwkward;
  r.report_json = full_breaker().json();
  return r;
}

serve::RejectReply full_reject() {
  serve::RejectReply r;
  r.cause = "tenant-quota";
  r.detail = kAwkward;
  return r;
}

TEST(Record, GoldenBytes) {
  // Recorded from the hand-written emitters the record codec replaced.
  // A literal that stops matching means existing journals (exit 9) and
  // cache entries no longer load: change a format on purpose or never.
  auto check = [](const auto& x, const char* golden) {
    using T = std::decay_t<decltype(x)>;
    EXPECT_EQ(x.json(), golden);
    auto back = T::from_json(x.json());
    ASSERT_TRUE(back.has_value()) << golden;
    EXPECT_EQ(back->json(), x.json());
  };
  check(full_fault_plan(),
        R"gold({"seed":81985529216486895,"bit_flips":3,"sim_error_at_st)gold"
        R"gold(ep":1099511627776,"fault_block":7,"drop_barrier":true,"s)gold"
        R"gold(kew_index":true,"stall_block":2,"crash_at_step":11,"oom_)gold"
        R"gold(mb":4096,"wedge_worker":true,"corrupt_cache":true,"tear_)gold"
        R"gold(cache":true,"corrupt_cert":true,"tear_cert":true})gold");
  check(full_certificate(),
        R"gold({"kernel":"tmv","config":"inter-warp slave=4 q\"b\\n\nt\)gold"
        R"gold(tr\rc\u0001","verdict":"refuted","seed":5,"geometry":"gr)gold"
        R"gold(id 2x1x1 block 8x1x1","detail":"output 'c[0]' differs"})gold");
  check(full_variant_failure(np::FailureCause::kHazards),
        R"gold({"kernel":"tmv","config":"intra-warp slave=8","cause":"h)gold"
        R"gold(azards","hazards":12,"detail":"q\"b\\n\nt\tr\rc\u0001"})gold");
  check(full_decision(),
        R"gold({"kernel":"tmv","used_baseline":false,"chosen_config":"i)gold"
        R"gold(nter-warp slave=2","first_choice":"intra-warp slave=8",")gold"
        R"gold(quarantined":[{"kernel":"tmv","config":"intra-warp slave)gold"
        R"gold(=8","cause":"hazards","hazards":12,"detail":"q\"b\\n\nt\)gold"
        R"gold(tr\rc\u0001"},{"kernel":"tmv","config":"intra-warp slave)gold"
        R"gold(=8","cause":"proven-wrong","hazards":12,"detail":"q\"b\\)gold"
        R"gold(n\nt\tr\rc\u0001"}]})gold");
  check(full_job_result(),
        R"gold({"index":4,"name":"job \"four\"","state":"succeeded-afte)gold"
        R"gold(r-retry","cause":"watchdog-trip","detail":"q\"b\\n\nt\tr)gold"
        R"gold(\rc\u0001","chosen_config":"inter-warp slave=2","breaker)gold"
        R"gold(_key":"tmv|intra-warp slave=8","attempts":3,"crashed_att)gold"
        R"gold(empts":1,"deadline_ms":2000,"virtual_ms":1234,"deadline_)gold"
        R"gold(exceeded":true,"breaker_routed":true,"quarantined":[{"ke)gold"
        R"gold(rnel":"tmv","config":"intra-warp slave=8","cause":"watch)gold"
        R"gold(dog-trip","hazards":12,"detail":"q\"b\\n\nt\tr\rc\u0001")gold"
        R"gold(}]})gold");
  check(full_breaker(),
        R"gold({"key":"tmv|intra-warp slave=8","state":"half-open","ope)gold"
        R"gold(ns":2,"probes":3,"short_circuits":4})gold");
  check(full_outcome(),
        R"gold({"ran":true,"success":true,"rejected":true,"reject_cause)gold"
        R"gold(":"compile-error","reject_detail":"q\"b\\n\nt\tr\rc\u000)gold"
        R"gold(1","attempts":2,"crashed_attempts":1,"virtual_ms":77,"de)gold"
        R"gold(adline_exceeded":true,"deadline_ms":150,"breaker_key":"t)gold"
        R"gold(mv|baseline","decision":{"kernel":"tmv","used_baseline":)gold"
        R"gold(false,"chosen_config":"inter-warp slave=2","first_choice)gold"
        R"gold(":"intra-warp slave=8","quarantined":[{"kernel":"tmv","c)gold"
        R"gold(onfig":"intra-warp slave=8","cause":"hazards","hazards":)gold"
        R"gold(12,"detail":"q\"b\\n\nt\tr\rc\u0001"},{"kernel":"tmv","c)gold"
        R"gold(onfig":"intra-warp slave=8","cause":"proven-wrong","haza)gold"
        R"gold(rds":12,"detail":"q\"b\\n\nt\tr\rc\u0001"}]}})gold");
  check(full_report(),
        R"gold({"submitted":1,"accepted":2,"shed":3,"rejected_admission)gold"
        R"gold(":4,"drained":5,"succeeded":6,"succeeded_after_retry":7,)gold"
        R"gold("degraded":8,"rejected_execution":9,"retries":10,"crashe)gold"
        R"gold(s":11,"resource_limited":12,"deadline_exceeded":13,"brea)gold"
        R"gold(ker_opens":14,"breaker_probes":15,"breaker_short_circuit)gold"
        R"gold(s":16,"virtual_ms":8589934592,"breakers":[{"key":"tmv|in)gold"
        R"gold(tra-warp slave=8","state":"half-open","opens":2,"probes")gold"
        R"gold(:3,"short_circuits":4},{"key":"tmv|intra-warp slave=8",")gold"
        R"gold(state":"half-open","opens":2,"probes":3,"short_circuits")gold"
        R"gold(:4}],"jobs":[{"index":4,"name":"job \"four\"","state":"s)gold"
        R"gold(ucceeded-after-retry","cause":"watchdog-trip","detail":")gold"
        R"gold(q\"b\\n\nt\tr\rc\u0001","chosen_config":"inter-warp slav)gold"
        R"gold(e=2","breaker_key":"tmv|intra-warp slave=8","attempts":3)gold"
        R"gold(,"crashed_attempts":1,"deadline_ms":2000,"virtual_ms":12)gold"
        R"gold(34,"deadline_exceeded":true,"breaker_routed":true,"quara)gold"
        R"gold(ntined":[{"kernel":"tmv","config":"intra-warp slave=8",")gold"
        R"gold(cause":"watchdog-trip","hazards":12,"detail":"q\"b\\n\nt)gold"
        R"gold(\tr\rc\u0001"}]}]})gold");
  check(full_request(),
        R"gold({"source":"__global__ void k(int* o) { o[0] = 1; }q\"b\\)gold"
        R"gold(n\nt\tr\rc\u0001","kernel":"tmv","elems":64,"tb":16,"dev)gold"
        R"gold(ice":"k20c","sm_version":35,"max_steps":68719476736,"cor)gold"
        R"gold(rupt_ast":true,"hook_faults":true,"fault":{"seed":819855)gold"
        R"gold(29216486895,"bit_flips":3,"sim_error_at_step":1099511627)gold"
        R"gold(776,"fault_block":7,"drop_barrier":true,"skew_index":tru)gold"
        R"gold(e,"stall_block":2,"crash_at_step":11,"oom_mb":4096,"wedg)gold"
        R"gold(e_worker":true,"corrupt_cache":true,"tear_cache":true,"c)gold"
        R"gold(orrupt_cert":true,"tear_cert":true},"error_limit":5,"por)gold"
        R"gold(table_races":true,"dedupe":false,"f32_rel_tol":0.0002500)gold"
        R"gold(0000000000001,"heartbeat_ms":125,"certify":true,"certifi)gold"
        R"gold(ed_fast_path":true,"certificates":["{\"kernel\":\"tmv\",)gold"
        R"gold(\"config\":\"inter-warp slave=4 q\\\"b\\\\n\\nt\\tr\\rc\)gold"
        R"gold(\u0001\",\"verdict\":\"refuted\",\"seed\":5,\"geometry\")gold"
        R"gold(:\"grid 2x1x1 block 8x1x1\",\"detail\":\"output 'c[0]' d)gold"
        R"gold(iffers\"}","q\"b\\n\nt\tr\rc\u0001"]})gold");
  check(full_result(),
        R"gold({"rejected":true,"reject_cause":"no-kernel","reject_deta)gold"
        R"gold(il":"q\"b\\n\nt\tr\rc\u0001","kernel_name":"tmv","decisi)gold"
        R"gold(on":{"kernel":"tmv","used_baseline":false,"chosen_config)gold"
        R"gold(":"inter-warp slave=2","first_choice":"intra-warp slave=)gold"
        R"gold(8","quarantined":[{"kernel":"tmv","config":"intra-warp s)gold"
        R"gold(lave=8","cause":"hazards","hazards":12,"detail":"q\"b\\n)gold"
        R"gold(\nt\tr\rc\u0001"},{"kernel":"tmv","config":"intra-warp s)gold"
        R"gold(lave=8","cause":"proven-wrong","hazards":12,"detail":"q\)gold"
        R"gold("b\\n\nt\tr\rc\u0001"}]}})gold");
  check(full_attempt_reply(),
        R"gold({"result":{"rejected":true,"reject_cause":"no-kernel","r)gold"
        R"gold(eject_detail":"q\"b\\n\nt\tr\rc\u0001","kernel_name":"tm)gold"
        R"gold(v","decision":{"kernel":"tmv","used_baseline":false,"cho)gold"
        R"gold(sen_config":"inter-warp slave=2","first_choice":"intra-w)gold"
        R"gold(arp slave=8","quarantined":[{"kernel":"tmv","config":"in)gold"
        R"gold(tra-warp slave=8","cause":"hazards","hazards":12,"detail)gold"
        R"gold(":"q\"b\\n\nt\tr\rc\u0001"},{"kernel":"tmv","config":"in)gold"
        R"gold(tra-warp slave=8","cause":"proven-wrong","hazards":12,"d)gold"
        R"gold(etail":"q\"b\\n\nt\tr\rc\u0001"}]}},"certificates":["{\")gold"
        R"gold(kernel\":\"tmv\",\"config\":\"inter-warp slave=4 q\\\"b\)gold"
        R"gold(\\\n\\nt\\tr\\rc\\u0001\",\"verdict\":\"refuted\",\"seed)gold"
        R"gold(\":5,\"geometry\":\"grid 2x1x1 block 8x1x1\",\"detail\":)gold"
        R"gold(\"output 'c[0]' differs\"}","q\"b\\n\nt\tr\rc\u0001"]})gold");
  check(full_submit(),
        R"gold({"tenant":"team-a","manifest":"file=tmv.cu elems=64\nq\")gold"
        R"gold(b\\n\nt\tr\rc\u0001","base_dir":"/srv/manifests"})gold");
  check(full_reply(),
        R"gold({"report_text":"batch: 1 submitted\nq\"b\\n\nt\tr\rc\u00)gold"
        R"gold(01","report_json":"{\"key\":\"tmv|intra-warp slave=8\",\)gold"
        R"gold("state\":\"half-open\",\"opens\":2,\"probes\":3,\"short_)gold"
        R"gold(circuits\":4}"})gold");
  check(full_reject(),
        R"gold({"cause":"tenant-quota","detail":"q\"b\\n\nt\tr\rc\u0001)gold"
        R"gold("})gold");
}

TEST(Record, RejectsMalformedShapes) {
  // An unknown or missing enum slug, a nested record or array of the
  // wrong kind, or a bad array element rejects the whole record.
  EXPECT_FALSE(np::VariantFailure::from_json(R"({"cause":"bogus"})"));
  EXPECT_FALSE(np::VariantFailure::from_json(R"({"kernel":"k"})"));
  EXPECT_FALSE(np::Certificate::from_json(R"({"verdict":"maybe"})"));
  EXPECT_FALSE(serve::JobResult::from_json(R"({"state":"nope"})"));
  EXPECT_FALSE(serve::JobResult::from_json(R"({"state":3})"));
  EXPECT_FALSE(serve::BreakerSnapshot::from_json(R"({"state":"ajar"})"));
  EXPECT_FALSE(np::FallbackDecision::from_json(R"({"quarantined":{}})"));
  EXPECT_FALSE(serve::JobResult::from_json(
      R"({"state":"degraded","quarantined":{}})"));
  EXPECT_FALSE(serve::AttemptRequest::from_json(R"({"certificates":[1]})"));
  EXPECT_FALSE(serve::AttemptRequest::from_json(R"({"certificates":"c"})"));
  EXPECT_FALSE(serve::AttemptRequest::from_json(R"({"fault":3})"));
  EXPECT_FALSE(serve::AttemptResult::from_json(R"({"decision":[]})"));
  EXPECT_FALSE(serve::AttemptReply::from_json(R"({"result":[]})"));
  EXPECT_FALSE(serve::AttemptReply::from_json(R"({"certificates":[1]})"));
  EXPECT_FALSE(serve::JobOutcome::from_json(
      R"({"decision":{"quarantined":[{"cause":"x"}]}})"));
  EXPECT_FALSE(serve::ServiceReport::from_json(R"({"breakers":{}})"));
  EXPECT_FALSE(serve::ServiceReport::from_json(R"({"jobs":[{"state":""}]})"));
  EXPECT_FALSE(serve::SubmitRequest::from_json("[]"));
  EXPECT_FALSE(serve::SubmitReply::from_json("{"));
  EXPECT_FALSE(serve::RejectReply::from_json(R"("cause")"));

  // A missing or wrong-kind scalar keeps the struct's default.
  auto req = serve::AttemptRequest::from_json(
      R"({"elems":"many","dedupe":1,"device":false,"f32_rel_tol":"x",)"
      R"("fault":{"fault_block":"x","tear_cert":0}})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->json(), serve::AttemptRequest{}.json());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Record, JournalAndArtifactGoldenBytes) {
  // Recorded from the hand-built journal, artifact-header and cache
  // counter writers the record codec replaced: a journal or cache
  // directory written before must still load.
  test::ScopedTempDir tmp("cudanp_doc_golden");
  const std::string path = tmp.file("j.journal");
  std::string error;
  {
    auto w = serve::JournalWriter::create(path, kAwkward, &error);
    ASSERT_TRUE(w) << error;
    ASSERT_TRUE(w->append(7, full_outcome()));
  }
  EXPECT_EQ(read_bytes(path),
            R"gold({"cudanp_journal":1,"fingerprint":"q\"b\\n\nt\tr\rc\u000)gold"
            R"gold(1"})gold"
            "\n"
            R"gold({"k":7,"outcome":{"ran":true,"success":true,"rejected":t)gold"
            R"gold(rue,"reject_cause":"compile-error","reject_detail":"q\"b)gold"
            R"gold(\\n\nt\tr\rc\u0001","attempts":2,"crashed_attempts":1,"v)gold"
            R"gold(irtual_ms":77,"deadline_exceeded":true,"deadline_ms":150)gold"
            R"gold(,"breaker_key":"tmv|baseline","decision":{"kernel":"tmv")gold"
            R"gold(,"used_baseline":false,"chosen_config":"inter-warp slave)gold"
            R"gold(=2","first_choice":"intra-warp slave=8","quarantined":[{)gold"
            R"gold("kernel":"tmv","config":"intra-warp slave=8","cause":"ha)gold"
            R"gold(zards","hazards":12,"detail":"q\"b\\n\nt\tr\rc\u0001"},{)gold"
            R"gold("kernel":"tmv","config":"intra-warp slave=8","cause":"pr)gold"
            R"gold(oven-wrong","hazards":12,"detail":"q\"b\\n\nt\tr\rc\u000)gold"
            R"gold(1"}]}}})gold"
            "\n");
  auto back = serve::load_journal(path, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_EQ(back->fingerprint, kAwkward);
  ASSERT_EQ(back->records.size(), 1u);
  EXPECT_EQ(back->records[0].k, 7u);
  EXPECT_EQ(back->records[0].outcome.json(), full_outcome().json());

  {
    serve::ArtifactCache cache({8, tmp.file("cache")});
    cache.store("00ff00ff00ff00ff", kAwkward);
  }
  EXPECT_EQ(read_bytes(tmp.file("cache/00ff00ff00ff00ff.art")),
            R"gold({"cudanp_artifact":1,"key":"00ff00ff00ff00ff","len":12,")gold"
            R"gold(checksum":"9372f87846066896"})gold"
            "\n" + std::string(kAwkward));
  serve::ArtifactCache reloaded({8, tmp.file("cache")});
  EXPECT_EQ(reloaded.lookup("00ff00ff00ff00ff"), kAwkward);

  // Every counter moves, most to a distinct value.
  serve::ArtifactCache cache({2, ""});
  for (const char* k : {"a", "b", "c", "d"}) cache.store(k, "payload");
  for (const char* k : {"c", "d", "d", "a", "x"}) (void)cache.lookup(k);
  ASSERT_TRUE(cache.corrupt_entry("c"));
  ASSERT_TRUE(cache.tear_entry("d"));
  for (const char* k : {"c", "d"}) (void)cache.lookup(k);
  for (const char* k : {"e", "f"}) cache.store(k, "payload");
  ASSERT_TRUE(cache.tear_entry("f"));
  (void)cache.lookup("f");
  EXPECT_EQ(cache.stats().json(),
            R"gold({"hits":3,"misses":5,"stores":6,"evictions":2,"quarantin)gold"
            R"gold(ed_corrupt":1,"quarantined_torn":2})gold");
}

TEST(Record, DaemonStatusGoldenBytes) {
  // Recorded from the hand-built status and healthz writers. A daemon
  // with a cache, a worker pool and shared breakers serves two requests
  // directly (no socket clients), so every block of the document is
  // present and the counters are deterministic.
  test::ScopedTempDir tmp("cudanp_status_golden");
  serve::DaemonOptions dopt;
  dopt.socket_path = tmp.file("d.sock");
  dopt.service = isolated_options();
  dopt.service.jobs = 1;
  dopt.cache_entries = 16;
  dopt.shared_breakers = true;
  serve::ServeDaemon daemon(std::move(dopt));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  EXPECT_EQ(daemon.healthz_json(),
            R"gold({"status":"ok","consecutive_worker_failures":0,"crash_lo)gold"
            R"gold(op_threshold":8})gold");
  serve::JobSpec broken = tmv_job("broken");
  broken.inject = true;
  broken.fault.sim_error_at_step = 5;
  auto serve_jobs = [&daemon](std::vector<serve::JobSpec> jobs) {
    auto r = std::make_shared<serve::ServeRequest>();
    r->tenant = "t";
    r->jobs = std::move(jobs);
    ASSERT_EQ(daemon.submit(r), "");
    std::unique_lock<std::mutex> lk(r->m);
    r->cv.wait(lk, [&r] { return r->done; });
  };
  serve_jobs({tmv_job("a"), broken, crashing_job("c")});
  serve_jobs({tmv_job("a"), broken});
  daemon.note_bad_request();
  daemon.note_session_reaped();
  EXPECT_EQ(daemon.status_json(),
            R"gold({"draining":false,"pending":0,"requests":{"submitted":2,)gold"
            R"gold("served":2,"failed":0,"rejected_tenant_quota":0,"rejecte)gold"
            R"gold(d_queue_full":0,"rejected_draining":0,"rejected_bad_requ)gold"
            R"gold(est":1},"sessions":{"opened":0,"reaped":1},"jobs":{"subm)gold"
            R"gold(itted":5,"succeeded":2,"succeeded_after_retry":0,"degrad)gold"
            R"gold(ed":3,"rejected":0,"retries":6,"crashes":3,"resource_lim)gold"
            R"gold(ited":0,"deadline_exceeded":0,"breaker_opens":1,"breaker)gold"
            R"gold(_short_circuits":0},"cache":{"hits":1,"misses":1,"stores)gold"
            R"gold(":1,"evictions":0,"quarantined_corrupt":0,"quarantined_t)gold"
            R"gold(orn":0},"workers":{"spawned":4,"crashes":3,"timeouts":0,)gold"
            R"gold("consecutive_failures":0},"breakers":[{"key":"tmv|baseli)gold"
            R"gold(ne","state":"open","opens":1,"probes":0,"short_circuits")gold"
            R"gold(:0},{"key":"tmv|inter-warp slave_size=8 tb=8x8 placement)gold"
            R"gold(=auto smem-comm","state":"closed","opens":0,"probes":0,")gold"
            R"gold(short_circuits":0}]})gold");
  daemon.request_drain();
  EXPECT_EQ(daemon.healthz_json(),
            R"gold({"status":"draining","consecutive_worker_failures":0,"cr)gold"
            R"gold(ash_loop_threshold":8})gold");
}

// ---------------------------------------------------------------------
// Wire protocol plumbing.

TEST(Wire, FramesRoundTripThroughAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(serve::write_frame(fds[1], serve::kFrameJob, "payload"));
  serve::Frame f;
  ASSERT_EQ(serve::read_frame(fds[0], &f, 1000),
            serve::ReadStatus::kOk);
  EXPECT_EQ(f.type, serve::kFrameJob);
  EXPECT_EQ(f.payload, "payload");
  close(fds[1]);
  EXPECT_EQ(serve::read_frame(fds[0], &f, 1000),
            serve::ReadStatus::kEof);
  close(fds[0]);
}

TEST(Wire, ReadTimesOutOnASilentPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  serve::Frame f;
  EXPECT_EQ(serve::read_frame(fds[0], &f, 50),
            serve::ReadStatus::kTimeout);
  close(fds[0]);
  close(fds[1]);
}

TEST(Wire, OversizedFrameIsAnErrorNotAnAllocation) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Hand-craft a header claiming a payload beyond kMaxFramePayload.
  unsigned char hdr[5];
  hdr[0] = static_cast<unsigned char>(serve::kFrameResult);
  std::uint32_t n = serve::kMaxFramePayload + 1;
  hdr[1] = n & 0xff;
  hdr[2] = (n >> 8) & 0xff;
  hdr[3] = (n >> 16) & 0xff;
  hdr[4] = (n >> 24) & 0xff;
  ASSERT_EQ(write(fds[1], hdr, sizeof(hdr)),
            static_cast<ssize_t>(sizeof(hdr)));
  serve::Frame f;
  EXPECT_EQ(serve::read_frame(fds[0], &f, 1000),
            serve::ReadStatus::kError);
  close(fds[0]);
  close(fds[1]);
}

}  // namespace
}  // namespace cudanp
