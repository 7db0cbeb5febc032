// End-to-end tests of the cudanp-cc command-line compiler (invoked as a
// subprocess, exactly as a user would).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "temp_util.hpp"

#ifndef CUDANP_CC_PATH
#define CUDANP_CC_PATH "tools/cudanp-cc"
#endif

namespace {

using cudanp::test::ScopedTempDir;
using cudanp::test::write_exclusive;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult run_cli(const std::string& args) {
  std::string cmd = std::string(CUDANP_CC_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buf;
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return r;
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe))
    r.output += buf.data();
  int status = pclose(pipe);
  r.exit_code = WEXITSTATUS(status);
  return r;
}

// Pid-unique temp paths + O_EXCL creation live in tests/temp_util.hpp
// (shared with the daemon/supervisor suites).
std::string temp_name(const std::string& name) {
  return cudanp::test::temp_name("cudanp_cli", name);
}

std::string write_temp_kernel(const std::string& body) {
  return write_exclusive(temp_name("test.cu"), body);
}

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

TEST(Cli, TransformsToStdout) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --slave-size=8 --np-type=intra");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tmv_np"), std::string::npos);
  EXPECT_NE(r.output.find("__shfl_xor"), std::string::npos);
  EXPECT_NE(r.output.find("slave_id"), std::string::npos);
}

TEST(Cli, WritesOutputFile) {
  auto path = write_temp_kernel(kTmv);
  std::string out = temp_name("out.cu");
  auto r = run_cli(path + " -o " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream f(out);
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("tmv_np"), std::string::npos);
}

TEST(Cli, ReportMode) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --report --slave-size=4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("occupancy:"), std::string::npos);
  EXPECT_NE(r.output.find("registers:"), std::string::npos);
}

TEST(Cli, AllEmitsEveryCandidate) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --all");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("inter-warp slave_size=2"), std::string::npos);
  EXPECT_NE(r.output.find("intra-warp slave_size=32"), std::string::npos);
}

TEST(Cli, NoShflForcesSharedMemory) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --np-type=intra --slave-size=4 --no-shfl");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("__shfl"), std::string::npos);
  EXPECT_NE(r.output.find("__np_red_f"), std::string::npos);
}

TEST(Cli, OldSmVersionAvoidsShfl) {
  // Paper Sec. 3.6: sm_version < 30 must not use __shfl.
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --np-type=intra --slave-size=4 --sm=20");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("__shfl"), std::string::npos);
}

TEST(Cli, PreprocessRerolls) {
  auto path = write_temp_kernel(R"(
__global__ void k(float* a, float* b, int n) {
  float s = 0.0f;
  s += a[3] * b[0];
  s += a[1] * b[1];
  s += a[4] * b[2];
  s += a[1] * b[3];
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < n; i++) s += a[i];
  b[threadIdx.x] = s;
}
)");
  auto r = run_cli(path + " --preprocess");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("re-rolled 4 statements"), std::string::npos);
  EXPECT_NE(r.output.find("__rr_tab"), std::string::npos);
}

TEST(Cli, MissingFileFails) {
  auto r = run_cli("/nonexistent/kernel.cu");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, NoArgumentsShowsUsage) {
  auto r = run_cli("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, KernelWithoutPragmasFails) {
  auto path = write_temp_kernel(
      "__global__ void k(float* a) { a[0] = 1.0f; }");
  auto r = run_cli(path);
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, SyntaxErrorFails) {
  auto path = write_temp_kernel("__global__ void k(float* a) { a[0] = ; }");
  auto r = run_cli(path);
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, UnknownOptionFails) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --frobnicate");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, SanitizeCleanKernelPasses) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --sanitize");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("baseline: clean"), std::string::npos);
  EXPECT_NE(r.output.find("PASS"), std::string::npos);
}

TEST(Cli, SanitizeRacyKernelExitsThree) {
  auto path = write_temp_kernel(R"(
__global__ void racy(float* out, int n) {
  __shared__ float s[32];
  s[0] = threadIdx.x;
  out[threadIdx.x] = s[0];
}
)");
  auto r = run_cli(path + " --sanitize");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("shared-race"), std::string::npos);
  EXPECT_NE(r.output.find("write-write race"), std::string::npos);
}

TEST(Cli, SanitizeUnannotatedKernelRunsBaselineOnly) {
  // Without pragmas there is nothing to transform, but guarded execution
  // still audits the kernel (unlike plain mode, which rejects it).
  auto path = write_temp_kernel(R"(
__global__ void uninit(float* out, int n) {
  float x;
  out[threadIdx.x] = x;
}
)");
  auto r = run_cli(path + " --sanitize");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("uninit-read"), std::string::npos);
}

TEST(Cli, SanitizeErrorLimitIsReported) {
  auto path = write_temp_kernel(R"(
__global__ void racy(float* out, int n) {
  __shared__ float s[32];
  s[0] = threadIdx.x;
  out[threadIdx.x] = s[0];
}
)");
  auto r = run_cli(path + " --sanitize --error-limit=1");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("error limit reached"), std::string::npos);
}

TEST(Cli, SanitizeRejectsBadErrorLimit) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --sanitize --error-limit=-2");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, WatchdogStepsTripsRunawayKernel) {
  // An unannotated infinite loop under --sanitize: the watchdog converts
  // the would-be hang into a watchdog-trip hazard (exit 3, like any
  // other hazard in sanitize mode).
  auto path = write_temp_kernel(R"(
__global__ void spin(float* out, int n) {
  float x = 0.0f;
  while (0 < 1) {
    x = x + 1.0f;
  }
  out[threadIdx.x] = x;
}
)");
  auto r = run_cli(path + " --sanitize --watchdog-steps=1000");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("watchdog-trip"), std::string::npos) << r.output;
}

TEST(Cli, FallbackPicksVariantWhenClean) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --fallback=baseline");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tmv_np"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"used_baseline\":false"), std::string::npos)
      << r.output;
}

TEST(Cli, FallbackDegradesToBaselineWithReport) {
  // The synthetic workload at this size sends the baseline itself out of
  // bounds, so every candidate (and the baseline) is quarantined — the
  // tool must still print a runnable kernel and exit 6 with the JSON
  // failure report.
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --fallback=baseline --elems=16");
  EXPECT_EQ(r.exit_code, 6) << r.output;
  EXPECT_NE(r.output.find("__global__ void tmv"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"used_baseline\":true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("quarantined"), std::string::npos) << r.output;
}

TEST(Cli, FallbackAcceptsUnannotatedKernel) {
  // A kernel with no #pragma np loops has nothing to fall back from, but
  // --fallback must still accept it (like --sanitize does) and run the
  // baseline; a watchdog trip there is a degraded outcome, exit 6.
  auto path = write_temp_kernel(R"(
__global__ void spin(float* out, int n) {
  float x = 0.0f;
  while (0 < 1) {
    x = x + 1.0f;
  }
  out[threadIdx.x] = x;
}
)");
  auto r = run_cli(path + " --fallback=baseline --watchdog-steps=1000");
  EXPECT_EQ(r.exit_code, 6) << r.output;
  EXPECT_NE(r.output.find("no #pragma np loops"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("__global__ void spin"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("watchdog-trip"), std::string::npos) << r.output;
}

TEST(Cli, FallbackRejectsUnknownPolicy) {
  auto path = write_temp_kernel(kTmv);
  auto r = run_cli(path + " --fallback=frobnicate");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, RejectsGarbageNumericFlags) {
  // The atoi era: --tb=8x silently meant 8 and --jobs=x meant 0. Every
  // numeric flag now goes through the checked parser.
  auto path = write_temp_kernel(kTmv);
  for (const char* flag :
       {"--tb=8x", "--tb=", "--tb=99999", "--slave-size=four", "--sm=abc",
        "--elems=1e3", "--jobs=0", "--watchdog-steps=10x",
        "--error-limit=-2", "--queue-cap=0x10", "--deadline-ms=soon",
        "--retries=1.5"}) {
    auto r = run_cli(path + " " + flag);
    EXPECT_EQ(r.exit_code, 1) << flag << ": " << r.output;
  }
  auto ok = run_cli(path + " --tb=64");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

std::string write_temp_file(const std::string& name,
                            const std::string& body) {
  return write_exclusive(temp_name(name), body);
}

TEST(Cli, BatchHealthyManifestExitsZero) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "healthy.txt", "file=" + kernel + " elems=16 tb=8 name=ok\n");
  auto r = run_cli("--batch=" + manifest);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ok: succeeded"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("SERVED\n"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"submitted\":1"), std::string::npos)
      << r.output;
}

TEST(Cli, BatchMixedManifestExitsSevenWithAllTerminalStates) {
  auto kernel = write_temp_kernel(kTmv);
  auto spin = write_temp_file("spin.cu", R"(
__global__ void spin(int* a, int n) {
  int i = 0;
  while (n > 0) { i = i + 1; }
  a[0] = i;
}
)");
  auto manifest = write_temp_file(
      "mixed.txt",
      "# healthy / flaky / broken / hanging\n"
      "file=" + kernel + " elems=16 tb=8 name=healthy\n"
      "file=" + kernel +
          " elems=16 tb=8 fault-step=5 transient-attempts=1 name=flaky\n"
      "file=" + kernel + " elems=16 tb=8 fault-step=5 name=broken\n"
      "file=" + spin + " deadline-ms=20 name=hang\n");
  auto r = run_cli("--batch=" + manifest + " --jobs=4");
  EXPECT_EQ(r.exit_code, 7) << r.output;
  EXPECT_NE(r.output.find("healthy: succeeded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("flaky: succeeded-after-retry"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("broken: degraded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hang: degraded (deadline-exceeded)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("SERVED-DEGRADED"), std::string::npos)
      << r.output;
}

TEST(Cli, BatchWithShadowedIntParamCompletesInProcess) {
  // A local `int w` shadowing the `int w` parameter once overflowed the
  // parameter's one-element slot and aborted the whole unisolated batch
  // with a heap-corruption signal. It must complete with a report.
  auto kernel = write_temp_kernel(R"(
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  int w = tx + 1;
  c[tx] = sum + w;
}
)");
  auto manifest = write_temp_file(
      "shadow.txt", "file=" + kernel + " elems=16 tb=8 name=first\n"
                    "file=" + kernel + " elems=16 tb=8 name=second\n");
  auto r = run_cli("--batch=" + manifest + " --isolate=none");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("first: succeeded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("second: succeeded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"submitted\":2"), std::string::npos)
      << r.output;
}

TEST(Cli, BatchBadManifestExitsOneWithLineNumber) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "bad.txt", "file=" + kernel + " elems=64x\n");
  auto r = run_cli("--batch=" + manifest);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("line 1: bad elems=64x"), std::string::npos)
      << r.output;
}

TEST(Cli, BatchMissingManifestExitsOne) {
  auto r = run_cli("--batch=/nonexistent/manifest.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot read manifest"), std::string::npos)
      << r.output;
}

TEST(Cli, BatchAndInputFileAreMutuallyExclusive) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest =
      write_temp_file("both.txt", "file=" + kernel + " name=x\n");
  auto r = run_cli(kernel + " --batch=" + manifest);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(Cli, EmittedOutputIsReparsable) {
  // Feed cudanp-cc its own output: source-to-source must close the loop.
  auto path = write_temp_kernel(kTmv);
  std::string out = temp_name("round.cu");
  auto r1 = run_cli(path + " --slave-size=4 -o " + out);
  ASSERT_EQ(r1.exit_code, 0) << r1.output;
  // The transformed kernel has no pragmas left, so ask for a report of a
  // named kernel instead of re-transforming.
  auto r2 = run_cli(out + " --kernel=tmv_np --report");
  EXPECT_EQ(r2.exit_code, 0) << r2.output;
  EXPECT_NE(r2.output.find("kernel tmv_np"), std::string::npos);
}

// ---------------------------------------------------------------------
// Crash isolation and durable recovery (--isolate / --journal).

TEST(Cli, IsolatedCrashingBatchExitsEightDegraded) {
  // A kernel that raises a genuine SIGSEGV mid-interpretation: without
  // isolation it kills cudanp-cc outright; under --isolate=process the
  // batch completes degraded with the crashed-but-completed exit code.
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "crash.txt",
      "file=" + kernel + " elems=16 tb=8 name=ok\n"
      "file=" + kernel +
          " elems=16 tb=8 crash-step=3 attempts=2 name=boom\n");
  auto r = run_cli("--batch=" + manifest + " --isolate=process");
  EXPECT_EQ(r.exit_code, 8) << r.output;
  EXPECT_NE(r.output.find("ok: succeeded"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("boom: degraded (crash)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("crashed attempt(s)"), std::string::npos)
      << r.output;
}

TEST(Cli, UnisolatedReportHasNoIsolationLine) {
  // Zero-crash batches must print the exact pre-isolation report.
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "quiet.txt", "file=" + kernel + " elems=16 tb=8 name=ok\n");
  auto r = run_cli("--batch=" + manifest);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("isolation:"), std::string::npos) << r.output;
}

TEST(Cli, WorkerMemoryCapExitsEightWithResourceLimit) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "oom.txt",
      "file=" + kernel + " elems=16 tb=8 oom-mb=4096 name=fat\n");
  auto r = run_cli("--batch=" + manifest +
                   " --isolate=process --worker-mem-mb=512");
  EXPECT_EQ(r.exit_code, 8) << r.output;
  EXPECT_NE(r.output.find("fat: degraded (resource-limit)"),
            std::string::npos)
      << r.output;
}

TEST(Cli, JournaledRunThenResumeReproducesReportBitForBit) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "journal.txt",
      "file=" + kernel + " elems=16 tb=8 name=a\n"
      "file=" + kernel + " elems=16 tb=8 fault-step=5"
      " transient-attempts=1 name=flaky\n"
      "file=" + kernel + " elems=16 tb=8 crash-step=3 name=boom\n");
  ScopedTempDir tmp("cudanp_cli_journal");
  std::string j_full = tmp.file("full.journal");
  std::string j_cut = tmp.file("cut.journal");
  std::string args = "--batch=" + manifest +
                     " --isolate=process --commit-chunk=1 --journal=";
  auto full = run_cli(args + j_full);
  EXPECT_EQ(full.exit_code, 8) << full.output;

  // Simulate a SIGKILL after the first commit: keep the header and the
  // first record, truncating mid-way through the second (a torn tail).
  {
    std::ifstream in(j_full);
    std::string line, kept;
    for (int i = 0; i < 2 && std::getline(in, line); ++i)
      kept += line + "\n";
    std::getline(in, line);
    kept += line.substr(0, line.size() / 2);  // torn final record
    write_exclusive(j_cut, kept);
  }
  auto resumed = run_cli(args + j_cut + " --resume --jobs=2");
  EXPECT_EQ(resumed.exit_code, 8) << resumed.output;
  EXPECT_EQ(full.output, resumed.output);
}

TEST(Cli, SigkilledBatchResumesToIdenticalReport) {
  // The real thing: SIGKILL the process mid-batch (a wedge job holds it
  // in flight), then --resume and diff against an uninterrupted run.
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "kill.txt",
      "file=" + kernel + " elems=16 tb=8 name=a\n"
      "file=" + kernel + " elems=16 tb=8 name=b\n"
      "file=" + kernel + " elems=16 tb=8 wedge attempts=1 name=stuck\n"
      "file=" + kernel + " elems=16 tb=8 name=c\n");
  ScopedTempDir tmp("cudanp_cli_sigkill");
  std::string j_full = tmp.file("sk_full.journal");
  std::string j_kill = tmp.file("sk_kill.journal");
  std::string common = "--batch=" + manifest +
                       " --isolate=process --commit-chunk=1"
                       " --worker-timeout-ms=4000 --jobs=1 --journal=";
  auto full = run_cli(common + j_full);
  EXPECT_EQ(full.exit_code, 8) << full.output;

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Quiet child: the report goes nowhere, only the journal matters.
    ::execl("/bin/sh", "sh", "-c",
            (std::string(CUDANP_CC_PATH) + " " + common + j_kill +
             " >/dev/null 2>&1")
                .c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // a and b commit fast; "stuck" then wedges for seconds — kill lands
  // mid-batch with a partially written journal.
  ::usleep(800 * 1000);
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);

  std::ifstream probe(j_kill);
  ASSERT_TRUE(probe.good()) << "journal was never created";
  auto resumed = run_cli(common + j_kill + " --resume");
  EXPECT_EQ(resumed.exit_code, 8) << resumed.output;
  EXPECT_EQ(full.output, resumed.output);
}

TEST(Cli, ResumeMismatchExitsNine) {
  auto kernel = write_temp_kernel(kTmv);
  auto m1 = write_temp_file(
      "m1.txt", "file=" + kernel + " elems=16 tb=8 name=a\n");
  auto m2 = write_temp_file(
      "m2.txt", "file=" + kernel + " elems=16 tb=8 name=renamed\n");
  ScopedTempDir tmp("cudanp_cli_mismatch");
  std::string j = tmp.file("mismatch.journal");
  auto r1 = run_cli("--batch=" + m1 + " --journal=" + j);
  EXPECT_EQ(r1.exit_code, 0) << r1.output;
  auto r2 = run_cli("--batch=" + m2 + " --journal=" + j + " --resume");
  EXPECT_EQ(r2.exit_code, 9) << r2.output;
  EXPECT_NE(r2.output.find("different batch"), std::string::npos)
      << r2.output;
}

TEST(Cli, ResumeRequiresJournal) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "nr.txt", "file=" + kernel + " name=a\n");
  auto r = run_cli("--batch=" + manifest + " --resume");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--resume requires --journal"),
            std::string::npos)
      << r.output;
}

TEST(Cli, RejectsBadIsolateValue) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "bi.txt", "file=" + kernel + " name=a\n");
  auto r = run_cli("--batch=" + manifest + " --isolate=vm");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bad value for --isolate"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------
// Heartbeat/timeout validation and the persistent serve daemon.

TEST(Cli, HeartbeatMustFitInsideWorkerTimeout) {
  // 2 * heartbeat must fit inside the supervisor read timeout, or a
  // healthy worker would be declared wedged between beats. Caught at
  // parse time with a structured message.
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "hb.txt", "file=" + kernel + " name=a\n");
  auto r = run_cli("--batch=" + manifest +
                   " --heartbeat-ms=800 --worker-timeout-ms=1000");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("2*heartbeat <= --worker-timeout-ms"),
            std::string::npos)
      << r.output;
  // The boundary case is legal: 2 * 500 == 1000.
  auto ok = run_cli("--batch=" + manifest +
                    " --heartbeat-ms=500 --worker-timeout-ms=1000");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

/// Launches `cudanp-cc --serve` as a real subprocess and waits for the
/// socket to appear; kills the daemon on destruction if the test did
/// not shut it down.
struct ScopedDaemon {
  pid_t pid = -1;
  std::string socket;
  bool reaped = false;

  ScopedDaemon(const std::string& sock, const std::string& extra_args)
      : socket(sock) {
    // `exec` makes the daemon replace the shell, so `pid` is the daemon
    // itself and signals land directly.
    std::string cmd = "exec " + std::string(CUDANP_CC_PATH) +
                      " --serve=" + sock + " " + extra_args +
                      " >/dev/null 2>&1";
    pid = ::fork();
    if (pid == 0) {
      ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int i = 0; i < 200 && ::access(sock.c_str(), F_OK) != 0; ++i)
      ::usleep(25 * 1000);
    EXPECT_EQ(::access(sock.c_str(), F_OK), 0)
        << "daemon never bound " << sock;
  }

  /// Waits for the daemon to exit and returns its exit code.
  int wait() {
    int status = 0;
    ::waitpid(pid, &status, 0);
    reaped = true;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~ScopedDaemon() {
    if (!reaped && pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
};

TEST(Cli, DaemonServesManifestIdenticalToBatchThenDrains) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "daemon.txt",
      "file=" + kernel + " elems=16 tb=8 name=ok\n"
      "file=" + kernel +
          " elems=16 tb=8 fault-step=5 transient-attempts=1 name=flaky\n");
  ScopedTempDir tmp("cudanp_cli_daemon");
  ScopedDaemon daemon(tmp.file("d.sock"), "--cache-entries=64");

  auto local = run_cli("--batch=" + manifest);
  auto served = run_cli("--connect=" + daemon.socket + " --batch=" +
                        manifest + " --tenant=t1");
  EXPECT_EQ(served.exit_code, local.exit_code) << served.output;
  // The daemon's answer — report text, JSON, and exit code — is
  // byte-identical to a local --batch run (the determinism contract).
  EXPECT_EQ(served.output, local.output);
  // A second submission hits the compile cache; the report must not
  // change.
  auto again = run_cli("--connect=" + daemon.socket + " --batch=" +
                       manifest + " --tenant=t2");
  EXPECT_EQ(again.output, local.output);

  auto status = run_cli("--connect=" + daemon.socket + " --status");
  EXPECT_EQ(status.exit_code, 0) << status.output;
  EXPECT_NE(status.output.find("\"served\":2"), std::string::npos)
      << status.output;
  EXPECT_NE(status.output.find("\"hits\":"), std::string::npos)
      << status.output;
  auto health = run_cli("--connect=" + daemon.socket + " --healthz");
  EXPECT_NE(health.output.find("\"status\":\"ok\""), std::string::npos)
      << health.output;

  auto sd = run_cli("--connect=" + daemon.socket + " --shutdown");
  EXPECT_EQ(sd.exit_code, 0) << sd.output;
  EXPECT_NE(sd.output.find("draining"), std::string::npos) << sd.output;
  EXPECT_EQ(daemon.wait(), 0);
  // After a graceful drain, new connections find no daemon.
  auto after = run_cli("--connect=" + daemon.socket + " --status");
  EXPECT_EQ(after.exit_code, 1) << after.output;
}

TEST(Cli, DaemonSigtermDrainsGracefully) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "sig.txt", "file=" + kernel + " elems=16 tb=8 name=ok\n");
  ScopedTempDir tmp("cudanp_cli_sigterm");
  ScopedDaemon daemon(tmp.file("d.sock"), "");
  auto served = run_cli("--connect=" + daemon.socket + " --batch=" +
                        manifest);
  EXPECT_EQ(served.exit_code, 0) << served.output;
  // The signal path, not the 'Q' frame: SIGTERM begins a graceful drain
  // and the daemon exits 0.
  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  EXPECT_EQ(daemon.wait(), 0);
}

TEST(Cli, DaemonRejectsBadManifestWithExitTen) {
  ScopedTempDir tmp("cudanp_cli_reject");
  ScopedDaemon daemon(tmp.file("d.sock"), "");
  auto bad = write_temp_file("badm.txt", "file=/nonexistent/x.cu name=a\n");
  auto r = run_cli("--connect=" + daemon.socket + " --batch=" + bad);
  EXPECT_EQ(r.exit_code, 10) << r.output;
  EXPECT_NE(r.output.find("rejected: bad-manifest"), std::string::npos)
      << r.output;
  // The daemon survives the bad request and still serves.
  auto health = run_cli("--connect=" + daemon.socket + " --healthz");
  EXPECT_NE(health.output.find("\"status\":\"ok\""), std::string::npos)
      << health.output;
  auto sd = run_cli("--connect=" + daemon.socket + " --shutdown");
  EXPECT_EQ(sd.exit_code, 0) << sd.output;
  EXPECT_EQ(daemon.wait(), 0);
}

TEST(Cli, DaemonRestartReplaysJournalBitForBit) {
  auto kernel = write_temp_kernel(kTmv);
  auto manifest = write_temp_file(
      "replay.txt",
      "file=" + kernel + " elems=16 tb=8 name=a\n"
      "file=" + kernel + " elems=16 tb=8 fault-step=5 name=broken\n");
  ScopedTempDir tmp("cudanp_cli_replay");
  const std::string args = "--journal-dir=" + tmp.file("journals");

  std::string first_out;
  {
    ScopedDaemon daemon(tmp.file("d.sock"), args);
    auto r = run_cli("--connect=" + daemon.socket + " --batch=" +
                     manifest);
    EXPECT_EQ(r.exit_code, 7) << r.output;
    first_out = r.output;
    auto sd = run_cli("--connect=" + daemon.socket + " --shutdown");
    EXPECT_EQ(daemon.wait(), 0);
  }
  // Restart on the same socket + journal dir: the same manifest resumes
  // its fingerprint-named journal (all outcomes replayed, nothing
  // re-executed) and the report is byte-identical.
  {
    ScopedDaemon daemon(tmp.file("d.sock"), args);
    auto r = run_cli("--connect=" + daemon.socket + " --batch=" +
                     manifest);
    EXPECT_EQ(r.exit_code, 7) << r.output;
    EXPECT_EQ(r.output, first_out);
    auto sd = run_cli("--connect=" + daemon.socket + " --shutdown");
    EXPECT_EQ(daemon.wait(), 0);
  }
}

}  // namespace
