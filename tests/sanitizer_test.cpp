// SanitizerEngine unit tests: each hazard class is provoked by a dedicated
// hand-written kernel and must surface as a structured HazardReport with
// the right category and source location — never as a thrown SimError.
#include <gtest/gtest.h>

#include <string>

#include "analysis/resources.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/sanitizer.hpp"

namespace cudanp {
namespace {

using sim::HazardKind;
using SanOptions = sim::SanitizerEngine::Options;

/// Parses `src`, builds a synthetic workload (pointer params get a
/// 4096-element buffer, int scalars the value 64, float scalars 1.0), and
/// runs the first kernel under the sanitizer.
np::ExecutionResult run_sanitized(const std::string& src, int block_x,
                                  SanOptions sopt = {}, int grid_x = 1) {
  auto program = np::NpCompiler::parse(src);
  const ir::Kernel& kernel = *program->kernels.front();
  np::Workload w;
  for (const auto& p : kernel.params) {
    if (p.type.is_pointer)
      w.launch.args.push_back(w.mem->alloc(p.type.scalar, 4096));
    else if (p.type.scalar == ir::ScalarType::kFloat)
      w.launch.args.push_back(sim::LaunchConfig::scalar_float(1.0));
    else
      w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  }
  w.launch.block = {block_x, 1, 1};
  w.launch.grid = {grid_x, 1, 1};
  np::Runner runner(sim::DeviceSpec::gtx680());
  return runner.execute(
      np::ExecutionRequest::baseline(kernel, w).sanitized(sopt));
}

TEST(Sanitizer, DetectsLockstepWriteWriteRace) {
  auto run = run_sanitized(R"(
__global__ void racy(float* out, int n) {
  __shared__ float s[32];
  s[0] = threadIdx.x;
  out[threadIdx.x] = s[0];
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_EQ(run.engine.reports().size(), 1u);
  const auto& r = run.engine.reports()[0];
  EXPECT_EQ(r.kind, HazardKind::kSharedRace);
  EXPECT_EQ(r.loc.line, 4);
  EXPECT_EQ(r.message,
            "same-instruction write/write race on 's[0]': lanes 0 and 1 "
            "store different values");
  // 31 lanes collide with lane 0; deduplication keeps one report.
  EXPECT_EQ(run.engine.total_detected(), 31u);
}

TEST(Sanitizer, DetectsBarrierDivergence) {
  auto run = run_sanitized(R"(
__global__ void bdiv(float* out, int n) {
  if (threadIdx.x < 32) {
    __syncthreads();
  }
  out[threadIdx.x] = 1.0f;
}
)",
                           64);
  ASSERT_TRUE(run.ran);
  ASSERT_EQ(run.engine.count(HazardKind::kBarrierDivergence), 1u);
  const auto& r = run.engine.reports()[0];
  EXPECT_EQ(r.loc.line, 4);
  EXPECT_EQ(r.thread, 32);  // first live lane of the warp that never arrives
  EXPECT_NE(r.message.find("1 of 2 warps"), std::string::npos) << r.str();
}

TEST(Sanitizer, IntraWarpPartialMaskBarrierIsLegal) {
  // Kepler's bar.sync counts warp arrivals: one active lane per warp is
  // enough, so a barrier under a sub-warp guard must NOT be flagged.
  auto run = run_sanitized(R"(
__global__ void subwarp(float* out, int n) {
  if (threadIdx.x < 16) {
    __syncthreads();
  }
  out[threadIdx.x] = 1.0f;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  EXPECT_TRUE(run.clean()) << run.engine.summary();
}

TEST(Sanitizer, DetectsUninitializedScalarRead) {
  auto run = run_sanitized(R"(
__global__ void uninit(float* out, int n) {
  float x;
  out[threadIdx.x] = x;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_EQ(run.engine.count(HazardKind::kUninitRead), 1u);
  const auto& r = run.engine.reports()[0];
  EXPECT_EQ(r.loc.line, 4);
  EXPECT_NE(r.message.find("uninitialized variable 'x'"), std::string::npos)
      << r.str();
}

TEST(Sanitizer, DetectsUninitializedSharedRead) {
  auto run = run_sanitized(R"(
__global__ void uship(float* out, int n) {
  __shared__ float s[32];
  out[threadIdx.x] = s[threadIdx.x];
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_GE(run.engine.count(HazardKind::kUninitRead), 1u);
  EXPECT_NE(run.engine.reports()[0].message.find("uninitialized shared"),
            std::string::npos);
  EXPECT_EQ(run.engine.reports()[0].loc.line, 4);
}

TEST(Sanitizer, DetectsUninitializedLocalArrayElement) {
  auto run = run_sanitized(R"(
__global__ void ularr(float* out, int n) {
  float tmp[4];
  tmp[0] = 1.0f;
  out[threadIdx.x] = tmp[1];
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_GE(run.engine.count(HazardKind::kUninitRead), 1u);
  EXPECT_EQ(run.engine.reports()[0].loc.line, 5);
}

TEST(Sanitizer, LoopBodyDeclarationStartsUnsetEachIteration) {
  // `float u;` and `float t[2];` run again on every iteration: the writes
  // of iteration 0 do not initialize iteration 1's variables.
  auto run = run_sanitized(R"(
__global__ void redecl(float* a, float* out) {
  int tx = threadIdx.x;
  float s = 0.0f;
  for (int i = 0; i < 4; i++) {
    float u;
    float t[2];
    if (i == 0) { u = a[tx]; t[1] = 1.0f; }
    s += u + t[1];
  }
  out[tx] = s;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_EQ(run.engine.reports().size(), 2u) << run.engine.summary();
  for (const auto& r : run.engine.reports()) {
    EXPECT_EQ(r.kind, HazardKind::kUninitRead) << r.str();
    EXPECT_EQ(r.loc.line, 9) << r.str();
    EXPECT_EQ(r.thread, 0) << r.str();
  }
  EXPECT_EQ(run.engine.reports()[0].message,
            "read of uninitialized variable 'u'");
  EXPECT_NE(run.engine.reports()[1].message.find("'t[1]'"),
            std::string::npos)
      << run.engine.reports()[1].str();
}

TEST(Sanitizer, LoopBodyDeclarationWrittenEachIterationIsClean) {
  auto run = run_sanitized(R"(
__global__ void redecl(float* a, float* out) {
  int tx = threadIdx.x;
  float s = 0.0f;
  for (int i = 0; i < 4; i++) {
    float u;
    float t[2];
    u = a[tx] * i;
    t[1] = u;
    s += u + t[1];
  }
  out[tx] = s;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  EXPECT_TRUE(run.clean()) << run.engine.summary();
}

TEST(Sanitizer, BraceInitializerZeroFillsWholeArray) {
  // `float tmp[4] = {1.0f};` zero-fills the tail, so reading tmp[3] is fine.
  auto run = run_sanitized(R"(
__global__ void zfill(float* out, int n) {
  float tmp[4] = {1.0f};
  out[threadIdx.x] = tmp[3];
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  EXPECT_TRUE(run.clean()) << run.engine.summary();
}

TEST(Sanitizer, BraceInitializerIsEvaluatedByEveryThread) {
  // Each thread evaluates the initializer for its own copy, so an element
  // reading a variable only thread 0 set is an uninitialized read on
  // thread 1. Evaluating it for thread 0 alone hid the read.
  auto run = run_sanitized(R"(
__global__ void brace(float* a, float* out) {
  int tx = threadIdx.x;
  float u;
  if (tx == 0) u = a[tx];
  float w[2] = {u, 1.0f};
  out[tx] = w[0] + w[1];
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_EQ(run.engine.reports().size(), 1u) << run.engine.summary();
  const auto& r = run.engine.reports()[0];
  EXPECT_EQ(r.kind, HazardKind::kUninitRead) << r.str();
  EXPECT_EQ(r.thread, 1) << r.str();
  EXPECT_EQ(r.loc.line, 6) << r.str();
  EXPECT_EQ(r.message, "read of uninitialized variable 'u'");
}

TEST(Sanitizer, DetectsShflFromInactiveLane) {
  auto run = run_sanitized(R"(
__global__ void shfl_inactive(float* out, int n) {
  float v = threadIdx.x;
  if (threadIdx.x < 16) {
    v = __shfl(v, 20, 32);
  }
  out[threadIdx.x] = v;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_GE(run.engine.count(HazardKind::kShflHazard), 1u);
  const auto& r = run.engine.reports()[0];
  EXPECT_EQ(r.loc.line, 5);
  EXPECT_NE(r.message.find("inactive source lane 20"), std::string::npos)
      << r.str();
}

TEST(Sanitizer, DetectsShflSelectorOutOfRange) {
  // n - 100 == -36 at runtime: on hardware this is undefined; the
  // interpreter must neither crash nor throw, just report.
  auto run = run_sanitized(R"(
__global__ void shfl_oob(float* out, int n) {
  float v = threadIdx.x;
  v = __shfl(v, n - 100, 32);
  out[threadIdx.x] = v;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  ASSERT_GE(run.engine.count(HazardKind::kShflHazard), 1u);
  EXPECT_NE(run.engine.reports()[0].message.find("outside [0,"),
            std::string::npos)
      << run.engine.reports()[0].str();
}

TEST(Sanitizer, NegativeShflSelectorDoesNotCrashUnsanitized) {
  // The lane-index guard must hold even with the sanitizer off (it used to
  // index the lane vector with a negative subscript).
  auto program = np::NpCompiler::parse(R"(
__global__ void shfl_oob(float* out, int n) {
  float v = threadIdx.x;
  v = __shfl(v, n - 100, 32);
  out[threadIdx.x] = v;
}
)");
  np::Workload w;
  w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  w.launch.block = {32, 1, 1};
  w.launch.grid = {1, 1, 1};
  np::Runner runner(sim::DeviceSpec::gtx680());
  EXPECT_NO_THROW((void)runner.execute(
      np::ExecutionRequest::baseline(*program->kernels.front(), w)));
}

TEST(Sanitizer, ErrorLimitStopsTheRunEarly) {
  SanOptions sopt;
  sopt.error_limit = 5;
  sopt.dedupe = false;
  auto run = run_sanitized(R"(
__global__ void racy(float* out, int n) {
  __shared__ float s[32];
  s[0] = threadIdx.x;
  out[threadIdx.x] = s[0];
}
)",
                           32, sopt);
  ASSERT_TRUE(run.ran);
  EXPECT_EQ(run.engine.reports().size(), 5u);
  EXPECT_TRUE(run.engine.limit_reached());
}

TEST(Sanitizer, PerBlockSimFaultsAreContained) {
  // Every block reads out of bounds; without the sanitizer the first block
  // would abort the launch. With it, all four blocks run and the fault is
  // one deduplicated kSimFault observed four times.
  auto run = run_sanitized(R"(
__global__ void oob(float* out, int n) {
  out[threadIdx.x + n * 1000] = 1.0f;
}
)",
                           32, {}, /*grid_x=*/4);
  ASSERT_TRUE(run.ran);
  EXPECT_EQ(run.engine.count(HazardKind::kSimFault), 1u);
  EXPECT_EQ(run.engine.total_detected(), 4u);
  EXPECT_FALSE(run.clean());
}

TEST(Sanitizer, PortableModeFlagsCrossWarpHandoff) {
  const char* src = R"(
__global__ void crosswarp(float* out, int n) {
  __shared__ float s[64];
  s[threadIdx.x] = threadIdx.x;
  out[threadIdx.x] = s[63 - threadIdx.x];
}
)";
  // Lockstep mode accepts it: the simulator executes whole statements
  // block-wide, so the store completes before the load starts.
  auto lockstep = run_sanitized(src, 64);
  ASSERT_TRUE(lockstep.ran);
  EXPECT_TRUE(lockstep.clean()) << lockstep.engine.summary();
  // Portable mode flags the unsynchronized cross-warp read-after-write.
  SanOptions portable;
  portable.race_mode = sim::SanitizerEngine::RaceMode::kPortable;
  auto run = run_sanitized(src, 64, portable);
  ASSERT_TRUE(run.ran);
  EXPECT_GE(run.engine.count(HazardKind::kSharedRace), 1u)
      << run.engine.summary();
}

TEST(Sanitizer, PortableModeAcceptsBarrierSeparatedHandoff) {
  SanOptions portable;
  portable.race_mode = sim::SanitizerEngine::RaceMode::kPortable;
  auto run = run_sanitized(R"(
__global__ void handoff(float* out, int n) {
  __shared__ float s[64];
  s[threadIdx.x] = threadIdx.x;
  __syncthreads();
  out[threadIdx.x] = s[63 - threadIdx.x];
}
)",
                           64, portable);
  ASSERT_TRUE(run.ran);
  EXPECT_TRUE(run.clean()) << run.engine.summary();
}

TEST(Sanitizer, SameValueStoresAreNotARace) {
  // All 64 lanes store 1.0f to s[0]: the outcome is deterministic, so the
  // lockstep checker suppresses it (matching racecheck's value filter).
  auto run = run_sanitized(R"(
__global__ void samewrite(float* out, int n) {
  __shared__ float s[4];
  s[0] = 1.0f;
  out[threadIdx.x] = s[0];
}
)",
                           64);
  ASSERT_TRUE(run.ran);
  EXPECT_TRUE(run.clean()) << run.engine.summary();
}

TEST(Sanitizer, CleanKernelStaysClean) {
  auto run = run_sanitized(R"(
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)",
                           32);
  ASSERT_TRUE(run.ran);
  EXPECT_TRUE(run.clean()) << run.engine.summary();
  EXPECT_EQ(run.engine.summary(), "sanitizer: no hazards detected\n");
}

TEST(Sanitizer, RegisteredBuffersTrackInitialization) {
  // A buffer registered as device scratch (the transform's re-homed local
  // arrays) must be written before it is read.
  auto program = np::NpCompiler::parse(R"(
__global__ void scratch(float* buf, int n) {
  buf[threadIdx.x + 32] = 1.0f;
  buf[threadIdx.x] = buf[threadIdx.x + n];
}
)");
  const ir::Kernel& kernel = *program->kernels.front();
  np::Workload w;
  sim::BufferId id = w.mem->alloc(ir::ScalarType::kFloat, 4096);
  w.launch.args.push_back(id);
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  w.launch.block = {32, 1, 1};
  w.launch.grid = {1, 1, 1};

  sim::SanitizerEngine engine;
  engine.mark_buffer_uninitialized(id, 4096);
  sim::Interpreter::Options iopt;
  iopt.sanitizer = &engine;
  auto spec = sim::DeviceSpec::gtx680();
  auto res = analysis::estimate_resources(kernel, spec);
  (void)sim::run_and_time(spec, *w.mem, kernel, w.launch, res.usage, iopt);
  // Lanes read buf[tid + 64]: never written -> uninit. buf[tid + 32] was
  // written by the first statement, so n == 32 would have been clean.
  ASSERT_GE(engine.count(sim::HazardKind::kUninitRead), 1u);
  EXPECT_NE(engine.reports()[0].message.find("global buffer"),
            std::string::npos)
      << engine.reports()[0].str();
}

TEST(Sanitizer, ReportFormatting) {
  sim::HazardReport r;
  r.kind = HazardKind::kSharedRace;
  r.kernel = "k";
  r.block = {1, 2, 3};
  r.thread = 7;
  r.loc = SourceLoc{12, 5};
  r.message = "boom";
  EXPECT_EQ(r.str(),
            "shared-race: boom [kernel 'k' block (1,2,3) thread 7 at 12:5]");
  r.thread = -1;
  EXPECT_EQ(r.str(), "shared-race: boom [kernel 'k' block (1,2,3) at 12:5]");
}

TEST(Sanitizer, EngineDedupeAndCounters) {
  sim::SanitizerEngine engine;
  sim::HazardReport r;
  r.kind = HazardKind::kUninitRead;
  r.kernel = "k";
  r.loc = SourceLoc{3, 1};
  engine.report(r);
  engine.report(r);  // same site -> deduplicated
  r.loc = SourceLoc{4, 1};
  engine.report(r);
  EXPECT_EQ(engine.reports().size(), 2u);
  EXPECT_EQ(engine.total_detected(), 3u);
  EXPECT_EQ(engine.count(HazardKind::kUninitRead), 2u);
  EXPECT_EQ(engine.count(HazardKind::kSharedRace), 0u);
  EXPECT_FALSE(engine.clean());
  engine.clear();
  EXPECT_TRUE(engine.clean());
}

}  // namespace
}  // namespace cudanp
