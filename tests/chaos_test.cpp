// Chaos campaign: every fault class a sim::FaultPlan can inject — bit
// flips in device memory, SimErrors at a chosen statement, AST
// corruption (dropped barrier, skewed store index), block stalls — must
// be caught by one of the defence layers (sanitizer, watchdog, output
// cross-check / fallback quarantine) and never silently absorbed. Fault
// plans are seeded, so each campaign replays byte-identically; injected
// outcomes must also stay bit-identical across job counts (see
// docs/robustness.md).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/fault.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"

namespace cudanp {
namespace {

using SanOptions = sim::SanitizerEngine::Options;

sim::Interpreter::Options make_opts(int jobs,
                                    const sim::FaultInjector* fault = nullptr,
                                    std::int64_t max_steps = 0) {
  sim::Interpreter::Options opt;
  opt.jobs = jobs;
  opt.fault = fault;
  opt.limits.max_steps_per_block = max_steps;
  return opt;
}

struct Prepared {
  std::unique_ptr<ir::Program> program;
  np::Workload workload;
  ir::Kernel& kernel() { return *program->kernels.front(); }
};

Prepared prepare(const std::string& src, int block_x, int grid_x,
                 std::size_t buf_elems = 4096, int n = 64) {
  Prepared p;
  p.program = np::NpCompiler::parse(src);
  for (const auto& param : p.kernel().params) {
    if (param.type.is_pointer)
      p.workload.launch.args.push_back(
          p.workload.mem->alloc(param.type.scalar, buf_elems));
    else if (param.type.scalar == ir::ScalarType::kFloat)
      p.workload.launch.args.push_back(sim::LaunchConfig::scalar_float(1.0));
    else
      p.workload.launch.args.push_back(sim::LaunchConfig::scalar_int(n));
  }
  p.workload.launch.block = {block_x, 1, 1};
  p.workload.launch.grid = {grid_x, 1, 1};
  return p;
}

void expect_reports_equal(const std::vector<sim::HazardReport>& a,
                          const std::vector<sim::HazardReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "report " << i;
    EXPECT_EQ(a[i].block.x, b[i].block.x) << "report " << i;
    EXPECT_EQ(a[i].message, b[i].message) << "report " << i;
  }
}

// ---------------------------------------------------------------------
// Fault class 1: bit flips in device memory. A corrupted variant input
// must be caught by the output cross-check, not averaged away.

TEST(Chaos, BitFlipIsCaughtByValidateCrossCheck) {
  auto bench = kernels::make_benchmark("tmv", 0.08);
  auto spec = sim::DeviceSpec::gtx680();
  auto probe = bench->make_workload();
  auto configs = np::NpCompiler::enumerate_configs(
      bench->kernel(), static_cast<int>(probe.launch.block.count()), spec);
  ASSERT_FALSE(configs.empty());

  sim::FaultPlan plan;
  plan.seed = 0xb17f11b5ULL;
  plan.bit_flips = 64;
  auto injector = std::make_shared<sim::FaultInjector>(plan);

  // The baseline (first factory call) gets pristine inputs; every
  // variant afterwards runs on flipped bits — the cross-check must flag
  // the divergence.
  int calls = 0;
  auto factory = [&]() {
    np::Workload w = bench->make_workload();
    if (++calls > 1) {
      int flipped = injector->corrupt_memory(*w.mem);
      EXPECT_GT(flipped, 0);
    }
    return w;
  };
  auto report = np::NpCompiler::validate(bench->kernel(), configs, factory,
                                         spec);
  EXPECT_FALSE(report.all_clean());
  bool mismatch_seen = false;
  for (const auto& e : report.entries)
    mismatch_seen = mismatch_seen || (e.transform_ok && e.ran &&
                                      !e.outputs_match);
  EXPECT_TRUE(mismatch_seen) << report.summary();
  ASSERT_FALSE(injector->log().empty());
  EXPECT_NE(injector->log().front().find("bit-flip"), std::string::npos);
}

TEST(Chaos, FaultPlanReplaysByteIdentically) {
  sim::FaultPlan plan;
  plan.seed = 0xdecafULL;
  plan.bit_flips = 16;
  std::vector<std::string> logs[2];
  std::vector<float> datas[2];
  for (int round = 0; round < 2; ++round) {
    sim::DeviceMemory mem;
    sim::BufferId id = mem.alloc(ir::ScalarType::kFloat, 256);
    sim::FaultInjector inj(plan);
    EXPECT_EQ(inj.corrupt_memory(mem), 16);
    logs[round] = inj.log();
    auto span = mem.buffer(id).f32();
    datas[round].assign(span.begin(), span.end());
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(datas[0].size(), datas[1].size());
  for (std::size_t i = 0; i < datas[0].size(); ++i)
    EXPECT_EQ(datas[0][i], datas[1][i]) << "element " << i;
}

// ---------------------------------------------------------------------
// Fault class 2: a SimError thrown at the Nth interpreted statement of
// one block. The sanitizer must contain it to a single kSimFault report
// while the rest of the grid completes — identically at every job count.

TEST(Chaos, InjectedSimErrorIsContainedDeterministically) {
  const char* src = R"(
__global__ void work(float* out, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; i++) {
    s = s + 1.0f;
  }
  out[threadIdx.x + blockIdx.x * blockDim.x] = s;
}
)";
  sim::FaultPlan plan;
  plan.sim_error_at_step = 50;
  plan.fault_block = 3;
  sim::FaultInjector injector(plan);

  std::vector<sim::HazardReport> reports[2];
  int slot = 0;
  for (int jobs : {1, 8}) {
    auto p = prepare(src, 32, 8);
    np::Runner runner(sim::DeviceSpec::gtx680(), make_opts(jobs, &injector));
    auto run = runner.execute(
        np::ExecutionRequest::baseline(p.kernel(), p.workload).sanitized());
    EXPECT_TRUE(run.ran);
    ASSERT_EQ(run.engine.reports().size(), 1u)
        << "jobs=" << jobs << "\n" << run.engine.summary();
    const auto& r = run.engine.reports().front();
    EXPECT_EQ(r.kind, sim::HazardKind::kSimFault);
    EXPECT_EQ(r.block.x, 3);
    EXPECT_NE(r.message.find("injected fault"), std::string::npos)
        << r.message;
    reports[slot++] = run.engine.reports();
  }
  expect_reports_equal(reports[0], reports[1]);
}

TEST(Chaos, InjectedSimErrorUnsanitizedThrows) {
  sim::FaultPlan plan;
  plan.sim_error_at_step = 5;
  sim::FaultInjector injector(plan);
  auto p = prepare(R"(
__global__ void work(float* out, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; i++) {
    s = s + 1.0f;
  }
  out[threadIdx.x] = s;
}
)",
                   32, 2);
  np::Runner runner(sim::DeviceSpec::gtx680(), make_opts(1, &injector));
  try {
    (void)runner.execute(np::ExecutionRequest::baseline(p.kernel(), p.workload));
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Fault class 3a: AST corruption dropping a __syncthreads(). Invisible
// to the lockstep execution model by design — the portable race mode is
// the layer that must catch it.

TEST(Chaos, DroppedBarrierIsCaughtByPortableRaceMode) {
  // Two warps so the staged exchange crosses a warp boundary: portable
  // racecheck is warp-granular (same-warp lockstep order is guaranteed
  // even on hardware).
  const char* src = R"(
__global__ void stage(float* out, int n) {
  __shared__ float s[64];
  s[threadIdx.x] = threadIdx.x;
  __syncthreads();
  out[threadIdx.x + blockIdx.x * blockDim.x] = s[63 - threadIdx.x];
}
)";
  SanOptions portable;
  portable.race_mode = sim::SanitizerEngine::RaceMode::kPortable;

  // Intact kernel: hazard-free even under the stricter mode.
  {
    auto p = prepare(src, 64, 4);
    np::Runner runner(sim::DeviceSpec::gtx680(), make_opts(1));
    auto run = runner.execute(np::ExecutionRequest::baseline(p.kernel(), p.workload)
                                  .sanitized(portable));
    EXPECT_TRUE(run.clean()) << run.engine.summary();
  }

  // Corrupted kernel: the barrier between the staged write and the
  // crossed read is gone; portable racecheck must flag it.
  {
    auto p = prepare(src, 64, 4);
    sim::FaultPlan plan;
    plan.drop_barrier = true;
    sim::FaultInjector injector(plan);
    ASSERT_TRUE(injector.corrupt_kernel(p.kernel()));
    ASSERT_FALSE(injector.log().empty());
    EXPECT_NE(injector.log().front().find("__syncthreads"),
              std::string::npos)
        << injector.log().front();
    np::Runner runner(sim::DeviceSpec::gtx680(), make_opts(1));
    auto run = runner.execute(np::ExecutionRequest::baseline(p.kernel(), p.workload)
                                  .sanitized(portable));
    EXPECT_FALSE(run.clean()) << "dropped barrier was silently absorbed";
    bool race_seen = false;
    for (const auto& r : run.engine.reports())
      race_seen = race_seen || r.kind == sim::HazardKind::kSharedRace;
    EXPECT_TRUE(race_seen) << run.engine.summary();
  }
}

// Fault class 3b: AST corruption skewing a store index, modelling a slot
// arithmetic bug in a transform. With exactly-sized buffers the skew
// walks off the end: an OOB kSimFault.

TEST(Chaos, SkewedStoreIndexIsCaughtAsOutOfBounds) {
  const char* src = R"(
__global__ void ident(float* out, int n) {
  int i = threadIdx.x + blockIdx.x * blockDim.x;
  out[i] = 1.0f;
}
)";
  auto p = prepare(src, 32, 4, /*buf_elems=*/128, /*n=*/128);
  sim::FaultPlan plan;
  plan.seed = 0x5eedULL;
  plan.skew_index = true;
  sim::FaultInjector injector(plan);
  ASSERT_TRUE(injector.corrupt_kernel(p.kernel()));
  ASSERT_FALSE(injector.log().empty());
  EXPECT_NE(injector.log().front().find("skew"), std::string::npos)
      << injector.log().front();

  np::Runner runner(sim::DeviceSpec::gtx680(), make_opts(1));
  auto run = runner.execute(
        np::ExecutionRequest::baseline(p.kernel(), p.workload).sanitized());
  EXPECT_FALSE(run.clean()) << "skewed index was silently absorbed";
  bool oob_seen = false;
  for (const auto& r : run.engine.reports())
    oob_seen = oob_seen ||
               (r.kind == sim::HazardKind::kSimFault &&
                r.message ==
                    "out-of-bounds access to 'out[128]' (size 128) at 4:3");
  EXPECT_TRUE(oob_seen) << run.engine.summary();
}

// ---------------------------------------------------------------------
// Fault class 4: a stalled block. The watchdog is the defence layer, and
// the trip must be bit-identical across job counts.

TEST(Chaos, StalledBlockIsCaughtByWatchdogDeterministically) {
  const char* src = R"(
__global__ void fine(float* out, int n) {
  out[threadIdx.x + blockIdx.x * blockDim.x] = 2.0f;
}
)";
  sim::FaultPlan plan;
  plan.stall_block = 2;
  sim::FaultInjector injector(plan);

  std::vector<sim::HazardReport> reports[2];
  int slot = 0;
  for (int jobs : {1, 8}) {
    auto p = prepare(src, 32, 8);
    np::Runner runner(sim::DeviceSpec::gtx680(),
                      make_opts(jobs, &injector, /*max_steps=*/2000));
    auto run = runner.execute(
        np::ExecutionRequest::baseline(p.kernel(), p.workload).sanitized());
    ASSERT_EQ(run.engine.reports().size(), 1u)
        << "jobs=" << jobs << "\n" << run.engine.summary();
    const auto& r = run.engine.reports().front();
    EXPECT_EQ(r.kind, sim::HazardKind::kWatchdogTrip);
    EXPECT_EQ(r.block.x, 2);
    reports[slot++] = run.engine.reports();
  }
  expect_reports_equal(reports[0], reports[1]);
}

// A stall with the watchdog disabled must degrade to an immediate error,
// never an actual hang (the harness itself must stay chaos-safe).
TEST(Chaos, StallWithWatchdogDisabledAbortsInsteadOfHanging) {
  sim::FaultPlan plan;
  plan.stall_block = 0;
  sim::FaultInjector injector(plan);
  auto p = prepare(R"(
__global__ void fine(float* out, int n) {
  out[threadIdx.x] = 2.0f;
}
)",
                   32, 1);
  np::Runner runner(sim::DeviceSpec::gtx680(),
                    make_opts(1, &injector, /*max_steps=*/-1));
  try {
    (void)runner.execute(np::ExecutionRequest::baseline(p.kernel(), p.workload));
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("injected stall"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Graceful degradation: when chaos quarantines every NP candidate, the
// compiler must still produce a runnable answer (the baseline) plus a
// machine-readable account of everything it rejected.

TEST(Chaos, FallbackQuarantinesEverythingAndKeepsBaseline) {
  auto bench = kernels::make_benchmark("tmv", 0.08);
  auto spec = sim::DeviceSpec::gtx680();

  sim::FaultPlan plan;
  plan.seed = 0xfa11bacULL;
  plan.bit_flips = 64;
  auto injector = std::make_shared<sim::FaultInjector>(plan);
  int calls = 0;
  auto factory = [&]() {
    np::Workload w = bench->make_workload();
    if (++calls > 1) (void)injector->corrupt_memory(*w.mem);
    return w;
  };

  auto result = np::NpCompiler::compile_with_fallback(
      bench->kernel(), /*configs=*/{}, factory, spec);
  const auto& d = result.decision;
  EXPECT_TRUE(d.used_baseline);
  EXPECT_FALSE(d.pristine());
  ASSERT_FALSE(d.quarantined.empty());
  for (const auto& f : d.quarantined) {
    EXPECT_EQ(f.kernel, "tmv");
    EXPECT_FALSE(f.config.empty());
    EXPECT_FALSE(f.detail.empty());
    // str() and json() are both non-empty, structured renderings.
    EXPECT_NE(f.str().find("quarantined"), std::string::npos);
    EXPECT_NE(f.json().find("\"cause\""), std::string::npos);
  }
  std::string json = d.json();
  EXPECT_NE(json.find("\"used_baseline\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined\""), std::string::npos) << json;
  EXPECT_FALSE(d.summary().empty());
}

// Without chaos the same kernel picks a real NP variant, first try.
TEST(Chaos, FallbackIsPristineWithoutFaults) {
  auto bench = kernels::make_benchmark("tmv", 0.08);
  auto spec = sim::DeviceSpec::gtx680();
  auto factory = [&]() { return bench->make_workload(); };
  auto result = np::NpCompiler::compile_with_fallback(
      bench->kernel(), /*configs=*/{}, factory, spec);
  EXPECT_FALSE(result.decision.used_baseline);
  EXPECT_FALSE(result.decision.chosen_config.empty());
  EXPECT_TRUE(result.decision.pristine())
      << result.decision.summary();
  ASSERT_NE(result.variant.kernel, nullptr);
  std::string json = result.decision.json();
  EXPECT_NE(json.find("\"used_baseline\":false"), std::string::npos)
      << json;
}

// A stalled variant block must be quarantined as a watchdog trip, and
// the fallback must still deliver the baseline rather than hanging.
TEST(Chaos, FallbackSurvivesStalledVariants) {
  auto bench = kernels::make_benchmark("tmv", 0.08);
  auto spec = sim::DeviceSpec::gtx680();
  sim::FaultPlan plan;
  plan.stall_block = 0;  // every launch's first block spins
  sim::FaultInjector injector(plan);
  auto factory = [&]() { return bench->make_workload(); };
  np::ValidationOptions vopt;
  vopt.interp.fault = &injector;
  vopt.interp.limits.max_steps_per_block = 2000;
  auto result = np::NpCompiler::compile_with_fallback(
      bench->kernel(), /*configs=*/{}, factory, spec, vopt);
  const auto& d = result.decision;
  // The baseline itself stalls too, so everything is quarantined — but a
  // runnable answer (the baseline kernel) still comes back with the trip
  // recorded in the report.
  EXPECT_TRUE(d.used_baseline);
  ASSERT_FALSE(d.quarantined.empty());
  bool trip_recorded = false;
  for (const auto& f : d.quarantined)
    trip_recorded =
        trip_recorded || f.cause == np::FailureCause::kWatchdogTrip;
  EXPECT_TRUE(trip_recorded) << d.summary();
}

}  // namespace
}  // namespace cudanp
