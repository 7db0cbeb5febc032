// Engine-equivalence contract: the AST walker and the bytecode VM must
// be observationally indistinguishable — bit-identical output buffers,
// cost-model stats, modeled timing, watchdog trip points and sanitizer
// hazard streams — across the whole paper suite (baseline and every NP
// variant, serial and parallel) and across randomized divergent control
// flow. Both engines execute through the shared exec::BlockCore, so a
// failure here means the lowering or the VM dispatch diverged from the
// AST semantics. See docs/performance.md.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"
#include "support/rng.hpp"

namespace cudanp {
namespace {

constexpr double kTestScale = 0.05;

void expect_stats_equal(const sim::KernelStats& a, const sim::KernelStats& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.issue_slots, b.issue_slots);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.local_transactions, b.local_transactions);
  EXPECT_EQ(a.local_l1_misses, b.local_l1_misses);
  EXPECT_EQ(a.smem_accesses, b.smem_accesses);
  EXPECT_EQ(a.smem_replays, b.smem_replays);
  EXPECT_EQ(a.shfl_ops, b.shfl_ops);
  EXPECT_EQ(a.sync_ops, b.sync_ops);
  EXPECT_EQ(a.divergent_branches, b.divergent_branches);
  EXPECT_EQ(a.crit_path_cycles, b.crit_path_cycles);
}

void expect_memories_equal(const sim::DeviceMemory& a,
                           const sim::DeviceMemory& b) {
  ASSERT_EQ(a.buffer_count(), b.buffer_count());
  for (std::size_t i = 0; i < a.buffer_count(); ++i) {
    const auto& ba = a.buffer(static_cast<sim::BufferId>(i));
    const auto& bb = b.buffer(static_cast<sim::BufferId>(i));
    ASSERT_EQ(ba.type(), bb.type()) << "buffer " << i;
    ASSERT_EQ(ba.size(), bb.size()) << "buffer " << i;
    if (ba.type() == ir::ScalarType::kFloat) {
      auto fa = ba.f32();
      auto fb = bb.f32();
      for (std::size_t e = 0; e < fa.size(); ++e)
        ASSERT_EQ(std::memcmp(&fa[e], &fb[e], sizeof(float)), 0)
            << "buffer " << i << " element " << e;
    } else {
      auto ia = ba.i32();
      auto ib = bb.i32();
      for (std::size_t e = 0; e < ia.size(); ++e)
        ASSERT_EQ(ia[e], ib[e]) << "buffer " << i << " element " << e;
    }
  }
}

void expect_reports_equal(const std::vector<sim::HazardReport>& a,
                          const std::vector<sim::HazardReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "report " << i;
    EXPECT_EQ(a[i].kernel, b[i].kernel) << "report " << i;
    EXPECT_EQ(a[i].thread, b[i].thread) << "report " << i;
    EXPECT_EQ(a[i].loc.line, b[i].loc.line) << "report " << i;
    EXPECT_EQ(a[i].loc.column, b[i].loc.column) << "report " << i;
    EXPECT_EQ(a[i].message, b[i].message) << "report " << i;
  }
}

/// A runner on the AST reference walker, or on the production VM.
np::Runner make_runner(bool ast_reference) {
  sim::Interpreter::Options opt;
  opt.ast_reference = ast_reference;
  return np::Runner{sim::DeviceSpec::gtx680(), opt};
}

/// The VM side of an engine comparison: its workload and result.
using VmRun = std::pair<std::shared_ptr<np::Workload>,
                        std::shared_ptr<np::ExecutionResult>>;

/// Runs the request under both engines (fresh workload each), checks
/// every observable for bit-identity, and returns the VM run.
template <typename MakeWorkload, typename MakeRequest>
VmRun expect_engines_agree(const MakeWorkload& make_workload,
                           const MakeRequest& make_request, int jobs,
                           bool sanitize) {
  auto run_engine = [&](bool ast_reference) {
    auto w = std::make_shared<np::Workload>(make_workload());
    np::ExecutionRequest req = make_request(*w);
    req.with_jobs(jobs);
    if (sanitize) req.sanitized();
    auto out = std::make_shared<np::ExecutionResult>(
        make_runner(ast_reference).execute(req));
    return std::make_pair(w, out);
  };
  auto [wa, ra] = run_engine(/*ast_reference=*/true);
  auto [wv, rv] = run_engine(/*ast_reference=*/false);
  EXPECT_EQ(ra->ran, rv->ran);
  expect_stats_equal(ra->run.stats, rv->run.stats);
  EXPECT_EQ(ra->run.timing.seconds, rv->run.timing.seconds);
  expect_memories_equal(*wa->mem, *wv->mem);
  expect_reports_equal(ra->hazards(), rv->hazards());
  return {wv, rv};
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineEquivalence, BaselineBitIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  expect_engines_agree(
      [&] { return bench->make_workload(); },
      [&](np::Workload& w) {
        return np::ExecutionRequest::baseline(bench->kernel(), w);
      },
      jobs, /*sanitize=*/false);
}

TEST_P(EngineEquivalence, BaselineSanitizedHazardStreamIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  expect_engines_agree(
      [&] { return bench->make_workload(); },
      [&](np::Workload& w) {
        return np::ExecutionRequest::baseline(bench->kernel(), w);
      },
      jobs, /*sanitize=*/true);
}

TEST_P(EngineEquivalence, EveryNpVariantBitIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  auto probe = bench->make_workload();
  auto configs = np::NpCompiler::enumerate_configs(
      bench->kernel(), static_cast<int>(probe.launch.block.count()),
      sim::DeviceSpec::gtx680());
  ASSERT_FALSE(configs.empty());
  int executed = 0;
  // Variants own their kernel; keep them alive across the runs.
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = np::NpCompiler::transform(bench->kernel(), cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    expect_engines_agree(
        [&] { return bench->make_workload(); },
        [&](np::Workload& w) {
          return np::ExecutionRequest::transformed(variant, w);
        },
        jobs, /*sanitize=*/false);
    ++executed;
  }
  EXPECT_GT(executed, 0);
}

std::vector<std::tuple<std::string, int>> suite_params() {
  std::vector<std::tuple<std::string, int>> out;
  for (const auto& name : kernels::benchmark_names())
    for (int jobs : {1, 8}) out.emplace_back(name, jobs);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EngineEquivalence, ::testing::ValuesIn(suite_params()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------- watchdog trip points ----------------

constexpr const char* kSpinSource = R"(
__global__ void spin(float* out, int n) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  while (n > 0) {
    acc = acc + 1.0f;
  }
  out[tid] = acc;
}
)";

np::Workload spin_workload() {
  np::Workload w;
  w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  w.launch.block = {32, 1, 1};
  w.launch.grid = {1, 1, 1};
  return w;
}

TEST(EngineEquivalenceWatchdog, UnsanitizedTripsAtTheSamePoint) {
  auto program = np::NpCompiler::parse(kSpinSource);
  const ir::Kernel& kernel = *program->kernels.front();
  sim::ExecutionLimits limits;
  limits.max_steps_per_block = 10000;

  auto trip_message = [&](bool ast_reference) -> std::string {
    auto w = spin_workload();
    try {
      (void)make_runner(ast_reference)
          .execute(np::ExecutionRequest::baseline(kernel, w)
                       .with_limits(limits));
    } catch (const sim::WatchdogError& e) {
      return std::string(e.what()) + " @" + e.loc().str();
    }
    return "<no trip>";
  };
  std::string ast = trip_message(/*ast_reference=*/true);
  std::string vm = trip_message(/*ast_reference=*/false);
  EXPECT_NE(ast, "<no trip>");
  EXPECT_EQ(ast, vm);
}

TEST(EngineEquivalenceWatchdog, SanitizedTripReportsIdentical) {
  auto program = np::NpCompiler::parse(kSpinSource);
  const ir::Kernel& kernel = *program->kernels.front();
  sim::ExecutionLimits limits;
  limits.max_steps_per_block = 10000;

  auto reports = [&](bool ast_reference) {
    auto w = spin_workload();
    auto run = make_runner(ast_reference)
                   .execute(np::ExecutionRequest::baseline(kernel, w)
                                .sanitized()
                                .with_limits(limits));
    return run.engine.reports();
  };
  auto ast = reports(/*ast_reference=*/true);
  auto vm = reports(/*ast_reference=*/false);
  ASSERT_FALSE(ast.empty());
  expect_reports_equal(ast, vm);
}

// ---------------- hazard streams on a racy kernel ----------------

constexpr const char* kRacySource = R"(
__global__ void racy(float* out, int n) {
  __shared__ float buf[32];
  int tid = threadIdx.x;
  buf[tid % 16] = out[tid];
  __syncthreads();
  out[tid] = buf[(tid * 3) % 32];
}
)";

TEST(EngineEquivalenceHazards, RacyKernelStreamsIdentical) {
  auto program = np::NpCompiler::parse(kRacySource);
  const ir::Kernel& kernel = *program->kernels.front();
  auto reports = [&](bool ast_reference) {
    np::Workload w;
    w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
    w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
    w.launch.block = {32, 1, 1};
    w.launch.grid = {2, 1, 1};
    auto run = make_runner(ast_reference)
                   .execute(np::ExecutionRequest::baseline(kernel, w)
                                .sanitized());
    return run.engine.reports();
  };
  auto ast = reports(/*ast_reference=*/true);
  auto vm = reports(/*ast_reference=*/false);
  ASSERT_FALSE(ast.empty());  // the write race must be visible
  expect_reports_equal(ast, vm);
}

// ---------------- divergent-control-flow fuzzing ----------------

/// Generates a seeded kernel whose control flow diverges per-lane:
/// nested tid-keyed ifs, loops with lane-dependent trip counts, a
/// shared-memory stage with a barrier, and lane-varying arithmetic.
/// Constants are chosen so div/mod never see zero.
std::string fuzz_source(std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  std::ostringstream os;
  os << "__global__ void fz(float* out, int n) {\n"
     << "  __shared__ float buf[32];\n"
     << "  int tid = threadIdx.x + blockIdx.x * blockDim.x;\n"
     << "  int lane = threadIdx.x;\n"
     << "  float acc = " << pick(1, 4) << ".0f;\n";
  int depth = pick(1, 3);
  for (int d = 0; d < depth; ++d) {
    int mod = pick(2, 7);
    int cut = pick(0, mod - 1);
    os << "  if (lane % " << mod << " > " << cut << ") {\n"
       << "    for (int i = 0; i < " << pick(1, 4) << " + lane % "
       << pick(2, 5) << "; i++) {\n"
       << "      acc += " << pick(1, 3) << ".0f * i;\n"
       << "      if (acc > " << pick(8, 64) << ".0f) acc = acc * 0.5f;\n"
       << "    }\n"
       << "  } else {\n"
       << "    acc = acc - " << pick(1, 3) << ".0f;\n"
       << "  }\n";
  }
  os << "  buf[lane] = acc;\n"
     << "  __syncthreads();\n"
     << "  acc += buf[(lane * " << pick(3, 9) << ") % 32];\n"
     << "  int k = " << pick(1, 6) << ";\n"
     << "  while (k > 0) {\n"
     << "    acc = acc + 0.25f;\n"
     << "    k = k - 1;\n"
     << "  }\n"
     << "  out[tid] = acc;\n"
     << "}\n";
  return os.str();
}

TEST(EngineEquivalenceFuzz, DivergentControlFlowBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string src = fuzz_source(seed);
    std::unique_ptr<ir::Program> program;
    try {
      program = np::NpCompiler::parse(src);
    } catch (const CompileError& e) {
      FAIL() << "generator produced unparseable source: " << e.what()
             << "\n" << src;
    }
    const ir::Kernel& kernel = *program->kernels.front();
    expect_engines_agree(
        [&] {
          np::Workload w;
          w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
          w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
          w.launch.block = {32, 1, 1};
          w.launch.grid = {2, 1, 1};
          return w;
        },
        [&](np::Workload& w) {
          return np::ExecutionRequest::baseline(kernel, w);
        },
        /*jobs=*/1, /*sanitize=*/false);
  }
}

// ---------------- former lowering-decline shapes ----------------
//
// Lowering used to decline these shapes and run them on the AST walk,
// where a parameter shadow overflowed the one-element uniform-parameter
// slot and a shared scalar read past its one-element storage. Lowering is
// total now: colliding declarations get slots of their own, and a shared
// scalar fails at its declaration on both engines.

np::Workload one_block_workload() {
  np::Workload w;
  w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 128));
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  w.launch.block = {32, 1, 1};
  w.launch.grid = {1, 1, 1};
  return w;
}

std::unique_ptr<ir::Program> parse_or_fail(const char* src) {
  auto program = np::NpCompiler::parse(src);
  EXPECT_EQ(program->kernels.size(), 1u);
  return program;
}

/// Runs `kernel` on both engines, sanitized and not; checks bit-identity
/// and a clean sanitizer, and returns the VM's output buffer.
std::vector<float> run_on_both_engines(const ir::Kernel& kernel) {
  auto request = [&](np::Workload& w) {
    return np::ExecutionRequest::baseline(kernel, w);
  };
  auto sanitized = expect_engines_agree(one_block_workload, request,
                                        /*jobs=*/1, /*sanitize=*/true);
  EXPECT_TRUE(sanitized.second->clean())
      << sanitized.second->engine.summary();
  auto [w, r] = expect_engines_agree(one_block_workload, request,
                                     /*jobs=*/1, /*sanitize=*/false);
  auto out = w->mem->buffer(std::get<sim::BufferId>(w->launch.args[0])).f32();
  return {out.begin(), out.end()};
}

/// The SimError message an unsanitized run raises ("" if none).
std::string sim_error(const ir::Kernel& kernel, bool ast_reference) {
  auto w = one_block_workload();
  try {
    (void)make_runner(ast_reference)
        .execute(np::ExecutionRequest::baseline(kernel, w));
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(FormerDeclineShapes, ParamShadowedAtKernelScope) {
  auto program = parse_or_fail(R"(
__global__ void shadow(float* out, int n) {
  int tid = threadIdx.x;
  out[tid] = n;
  int n = tid + 1;
  out[32 + tid] = n;
}
)");
  auto out = run_on_both_engines(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    EXPECT_EQ(out[tid], 64.0f) << "the parameter, before the shadow";
    EXPECT_EQ(out[32 + tid], tid + 1.0f) << "the local, after it";
  }
}

TEST(FormerDeclineShapes, ParamShadowedInNestedBlocks) {
  auto program = parse_or_fail(R"(
__global__ void shadow(float* out, int n) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  if (tid < 16) {
    int n = tid * 2;
    out[tid] = n;
  } else {
    out[tid] = n;
  }
  for (int n = 0, k = 2; n < 3; n++) {
    acc = acc + n * k;
  }
  out[32 + tid] = n;
  out[64 + tid] = acc;
}
)");
  auto out = run_on_both_engines(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    EXPECT_EQ(out[tid], tid < 16 ? 2.0f * tid : 64.0f) << tid;
    EXPECT_EQ(out[32 + tid], 64.0f) << "parameter visible again";
    EXPECT_EQ(out[64 + tid], 6.0f) << "loop counter shadowed n";
  }
}

TEST(FormerDeclineShapes, SiblingBranchesDeclareIntAndFloat) {
  auto program = parse_or_fail(R"(
__global__ void sibling(float* out, int n) {
  int tid = threadIdx.x;
  if (tid % 2 == 0) {
    int t = 0;
    t = tid / 4.0f;
    out[tid] = t;
  } else {
    float t = 0.0f;
    t = tid / 4.0f;
    out[tid] = t;
  }
}
)");
  auto out = run_on_both_engines(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    float want = tid % 2 == 0 ? static_cast<float>(tid / 4) : tid / 4.0f;
    EXPECT_EQ(out[tid], want) << tid;
  }
}

TEST(FormerDeclineShapes, SharedScalarIsAStructuredError) {
  auto program = parse_or_fail(R"(
__global__ void scalar(float* out, int n) {
  __shared__ float s;
  int tid = threadIdx.x;
  if (tid == 0) s = 2.0f;
  __syncthreads();
  out[tid] = s;
}
)");
  const ir::Kernel& kernel = *program->kernels.front();
  const std::string ast = sim_error(kernel, /*ast_reference=*/true);
  EXPECT_NE(ast.find("shared-memory scalar 's'"), std::string::npos) << ast;
  EXPECT_EQ(ast, sim_error(kernel, /*ast_reference=*/false));

  auto [w, r] = expect_engines_agree(
      one_block_workload,
      [&](np::Workload& wl) {
        return np::ExecutionRequest::baseline(kernel, wl);
      },
      /*jobs=*/1, /*sanitize=*/true);
  ASSERT_EQ(r->hazards().size(), 1u) << r->engine.summary();
  EXPECT_EQ(r->hazards()[0].kind, sim::HazardKind::kSimFault);
  EXPECT_EQ(r->hazards()[0].message, ast);
}

TEST(FormerDeclineShapes, UnboundDeclarationTrapsOnBothEngines) {
  auto program = parse_or_fail(R"(
__global__ void late(float* out, int n) {
  out[threadIdx.x] = n;
}
)");
  ir::Kernel& kernel = *program->kernels.front();
  // Bind by running once, then append a declaration the cached binding
  // never saw.
  EXPECT_EQ(sim_error(kernel, /*ast_reference=*/false), "");
  kernel.body->push(std::make_unique<ir::DeclStmt>(
      ir::Type::scalar_of(ir::ScalarType::kInt), "extra"));
  const std::string ast = sim_error(kernel, /*ast_reference=*/true);
  EXPECT_NE(ast.find("unbound declaration of 'extra'"), std::string::npos)
      << ast;
  EXPECT_EQ(ast, sim_error(kernel, /*ast_reference=*/false));
}

// ---------------- request plumbing ----------------

// Sanitized and unsanitized requests over the same workload agree on
// stats, timing and memory: the sanitizer observes, it never perturbs.
TEST(ExecutionRequests, SanitizeIsObservationOnly) {
  auto bench = kernels::make_benchmark("MV", kTestScale);
  np::Runner runner{sim::DeviceSpec::gtx680()};

  auto w1 = bench->make_workload();
  auto plain =
      runner.execute(np::ExecutionRequest::baseline(bench->kernel(), w1));
  auto w2 = bench->make_workload();
  auto sanitized = runner.execute(
      np::ExecutionRequest::baseline(bench->kernel(), w2).sanitized());
  EXPECT_TRUE(sanitized.ran);
  EXPECT_TRUE(sanitized.clean()) << sanitized.engine.summary();
  expect_stats_equal(plain.run.stats, sanitized.run.stats);
  EXPECT_EQ(plain.run.timing.seconds, sanitized.run.timing.seconds);
  expect_memories_equal(*w1.mem, *w2.mem);
}

}  // namespace
}  // namespace cudanp
