// The hazard rulebook (sim/hazards.hpp) as an oracle table: one small
// kernel per rule. The sanitizer's first report, in portable race mode,
// and every certificate of the kernel must name the same cell with the
// same text: a certificate aborts at the baseline ("baseline: <text>")
// or carries the race as its note. Where the VM appends a source
// location, it is hazard::at's. Cross-block accesses are the one
// asymmetry: the sanitizer does not track global cells, so only the
// certificate names them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/resources.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/hazards.hpp"
#include "sim/symexec.hpp"

namespace cudanp {
namespace {

using np::Certificate;
using np::Verdict;

/// How the certificate carries the rule.
enum class Carrier { kAbort, kNote };

struct Row {
  const char* name;
  /// Statements that set `float v`, between the kernel's prologue and its
  /// #pragma np reduction (see kernel_source).
  const char* body;
  /// Threads per block over 64 elements: 64 gives one block of two
  /// warps, 32 two blocks of one warp.
  int tb;
  Carrier carrier;
  const char* text;
  /// The location the VM appends to the text (hazard::at), if any.
  SourceLoc vm_at;
  /// False for the cross-block rows: the sanitizer reports nothing.
  bool sanitized = true;
};

void PrintTo(const Row& r, std::ostream* os) { *os << r.name; }

std::string kernel_source(const Row& r) {
  return std::string(R"(
__global__ void k(float* a, float* out, int n) {
  int tx = threadIdx.x;
  int gid = blockIdx.x * blockDim.x + tx;
)") + r.body + R"(
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[gid * 8 + i];
  out[gid] = s + v;
}
)";
}

const Row kRows[] = {
    {"SameAccessWrite", R"(
  __shared__ float sm[64];
  sm[0] = a[gid];
  __syncthreads();
  float v = sm[0];)",
     64, Carrier::kAbort,
     "same-instruction write/write race on 'sm[0]': lanes 0 and 1 store "
     "different values",
     {}},
    {"CrossWarpWriteWrite", R"(
  __shared__ float sm[64];
  if (tx == 0) sm[0] = a[0];
  if (tx == 32) sm[0] = a[1];
  __syncthreads();
  float v = sm[0];)",
     64, Carrier::kNote, "cross-warp write/write race on 'sm[0]'", {}},
    {"CrossWarpReadWrite", R"(
  __shared__ float sm[64];
  sm[tx] = a[gid];
  __syncthreads();
  float v = sm[(tx + 32) % 64];
  sm[tx] = v;)",
     64, Carrier::kNote, "cross-warp read/write race on 'sm[0]'", {}},
    {"CrossWarpWriteRead", R"(
  __shared__ float sm[64];
  sm[tx] = a[gid];
  float v = sm[(tx + 32) % 64];)",
     64, Carrier::kNote, "cross-warp write/read race on 'sm[32]'", {}},
    {"UninitializedVariable", R"(
  float u;
  if (tx > 0) u = a[gid];
  float v = u;)",
     64, Carrier::kAbort, "read of uninitialized variable 'u'", {}},
    {"UninitializedShared", R"(
  __shared__ float sm[64];
  if (tx > 0) sm[tx] = a[gid];
  __syncthreads();
  float v = sm[tx];)",
     64, Carrier::kAbort, "read of uninitialized shared memory 'sm[0]'",
     {}},
    {"UninitializedArrayElement", R"(
  float w[4];
  w[1] = a[gid];
  float v = w[0];)",
     64, Carrier::kAbort, "read of uninitialized array element 'w[0]'",
     {}},
    {"GlobalOutOfBounds", R"(
  float v = a[n * n + tx];)",
     64, Carrier::kAbort, "out-of-bounds access to 'a[4096]' (size 4096)",
     {6, 13}},
    {"LocalArrayOutOfBounds", R"(
  float w[4];
  for (int k = 0; k < 4; k++) w[k] = a[gid];
  float v = w[tx % 8];)",
     64, Carrier::kAbort, "index 4 out of bounds [0,4) for array 'w'",
     {8, 13}},
    {"DivisionByZero", R"(
  int d = n - n;
  float v = tx / d;)",
     64, Carrier::kAbort, "integer division by zero", {7, 16}},
    {"ModuloByZero", R"(
  int d = n - n;
  float v = tx % d;)",
     64, Carrier::kAbort, "modulo by zero", {7, 16}},
    {"CrossBlockWrite", R"(
  if (tx == 0) out[64] = a[gid];
  float v = 0.0f;)",
     32, Carrier::kAbort, "cross-block write conflict on 'out[64]'", {},
     false},
    {"CrossBlockRead", R"(
  float v = out[0];)",
     32, Carrier::kAbort, "cross-block read of 'out[0]'", {}, false},
};

class HazardRules : public ::testing::TestWithParam<Row> {};

TEST_P(HazardRules, SanitizerAndCertificateNameOneCell) {
  const Row& row = GetParam();
  const auto spec = sim::DeviceSpec::gtx680();
  auto prog = np::NpCompiler::parse(kernel_source(row));
  const ir::Kernel& kernel = *prog->find_kernel("k");
  auto factory = [&] {
    return np::make_synthetic_workload(kernel, 64, row.tb);
  };

  sim::SanitizerEngine::Options portable;
  portable.race_mode = sim::SanitizerEngine::RaceMode::kPortable;
  np::Workload w = factory();
  const auto run = np::Runner(spec).execute(
      np::ExecutionRequest::baseline(kernel, w).sanitized(portable));
  if (!row.sanitized) {
    EXPECT_TRUE(run.clean()) << run.engine.summary();
  } else {
    ASSERT_FALSE(run.hazards().empty());
    const std::string located =
        row.text + (row.vm_at.valid() ? sim::hazard::at(row.vm_at) : "");
    EXPECT_EQ(run.hazards().front().message, located)
        << run.hazards().front().str();
  }

  const np::Certifier certifier(spec);
  np::JobCertifier job(certifier, kernel, factory);
  int certified = 0;
  for (const auto& cfg : np::NpCompiler::enumerate_configs(kernel, row.tb,
                                                           spec)) {
    Certificate cert;
    try {
      cert = job.certify(np::NpCompiler::transform(kernel, cfg));
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    ++certified;
    if (row.carrier == Carrier::kAbort) {
      EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
      EXPECT_EQ(cert.detail, std::string("baseline: ") + row.text)
          << cert.str();
    } else {
      EXPECT_TRUE(cert.proven()) << cert.str();
      EXPECT_NE(cert.detail.find(std::string("(portable-model race: ") +
                                 row.text + ")"),
                std::string::npos)
          << cert.str();
    }
  }
  EXPECT_GT(certified, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Table, HazardRules, ::testing::ValuesIn(kRows),
    [](const ::testing::TestParamInfo<Row>& info) {
      return std::string(info.param.name);
    });

// A global scratch buffer (the backing of a re-homed local array) exists
// only in a variant's environment, so this row runs the two engines
// directly: the sanitizer with the buffer registered as uninitialized,
// symexec with it as a scratch argument.
TEST(HazardRules, UninitializedGlobalScratch) {
  const auto spec = sim::DeviceSpec::gtx680();
  auto prog = np::NpCompiler::parse(R"(
__global__ void k(float* g, float* out) {
  out[threadIdx.x] = g[threadIdx.x];
}
)");
  const ir::Kernel& kernel = *prog->find_kernel("k");
  const std::string text = "read of uninitialized global buffer 'g[0]'";

  np::Workload w;
  const sim::BufferId g = w.mem->alloc(ir::ScalarType::kFloat, 32);
  w.launch.args = {g, w.mem->alloc(ir::ScalarType::kFloat, 32)};
  w.launch.block = {32, 1, 1};
  sim::SanitizerEngine engine;
  engine.mark_buffer_uninitialized(g, 32);
  sim::Interpreter::Options iopt;
  iopt.sanitizer = &engine;
  (void)sim::run_and_time(spec, *w.mem, kernel, w.launch,
                          analysis::estimate_resources(kernel, spec).usage,
                          iopt);
  ASSERT_FALSE(engine.reports().empty());
  EXPECT_EQ(engine.reports().front().message, text);

  std::vector<sim::SymArg> args(2);
  for (auto& arg : args) {
    arg.kind = sim::SymArg::Kind::kBufferSymbolic;
    arg.type = ir::ScalarType::kFloat;
    arg.elems = 32;
  }
  args[0].kind = sim::SymArg::Kind::kBufferScratch;
  sim::SymArena arena;
  const auto sym =
      sim::sym_execute(spec, kernel, {1, 1, 1}, {32, 1, 1}, args, arena);
  EXPECT_FALSE(sym.ok);
  EXPECT_EQ(sym.reason, text);
}

}  // namespace
}  // namespace cudanp
