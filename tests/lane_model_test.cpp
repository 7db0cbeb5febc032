// The lane model both engines share (sim/lanes.hpp), checked bit for bit
// over the __shfl family: every builtin, every width in 1..32 (valid and
// invalid), selectors and deltas that are negative, in range, past the
// warp or at the ends of int, lane-dependent selectors, partial active
// masks, and blocks of 32, 48 and 150 threads (full, partial and several
// warps). Each case runs on the VM and through the symbolic baseline,
// evaluated at the seed that filled the VM's inputs; a case the VM
// rejects must abort the symbolic run as a fault with the VM's message.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "np/certifier.hpp"
#include "sim/interpreter.hpp"
#include "sim/symexec.hpp"

namespace cudanp {
namespace {

constexpr std::uint64_t kSeed = 5;
/// Deltas this large used to overflow the int lane arithmetic.
constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

/// out[tx] = callee(a[tx], sel + spread * (tx % 5), width) on the lanes
/// with tx % 3 != gap; `lane_width` makes the width a per-lane value.
std::string shfl_source(const std::string& callee, bool lane_width) {
  return "__global__ void k(float* a, float* out, int sel, int spread, "
         "int wid, int gap) {\n"
         "  int tx = threadIdx.x;\n"
         "  if (tx % 3 != gap)\n"
         "    out[tx] = " + callee + "(a[tx], sel + spread * (tx % 5), " +
         (lane_width ? "wid + 0 * tx" : "wid") + ");\n"
         "}\n";
}

struct Case {
  int threads, sel, spread, wid, gap;
  [[nodiscard]] std::string str() const {
    return "threads=" + std::to_string(threads) +
           " sel=" + std::to_string(sel) +
           " spread=" + std::to_string(spread) +
           " wid=" + std::to_string(wid) + " gap=" + std::to_string(gap);
  }
};

/// Runs one case on both engines and compares them. Returns true when
/// the VM rejected it.
bool expect_same(const ir::Kernel& kernel, const Case& c) {
  const auto spec = sim::DeviceSpec::gtx680();
  np::Workload w;
  for (int i = 0; i < 2; ++i)
    w.launch.args.push_back(w.mem->alloc(
        ir::ScalarType::kFloat, static_cast<std::size_t>(c.threads)));
  for (int v : {c.sel, c.spread, c.wid, c.gap})
    w.launch.args.push_back(sim::LaunchConfig::scalar_int(v));
  w.launch.block = {c.threads, 1, 1};
  np::seed_certify_floats(w, kSeed);
  std::string vm_error;
  try {
    (void)sim::Interpreter(spec, *w.mem).run(kernel, w.launch);
  } catch (const SimError& e) {
    vm_error = e.what();
  }

  std::vector<sim::SymArg> args(6);
  for (int i = 0; i < 2; ++i) {
    args[i].kind = sim::SymArg::Kind::kBufferSymbolic;
    args[i].type = ir::ScalarType::kFloat;
    args[i].elems = c.threads;
  }
  for (int i = 2; i < 6; ++i)
    args[i].scalar = std::get<sim::Value>(w.launch.args[i]);
  sim::SymArena arena;
  const auto sym = sim::sym_execute(spec, kernel, w.launch.grid,
                                    w.launch.block, args, arena);
  if (!vm_error.empty()) {
    EXPECT_FALSE(sym.ok);
    EXPECT_TRUE(sym.fault);
    EXPECT_EQ(sym.reason, vm_error);
    return true;
  }
  EXPECT_TRUE(sym.ok) << sym.reason;
  if (!sym.ok) return false;
  const auto out =
      w.mem->buffer(std::get<sim::BufferId>(w.launch.args[1])).f32();
  sim::SymEvaluator eval(arena, kSeed);
  for (std::size_t e = 0; e < out.size(); ++e) {
    sim::Value v;
    EXPECT_TRUE(eval.eval(sym.buffers[1][e], &v)) << "cell " << e;
    const auto want = static_cast<float>(v.as_f());
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want),
              std::bit_cast<std::uint32_t>(out[e]))
        << "cell " << e << ": symbolic " << want << ", VM " << out[e];
  }
  return false;
}

class LaneModel : public ::testing::TestWithParam<const char*> {};

TEST_P(LaneModel, ShflMatchesTheVmBitForBit) {
  int cases = 0, rejected = 0;
  for (bool lane_width : {false, true}) {
    auto program =
        frontend::parse_program_or_throw(shfl_source(GetParam(), lane_width));
    const ir::Kernel& kernel = *program->kernels.front();
    for (int threads : {32, 48, 150})
      for (int wid = 1; wid <= 32; ++wid)
        for (int sel : {kIntMin, -33, -1, 0, 1, 5, 31, 32, 40, kIntMax})
          for (int spread : {0, 7}) {
            const Case c{threads, sel, spread, wid, (wid ^ sel) & 1 ? 1 : -1};
            SCOPED_TRACE(std::string(GetParam()) +
                         (lane_width ? " lane width " : " ") + c.str());
            rejected += expect_same(kernel, c) ? 1 : 0;
            ++cases;
            if (::testing::Test::HasFailure()) return;
          }
  }
  // Widths 1, 2, 4, 8, 16 and 32 run; the other 26 are rejected.
  EXPECT_EQ(cases, 2 * 3 * 32 * 10 * 2);
  EXPECT_EQ(rejected, 2 * 3 * 26 * 10 * 2);
}

INSTANTIATE_TEST_SUITE_P(Builtins, LaneModel,
                         ::testing::Values("__shfl", "__shfl_up",
                                           "__shfl_down", "__shfl_xor"),
                         [](const auto& info) {
                           return std::string(info.param).substr(2);
                         });

}  // namespace
}  // namespace cudanp
