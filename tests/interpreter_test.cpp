#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "frontend/parser.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"
#include "sim/vm.hpp"

namespace cudanp::sim {
namespace {

/// Parses `src`, launches its only kernel and returns the stats.
struct Harness {
  DeviceSpec spec = DeviceSpec::gtx680();
  DeviceMemory mem;
  std::unique_ptr<ir::Program> program;
  KernelStats stats;

  BufferId alloc_f(std::size_t n) { return mem.alloc(ir::ScalarType::kFloat, n); }
  BufferId alloc_i(std::size_t n) { return mem.alloc(ir::ScalarType::kInt, n); }

  void run(const std::string& src, LaunchConfig cfg,
           const std::string& kernel = "k") {
    program = frontend::parse_program_or_throw(src);
    Interpreter interp(spec, mem);
    stats = interp.run(*program->find_kernel(kernel), cfg);
  }
  std::span<const float> f32(BufferId b) { return mem.buffer(b).f32(); }
  std::span<const std::int32_t> i32(BufferId b) { return mem.buffer(b).i32(); }
};

TEST(Interpreter, ThreadGeometry) {
  Harness h;
  auto out = h.alloc_i(6 * 4);
  h.run(
      "__global__ void k(int* o) {"
      "  int tid = threadIdx.x + blockIdx.x * blockDim.x;"
      "  o[tid * 4 + 0] = threadIdx.x;"
      "  o[tid * 4 + 1] = blockIdx.x;"
      "  o[tid * 4 + 2] = blockDim.x;"
      "  o[tid * 4 + 3] = gridDim.x;"
      "}",
      {.grid = {2, 1, 1}, .block = {3, 1, 1}, .args = {out}});
  auto o = h.i32(out);
  EXPECT_EQ(o[0 * 4 + 0], 0);
  EXPECT_EQ(o[4 * 4 + 0], 1);   // tid 4 = block 1, thread 1
  EXPECT_EQ(o[4 * 4 + 1], 1);
  EXPECT_EQ(o[5 * 4 + 2], 3);
  EXPECT_EQ(o[5 * 4 + 3], 2);
}

TEST(Interpreter, IntegerArithmeticSemantics) {
  Harness h;
  auto out = h.alloc_i(8);
  h.run(
      "__global__ void k(int* o) {"
      "  o[0] = 7 / 2;"
      "  o[1] = 7 % 3;"
      "  o[2] = 1 << 4;"
      "  o[3] = 256 >> 2;"
      "  o[4] = 5 & 3;"
      "  o[5] = 5 | 2;"
      "  o[6] = 5 ^ 1;"
      "  o[7] = -3 / 2;"
      "}",
      {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}});
  auto o = h.i32(out);
  EXPECT_EQ(o[0], 3);
  EXPECT_EQ(o[1], 1);
  EXPECT_EQ(o[2], 16);
  EXPECT_EQ(o[3], 64);
  EXPECT_EQ(o[4], 1);
  EXPECT_EQ(o[5], 7);
  EXPECT_EQ(o[6], 4);
  EXPECT_EQ(o[7], -1);  // C truncation toward zero
}

TEST(Interpreter, FloatRoundsThroughF32) {
  Harness h;
  auto out = h.alloc_f(2);
  h.run(
      "__global__ void k(float* o) {"
      "  float x = 0.1f;"
      "  o[0] = x + 0.2f;"
      "  o[1] = 1.0f / 3.0f;"
      "}",
      {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}});
  EXPECT_FLOAT_EQ(h.f32(out)[0], 0.1f + 0.2f);
  EXPECT_FLOAT_EQ(h.f32(out)[1], 1.0f / 3.0f);
}

TEST(Interpreter, MathBuiltins) {
  Harness h;
  auto out = h.alloc_f(8);
  h.run(
      "__global__ void k(float* o) {"
      "  o[0] = sqrtf(16.0f);"
      "  o[1] = fabsf(0.0f - 2.5f);"
      "  o[2] = expf(0.0f);"
      "  o[3] = logf(1.0f);"
      "  o[4] = fminf(3.0f, 4.0f);"
      "  o[5] = fmaxf(3.0f, 4.0f);"
      "  o[6] = powf(2.0f, 10.0f);"
      "  o[7] = floorf(2.7f);"
      "}",
      {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}});
  auto o = h.f32(out);
  EXPECT_FLOAT_EQ(o[0], 4.0f);
  EXPECT_FLOAT_EQ(o[1], 2.5f);
  EXPECT_FLOAT_EQ(o[2], 1.0f);
  EXPECT_FLOAT_EQ(o[3], 0.0f);
  EXPECT_FLOAT_EQ(o[4], 3.0f);
  EXPECT_FLOAT_EQ(o[5], 4.0f);
  EXPECT_FLOAT_EQ(o[6], 1024.0f);
  EXPECT_FLOAT_EQ(o[7], 2.0f);
}

TEST(Interpreter, DivergentIfBothPathsExecute) {
  Harness h;
  auto out = h.alloc_i(64);
  h.run(
      "__global__ void k(int* o) {"
      "  int t = threadIdx.x;"
      "  if (t < 20) { o[t] = 1; } else { o[t] = 2; }"
      "}",
      {.grid = {1, 1, 1}, .block = {64, 1, 1}, .args = {out}});
  EXPECT_EQ(h.i32(out)[19], 1);
  EXPECT_EQ(h.i32(out)[20], 2);
  // Warp 0 diverges (lanes 0-19 vs 20-31); warp 1 does not.
  EXPECT_EQ(h.stats.divergent_branches, 1);
}

TEST(Interpreter, PerLaneLoopTripCounts) {
  Harness h;
  auto out = h.alloc_i(8);
  h.run(
      "__global__ void k(int* o) {"
      "  int t = threadIdx.x;"
      "  int c = 0;"
      "  for (int i = 0; i < t; i++) c += 1;"
      "  o[t] = c;"
      "}",
      {.grid = {1, 1, 1}, .block = {8, 1, 1}, .args = {out}});
  for (int t = 0; t < 8; ++t) EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(t)], t);
}

TEST(Interpreter, WhileLoop) {
  Harness h;
  auto out = h.alloc_i(4);
  h.run(
      "__global__ void k(int* o) {"
      "  int t = threadIdx.x;"
      "  int x = 1;"
      "  while (x < t + 2) x = x * 2;"
      "  o[t] = x;"
      "}",
      {.grid = {1, 1, 1}, .block = {4, 1, 1}, .args = {out}});
  EXPECT_EQ(h.i32(out)[0], 2);
  EXPECT_EQ(h.i32(out)[1], 4);
  EXPECT_EQ(h.i32(out)[2], 4);
  EXPECT_EQ(h.i32(out)[3], 8);
}

TEST(Interpreter, ReturnMasksLanesForRestOfKernel) {
  Harness h;
  auto out = h.alloc_i(8);
  h.run(
      "__global__ void k(int* o, int n) {"
      "  int t = threadIdx.x;"
      "  o[t] = 1;"
      "  if (t >= n) { return; }"
      "  o[t] = 2;"
      "}",
      {.grid = {1, 1, 1},
       .block = {8, 1, 1},
       .args = {out, Value::of_int(4)}});
  for (int t = 0; t < 4; ++t) EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(t)], 2);
  for (int t = 4; t < 8; ++t) EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(t)], 1);
}

TEST(Interpreter, SharedMemoryCommunication) {
  Harness h;
  auto out = h.alloc_f(32);
  h.run(
      "__global__ void k(float* o) {"
      "  __shared__ float t[32];"
      "  int i = threadIdx.x;"
      "  t[i] = (float)i;"
      "  __syncthreads();"
      "  o[i] = t[31 - i];"
      "}",
      {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {out}});
  for (int i = 0; i < 32; ++i)
    EXPECT_FLOAT_EQ(h.f32(out)[static_cast<std::size_t>(i)], static_cast<float>(31 - i));
  EXPECT_GE(h.stats.sync_ops, 1);
}

TEST(Interpreter, SharedMemoryTreeReduction) {
  Harness h;
  auto out = h.alloc_f(1);
  h.run(
      "__global__ void k(float* o) {"
      "  __shared__ float red[64];"
      "  int i = threadIdx.x;"
      "  red[i] = 1.0f;"
      "  __syncthreads();"
      "  for (int off = 32; off > 0; off = off / 2) {"
      "    if (i < off) { red[i] += red[i + off]; }"
      "    __syncthreads();"
      "  }"
      "  if (i == 0) { o[0] = red[0]; }"
      "}",
      {.grid = {1, 1, 1}, .block = {64, 1, 1}, .args = {out}});
  EXPECT_FLOAT_EQ(h.f32(out)[0], 64.0f);
}

TEST(Interpreter, LocalArrayPerThreadPrivacy) {
  Harness h;
  auto out = h.alloc_i(16);
  h.run(
      "__global__ void k(int* o) {"
      "  int t = threadIdx.x;"
      "  int a[4];"
      "  for (int i = 0; i < 4; i++) a[i] = t * 10 + i;"
      "  o[t] = a[3];"
      "}",
      {.grid = {1, 1, 1}, .block = {16, 1, 1}, .args = {out}});
  for (int t = 0; t < 16; ++t)
    EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(t)], t * 10 + 3);
  EXPECT_GT(h.stats.local_transactions, 0);
}

TEST(Interpreter, ConstantInitializerList) {
  Harness h;
  auto out = h.alloc_i(4);
  h.run(
      "__global__ void k(int* o) {"
      "  __constant__ int tab[4] = {5, 1, 4, 2};"
      "  int t = threadIdx.x;"
      "  o[t] = tab[t];"
      "}",
      {.grid = {1, 1, 1}, .block = {4, 1, 1}, .args = {out}});
  EXPECT_EQ(h.i32(out)[0], 5);
  EXPECT_EQ(h.i32(out)[3], 2);
}

TEST(Interpreter, ShflBroadcastFromGroupLeader) {
  Harness h;
  auto out = h.alloc_i(32);
  // Paper Sec. 2.1 example: __shfl(var, 0, 4) -> lanes 0-3 read lane 0,
  // lanes 4-7 read lane 4, ...
  h.run(
      "__global__ void k(int* o) {"
      "  int v = threadIdx.x;"
      "  o[threadIdx.x] = __shfl(v, 0, 4);"
      "}",
      {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {out}});
  for (int l = 0; l < 32; ++l)
    EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(l)], l / 4 * 4);
}

TEST(Interpreter, ShflUpDownClampAtGroupBoundary) {
  Harness h;
  auto up = h.alloc_i(8);
  auto down = h.alloc_i(8);
  h.run(
      "__global__ void k(int* u, int* d) {"
      "  int v = threadIdx.x;"
      "  u[threadIdx.x] = __shfl_up(v, 1, 8);"
      "  d[threadIdx.x] = __shfl_down(v, 2, 8);"
      "}",
      {.grid = {1, 1, 1}, .block = {8, 1, 1}, .args = {up, down}});
  EXPECT_EQ(h.i32(up)[0], 0);  // no lane below: keeps own value
  EXPECT_EQ(h.i32(up)[1], 0);
  EXPECT_EQ(h.i32(up)[7], 6);
  EXPECT_EQ(h.i32(down)[0], 2);
  EXPECT_EQ(h.i32(down)[6], 6);  // beyond group: keeps own
  EXPECT_EQ(h.i32(down)[7], 7);
}

TEST(Interpreter, ShflXorButterflySum) {
  Harness h;
  auto out = h.alloc_i(16);
  h.run(
      "__global__ void k(int* o) {"
      "  int v = threadIdx.x;"
      "  for (int m = 4; m > 0; m = m / 2)"
      "    v = v + __shfl_xor(v, m, 8);"
      "  o[threadIdx.x] = v;"
      "}",
      {.grid = {1, 1, 1}, .block = {16, 1, 1}, .args = {out}});
  // Group 0 (lanes 0-7) sums 0..7 = 28; group 1 sums 8..15 = 92.
  for (int l = 0; l < 8; ++l) EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(l)], 28);
  for (int l = 8; l < 16; ++l) EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(l)], 92);
  EXPECT_EQ(h.stats.shfl_ops, 3);
}

TEST(Interpreter, ShflCrossesWarpsNever) {
  Harness h;
  auto out = h.alloc_i(64);
  h.run(
      "__global__ void k(int* o) {"
      "  int v = threadIdx.x;"
      "  o[threadIdx.x] = __shfl(v, 0, 32);"
      "}",
      {.grid = {1, 1, 1}, .block = {64, 1, 1}, .args = {out}});
  EXPECT_EQ(h.i32(out)[31], 0);
  EXPECT_EQ(h.i32(out)[32], 32);  // second warp reads its own lane 0
}

/// The shfl family's lane semantics, lane by lane: the source lane within
/// the warp, with an out-of-range source or one past the block's last
/// thread recovering the caller's own value.
int shfl_source(const std::string& fn, int l, int nlanes, int s, int wdt) {
  const int lane = l % 32, warp_base = l - lane;
  const int group_base = lane / wdt * wdt;
  int src;
  if (fn == "__shfl") {
    src = group_base + s % wdt;
  } else if (fn == "__shfl_up") {
    src = lane - s < group_base ? lane : lane - s;
  } else if (fn == "__shfl_down") {
    src = lane + s >= group_base + wdt ? lane : lane + s;
  } else {
    const int cand = group_base + ((lane - group_base) ^ s);
    src = cand < group_base + wdt ? cand : lane;
  }
  if (src < 0 || src >= 32 || warp_base + src >= nlanes) return l;
  return warp_base + src;
}

TEST(Interpreter, ShflMatchesLaneSemanticsForEveryOperandShape) {
  // Broadcast, block-uniform, warp-uniform and per-lane selectors, full
  // and tail warps, with and without a divergent guard: the shift-and-mask
  // lane math must agree with the lane-by-lane definition.
  const std::pair<const char*, int (*)(int, int)> sels[] = {
      {"s", [](int s, int) { return s; }},
      {"s + threadIdx.x * 0", [](int s, int) { return s; }},
      {"s + threadIdx.x % 3", [](int s, int l) { return s + l % 3; }},
      {"s + threadIdx.x / 32", [](int s, int l) { return s + l / 32; }},
  };
  for (std::string fn : {"__shfl", "__shfl_up", "__shfl_down", "__shfl_xor"})
    for (const auto& [sel, sel_of] : sels)
      for (bool divergent : {false, true})
        for (int block : {32, 48, 64})
          for (int wdt : {1, 2, 8, 32})
            for (int s : {-33, -1, 0, 1, 3, 31, 33}) {
              SCOPED_TRACE(fn + "(v, " + sel + ", " + std::to_string(wdt) +
                           ") s=" + std::to_string(s) + " block " +
                           std::to_string(block) +
                           (divergent ? " divergent" : ""));
              Harness h;
              auto out = h.alloc_i(64);
              h.run("__global__ void k(int* o, int s, int w) {\n"
                    "  int v = threadIdx.x * 7 + 3;\n"
                    "  if (" +
                        std::string(divergent ? "threadIdx.x % 3 != 0"
                                              : "threadIdx.x < 1024") +
                        ")\n"
                        "    o[threadIdx.x] = " +
                        fn + "(v, " + sel + ", w);\n}\n",
                    {.grid = {1, 1, 1},
                     .block = {block, 1, 1},
                     .args = {out, LaunchConfig::scalar_int(s),
                              LaunchConfig::scalar_int(wdt)}});
              for (int l = 0; l < block; ++l) {
                if (divergent && l % 3 == 0) continue;
                const int src = shfl_source(fn, l, block, sel_of(s, l), wdt);
                EXPECT_EQ(h.i32(out)[static_cast<std::size_t>(l)],
                          src * 7 + 3)
                    << "lane " << l;
              }
            }
}

TEST(Interpreter, ShflRequiresSm30) {
  Harness h;
  h.spec.sm_version = 20;
  auto out = h.alloc_i(32);
  EXPECT_THROW(
      h.run("__global__ void k(int* o) { o[threadIdx.x] = "
            "__shfl(threadIdx.x, 0, 4); }",
            {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {out}}),
      SimError);
}

TEST(Interpreter, ShflBadWidthThrows) {
  Harness h;
  auto out = h.alloc_i(32);
  EXPECT_THROW(
      h.run("__global__ void k(int* o) { o[threadIdx.x] = "
            "__shfl(threadIdx.x, 0, 5); }",
            {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {out}}),
      SimError);
}

TEST(Interpreter, TwoDimensionalBlocks) {
  Harness h;
  auto out = h.alloc_i(32);
  h.run(
      "__global__ void k(int* o) {"
      "  o[threadIdx.y * blockDim.x + threadIdx.x] ="
      "      threadIdx.y * 100 + threadIdx.x;"
      "}",
      {.grid = {1, 1, 1}, .block = {8, 4, 1}, .args = {out}});
  EXPECT_EQ(h.i32(out)[0], 0);
  EXPECT_EQ(h.i32(out)[8], 100);
  EXPECT_EQ(h.i32(out)[31], 307);
}

TEST(Interpreter, GlobalOutOfBoundsThrows) {
  Harness h;
  auto out = h.alloc_i(4);
  EXPECT_THROW(
      h.run("__global__ void k(int* o) { o[99] = 1; }",
            {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}}),
      SimError);
}

TEST(Interpreter, LocalArrayOutOfBoundsThrows) {
  Harness h;
  auto out = h.alloc_i(1);
  EXPECT_THROW(
      h.run("__global__ void k(int* o) { int a[4]; a[7] = 1; o[0] = a[7]; }",
            {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}}),
      SimError);
}

TEST(Interpreter, UndeclaredVariableThrows) {
  Harness h;
  auto out = h.alloc_i(1);
  EXPECT_THROW(
      h.run("__global__ void k(int* o) { o[0] = nope; }",
            {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}}),
      SimError);
}

TEST(Interpreter, DivisionByZeroThrows) {
  Harness h;
  auto out = h.alloc_i(1);
  EXPECT_THROW(
      h.run("__global__ void k(int* o, int z) { o[0] = 5 / z; }",
            {.grid = {1, 1, 1},
             .block = {1, 1, 1},
             .args = {out, Value::of_int(0)}}),
      SimError);
}

TEST(Interpreter, WrongArgCountThrows) {
  Harness h;
  auto out = h.alloc_i(1);
  EXPECT_THROW(
      h.run("__global__ void k(int* o, int n) { o[0] = n; }",
            {.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}}),
      SimError);
}

TEST(Interpreter, RunawayLoopGuard) {
  // The valve's error names the kind of loop and where it starts.
  Interpreter::Options opt;
  opt.limits.max_loop_iterations = 100;
  auto valve_error = [&](const std::string& loop) -> std::string {
    Harness h;
    auto out = h.alloc_i(1);
    h.program = frontend::parse_program_or_throw(
        "__global__ void k(int* o) {\n"
        "  int x = 0;\n" +
        loop +
        "\n"
        "  o[0] = x;\n"
        "}\n");
    Interpreter interp(h.spec, h.mem, opt);
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}, .args = {out}};
    try {
      (void)interp.run(*h.program->find_kernel("k"), cfg);
    } catch (const SimError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(valve_error("  while (x < 1000000) x += 1;"),
            "while loop exceeded max iterations at 3:3");
  EXPECT_EQ(valve_error("  for (int i = 0; i < 1000000; i++) x += 1;"),
            "loop exceeded max iterations at 3:3");
}

TEST(Interpreter, CoalescedVsStridedTransactionCounts) {
  Harness h1, h2;
  auto a1 = h1.alloc_f(1024);
  auto o1 = h1.alloc_f(1024);
  h1.run("__global__ void k(float* a, float* o) {"
         "  o[threadIdx.x] = a[threadIdx.x]; }",
         {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {a1, o1}});
  auto a2 = h2.alloc_f(1024);
  auto o2 = h2.alloc_f(1024);
  h2.run("__global__ void k(float* a, float* o) {"
         "  o[threadIdx.x] = a[threadIdx.x * 32]; }",
         {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {a2, o2}});
  EXPECT_GT(h2.stats.global_transactions, h1.stats.global_transactions);
}

TEST(Interpreter, WarpChargedWhenAnyLaneActive) {
  // Intra-warp imbalance: one lane looping 10x costs the warp 10
  // iterations of issue (paper Sec. 3.4).
  Harness balanced, imbalanced;
  auto ob = balanced.alloc_i(32);
  balanced.run(
      "__global__ void k(int* o) {"
      "  int c = 0;"
      "  for (int i = 0; i < 10; i++) c += 1;"
      "  o[threadIdx.x] = c; }",
      {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {ob}});
  auto oi = imbalanced.alloc_i(32);
  imbalanced.run(
      "__global__ void k(int* o) {"
      "  int c = 0;"
      "  int n = 0;"
      "  if (threadIdx.x == 0) { n = 10; }"
      "  for (int i = 0; i < n; i++) c += 1;"
      "  o[threadIdx.x] = c; }",
      {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {oi}});
  // The imbalanced warp still pays roughly the full 10-iteration cost.
  EXPECT_GT(imbalanced.stats.issue_slots, 0.6 * balanced.stats.issue_slots);
}

// ---------------- static typing ----------------
//
// Every value has one static type. These cases used to decide a value's
// type at run time (per lane, from tags).

/// One kernel launch.
struct EngineRun {
  DeviceSpec spec = DeviceSpec::gtx680();
  DeviceMemory mem;
  std::unique_ptr<ir::Program> program;
  KernelStats stats;
  std::string error;  // the SimError message, "" if none

  explicit EngineRun(const std::string& src, int threads = 32,
                     SanitizerEngine* san = nullptr) {
    out = mem.alloc(ir::ScalarType::kFloat, 64);
    iout = mem.alloc(ir::ScalarType::kInt, 64);
    program = frontend::parse_program_or_throw(src);
    Interpreter::Options opt;
    opt.sanitizer = san;
    Interpreter interp(spec, mem, opt);
    try {
      stats = interp.run(*program->find_kernel("k"),
                         {.grid = {1, 1, 1},
                          .block = {threads, 1, 1},
                          .args = {out, iout}});
    } catch (const SimError& e) {
      error = e.what();
    }
  }
  [[nodiscard]] float f(std::size_t k) const {
    return mem.buffer(out).f32()[k];
  }
  [[nodiscard]] int i(std::size_t k) const {
    return mem.buffer(iout).i32()[k];
  }

  BufferId out = 0;
  BufferId iout = 0;
};

TEST(VmProgram, RejectsABufferOfAnotherTypeThanItWasLoweredFor) {
  // Without buffer types, lower() types the loads of `a` by its declared
  // float; an int buffer bound there would be read from the wrong
  // register pool, so the VM refuses the launch instead.
  auto program = frontend::parse_program_or_throw(
      "__global__ void k(float* a, float* o) {"
      "  o[threadIdx.x] = a[threadIdx.x] + 1;"
      "}");
  const ir::Kernel& kernel = *program->find_kernel("k");
  const auto bound = bind_kernel(kernel);
  const DeviceSpec spec = DeviceSpec::gtx680();
  DeviceMemory mem;
  const auto a = mem.alloc(ir::ScalarType::kInt, 32);
  const auto o = mem.alloc(ir::ScalarType::kFloat, 32);
  for (int i = 0; i < 32; ++i) mem.buffer(a).i32()[i] = i;
  const LaunchConfig cfg{
      .grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {a, o}};
  const Interpreter::Options opt;
  auto run = [&](const bytecode::Program& p) {
    return vm::run_block(p, spec, mem, opt, *bound, cfg, {0, 0, 0}, 1,
                         nullptr, 0, 1 << 20);
  };
  try {
    (void)run(*bytecode::lower(*bound));
    ADD_FAILURE() << "expected a SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(),
                 "bytecode lowered for float elements at parameter 'a', but "
                 "the bound buffer holds int");
  }
  (void)run(*bytecode::lower(*bound, vm::buffer_types(kernel, cfg, mem)));
  EXPECT_EQ(mem.buffer(o).f32()[5], 6.0f);
}

// The typing and overflow suites run on the VM, the one engine. Their
// parameter is the former AST-reference switch, always false: the single
// instantiation keeps the cases' names ("Engines/<suite>.<case>/Vm").
class InterpreterTyping : public ::testing::TestWithParam<bool> {};

TEST_P(InterpreterTyping, UnwrittenFloatVariableIsFloatZero) {
  // A never-written float reads as 0.0f, so x / 0 is a float division
  // (NaN), not the "integer division by zero" of an int-tagged 0.
  EngineRun r(
      "__global__ void k(float* o, int* io) {"
      "  float x;"
      "  __shared__ float s[4];"
      "  float a[2];"
      "  o[threadIdx.x] = x / 0;"
      "  o[32 + threadIdx.x] = s[1] / 0 + a[1] / 0;"
      "}");
  ASSERT_EQ(r.error, "");
  EXPECT_TRUE(std::isnan(r.f(0)));
  EXPECT_TRUE(std::isnan(r.f(32)));
}

TEST_P(InterpreterTyping, UnwrittenFloatIsStillAnUninitRead) {
  SanitizerEngine san;
  EngineRun r(
      "__global__ void k(float* o, int* io) {"
      "  float x;"
      "  o[threadIdx.x] = x / 0;"
      "}",
      32, &san);
  ASSERT_EQ(r.error, "");
  ASSERT_FALSE(san.reports().empty());
  EXPECT_EQ(san.reports()[0].kind, HazardKind::kUninitRead);
}

TEST_P(InterpreterTyping, TernaryArmsConvertToTheCommonType) {
  // c ? 7 : 2.5f is float on every lane: 7 / 2 divides as floats.
  EngineRun r(
      "__global__ void k(float* o, int* io) {"
      "  int t = threadIdx.x;"
      "  o[t] = (t % 2 == 0 ? 7 : 2.5f) / 2;"
      "  io[t] = (t % 2 == 0 ? 7 : 3) / 2;"
      "}");
  ASSERT_EQ(r.error, "");
  EXPECT_EQ(r.f(0), 3.5f);
  EXPECT_EQ(r.f(1), 1.25f);
  EXPECT_EQ(r.i(0), 3);  // both arms int: integer division
}

TEST_P(InterpreterTyping, DivisionChargeFollowsStaticTypes) {
  // The unwritten float divides at the float weight, exactly like a
  // literal float operand.
  EngineRun unwritten(
      "__global__ void k(float* o, int* io) {"
      "  float x;"
      "  float y = x / 3;"
      "  o[threadIdx.x] = y;"
      "}");
  EngineRun literal(
      "__global__ void k(float* o, int* io) {"
      "  float x;"
      "  float y = 0.0f / 3;"
      "  o[threadIdx.x] = y;"
      "}");
  ASSERT_EQ(unwritten.error, "");
  EXPECT_EQ(unwritten.stats.issue_slots, literal.stats.issue_slots);
}

TEST_P(InterpreterTyping, VoidVariableIsAStructuredError) {
  EngineRun r("__global__ void k(float* o, int* io) { void v = 1; }");
  EXPECT_NE(r.error.find("void variable 'v'"), std::string::npos) << r.error;
}

// ---------------- int64 overflow never reaches host UB ----------------

class InterpreterOverflow : public ::testing::TestWithParam<bool> {};

std::string overflow_error(const std::string& expr) {
  EngineRun r(
      "__global__ void k(float* o, int* io) {"
      "  int big = -9223372036854775807 - 1;"
      "  int s = threadIdx.x - 1;"
      "  io[threadIdx.x] = " + expr + ";"
      "}",
      1);
  return r.error;
}

TEST_P(InterpreterOverflow, MinOverMinusOneIsASimError) {
  const std::string e = overflow_error("big / (0 - 1)");
  EXPECT_NE(e.find("integer division overflow"), std::string::npos) << e;
  EXPECT_NE(e.find(" at "), std::string::npos) << e;
  const std::string m = overflow_error("big % (0 - 1)");
  EXPECT_NE(m.find("modulo overflow"), std::string::npos) << m;
}

TEST_P(InterpreterOverflow, ShiftCountsOutsideTheWordAreErrors) {
  for (const char* expr : {"1 << 64", "1 >> 64", "1 << s", "big >> (0 - 5)"}) {
    const std::string e = overflow_error(expr);
    EXPECT_NE(e.find("shift count out of range [0, 63]"), std::string::npos)
        << expr << ": " << e;
  }
  EXPECT_EQ(overflow_error("1 << 63"), "");
}

TEST_P(InterpreterOverflow, AddSubMulAndNegationWrap) {
  EngineRun r(
      "__global__ void k(float* o, int* io) {"
      "  int big = -9223372036854775807 - 1;"
      "  io[0] = (big + big) == 0;"
      "  io[1] = (big - 1) == 9223372036854775807;"
      "  io[2] = (big * 2) == 0;"
      "  io[3] = -big == big;"
      "  io[4] = abs(big) == big;"
      "  io[5] = -(0 - 5);"
      "}",
      1);
  ASSERT_EQ(r.error, "");
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(r.i(k), 1) << k;
  EXPECT_EQ(r.i(5), 5);
}

std::string engine_name(const ::testing::TestParamInfo<bool>&) {
  return "Vm";
}
INSTANTIATE_TEST_SUITE_P(Engines, InterpreterTyping, ::testing::Values(false),
                         engine_name);
INSTANTIATE_TEST_SUITE_P(Engines, InterpreterOverflow,
                         ::testing::Values(false), engine_name);

}  // namespace
}  // namespace cudanp::sim
