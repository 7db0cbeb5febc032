// Feature-level tests of the NP transformation: each test inspects the
// generated kernel structure and/or executes it against a reference.
#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "np/compiler.hpp"
#include "sim/interpreter.hpp"
#include "transform/transformer.hpp"

namespace cudanp::transform {
namespace {

using namespace cudanp::ir;
using namespace cudanp::sim;

NpConfig inter(int slave, int master, LocalPlacement p = LocalPlacement::kAuto) {
  NpConfig c;
  c.np_type = NpType::kInterWarp;
  c.slave_size = slave;
  c.master_count = master;
  c.placement = p;
  return c;
}

NpConfig intra(int slave, int master, LocalPlacement p = LocalPlacement::kAuto) {
  NpConfig c = inter(slave, master, p);
  c.np_type = NpType::kIntraWarp;
  return c;
}

TransformResult transform(const std::string& src, const NpConfig& cfg,
                          const std::string& kernel = "k") {
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  return apply_np_transform(*p->find_kernel(kernel), cfg, diags);
}

constexpr const char* kTmvSrc = R"(
__global__ void k(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)";

TEST(Transformer, PrologueAndBlockDims) {
  auto r = transform(kTmvSrc, inter(4, 32));
  EXPECT_EQ(r.kernel->name, "k_np");
  EXPECT_EQ(r.block_dims.x, 32);
  EXPECT_EQ(r.block_dims.y, 4);
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("int master_id = threadIdx.x;"), std::string::npos);
  EXPECT_NE(s.find("int slave_id = threadIdx.y;"), std::string::npos);
}

TEST(Transformer, IntraWarpSwapsDimensions) {
  auto r = transform(kTmvSrc, intra(4, 32));
  EXPECT_EQ(r.block_dims.x, 4);
  EXPECT_EQ(r.block_dims.y, 32);
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("int master_id = threadIdx.y;"), std::string::npos);
}

TEST(Transformer, GeometryRewritten) {
  auto r = transform(kTmvSrc, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  // blockDim.x becomes the master count literal; threadIdx.x the master id.
  EXPECT_NE(s.find("master_id + blockIdx.x * 32"), std::string::npos);
  EXPECT_EQ(s.find("threadIdx.x + blockIdx"), std::string::npos);
}

TEST(Transformer, CyclicLoopDistribution) {
  auto r = transform(kTmvSrc, inter(8, 32));
  std::string s = print_kernel(*r.kernel);
  // Fig. 3b: i starts at slave_id and strides by slave_size.
  EXPECT_NE(s.find("int i = 0 + slave_id; i < h; i += 8"), std::string::npos);
}

TEST(Transformer, ReductionIdentityInitAndGuardedEpilogue) {
  auto r = transform(kTmvSrc, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  // Slaves start from the identity (Sec. 3.2) ...
  EXPECT_NE(s.find("if (slave_id != 0)"), std::string::npos);
  // ... and the final store is master-only.
  EXPECT_NE(s.find("if (slave_id == 0)"), std::string::npos);
  EXPECT_NE(s.find("c[tx] = sum;"), std::string::npos);
}

TEST(Transformer, InterWarpUsesSharedMemoryReduction) {
  auto r = transform(kTmvSrc, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("__shared__ float __np_red_f[4][32];"), std::string::npos);
  EXPECT_EQ(s.find("__shfl"), std::string::npos);
}

TEST(Transformer, IntraWarpUsesShfl) {
  auto r = transform(kTmvSrc, intra(4, 32));
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("__shfl_xor"), std::string::npos);
  EXPECT_EQ(s.find("__np_red_f"), std::string::npos);
}

TEST(Transformer, RedundantComputationForUniformStatements) {
  // `tx = master_id + blockIdx.x*32` is group-uniform after the remap:
  // it must run unguarded in all threads (Sec. 3.1), not under
  // `if (slave_id == 0)`.
  auto r = transform(kTmvSrc, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  auto tx_pos = s.find("int tx = master_id");
  auto guard_pos = s.find("if (slave_id == 0)");
  ASSERT_NE(tx_pos, std::string::npos);
  EXPECT_LT(tx_pos, guard_pos);
}

TEST(Transformer, NonUniformLiveInIsBroadcast) {
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float base = a[threadIdx.x];
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < n; i++)
    s += a[i] * base;
  c[threadIdx.x] = s;
}
)";
  auto inter_r = transform(src, inter(4, 32));
  std::string si = print_kernel(*inter_r.kernel);
  // Inter-warp: shared-memory broadcast of `base`.
  EXPECT_NE(si.find("__np_bcast_f[master_id] = base"), std::string::npos);
  EXPECT_NE(si.find("base = __np_bcast_f[master_id]"), std::string::npos);
  auto intra_r = transform(src, intra(4, 32));
  std::string sa = print_kernel(*intra_r.kernel);
  EXPECT_NE(sa.find("base = __shfl(base, 0, 4)"), std::string::npos);
}

TEST(Transformer, DeclSplitHoistsDeclaration) {
  // Fig. 3b: a non-uniform initialization is guarded but the declaration
  // stays in scope.
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float base = a[threadIdx.x];
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < n; i++) s += base;
  c[threadIdx.x] = s;
}
)";
  auto r = transform(src, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("float base;"), std::string::npos);
  EXPECT_NE(s.find("base = a[master_id];"), std::string::npos);
}

TEST(Transformer, SelectLiveOutGetsZeroInitAndAddReduce) {
  // Sec. 3.2's `if (i == 3) x = a[i];` pattern.
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float x = 0.0f;
  #pragma np parallel for
  for (int i = 0; i < n; i++) {
    if (i == 3) {
      x = a[i];
    }
  }
  c[threadIdx.x] = x;
}
)";
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  auto r = apply_np_transform(*p->find_kernel("k"), inter(4, 32), diags);
  // A warning documents the select transformation.
  bool warned = false;
  for (const auto& d : diags.all())
    if (d.severity == Severity::kWarning) warned = true;
  EXPECT_TRUE(warned);
  // Execute: x must equal a[3] for every master.
  DeviceMemory mem;
  auto A = mem.alloc(ScalarType::kFloat, 64);
  auto C = mem.alloc(ScalarType::kFloat, 32);
  for (int i = 0; i < 64; ++i)
    mem.buffer(A).store(static_cast<std::size_t>(i),
                        Value::of_float(i * 1.5));
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = r.block_dims;
  cfg.args = {A, C, Value::of_int(64)};
  Interpreter interp(DeviceSpec::gtx680(), mem);
  (void)interp.run(*r.kernel, cfg);
  for (int m = 0; m < 32; ++m)
    EXPECT_FLOAT_EQ(mem.buffer(C).f32()[static_cast<std::size_t>(m)], 4.5f);
}

TEST(Transformer, PaddingAddsGuard) {
  const char* src = R"(
__global__ void k(float* a, float* c) {
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 150; i++) s += a[i];
  c[threadIdx.x] = s;
}
)";
  NpConfig cfg = inter(4, 32);
  cfg.pad_loops = true;
  auto r = transform(src, cfg);
  std::string s = print_kernel(*r.kernel);
  // 150 padded to 152 with an `if (i < 150)` guard (Sec. 3.7 item 3).
  EXPECT_NE(s.find("i < 152"), std::string::npos);
  EXPECT_NE(s.find("if (i < 150)"), std::string::npos);
}

TEST(Transformer, NoPaddingWhenDividesEvenly) {
  const char* src = R"(
__global__ void k(float* a, float* c) {
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 160; i++) s += a[i];
  c[threadIdx.x] = s;
}
)";
  NpConfig cfg = inter(4, 32);
  cfg.pad_loops = true;
  auto r = transform(src, cfg);
  EXPECT_EQ(print_kernel(*r.kernel).find("if (i < 160)"), std::string::npos);
}

// ---- local array placements (Sec. 3.3 / Fig. 6) ----

constexpr const char* kLocalArraySrc = R"(
__global__ void k(float* a, float* c, int n) {
  int tid = threadIdx.x + blockIdx.x * blockDim.x;
  float grad[64];
  float s = 0.0f;
  #pragma np parallel for
  for (int i = 0; i < 64; i++) grad[i] = a[tid * 64 + i];
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 64; i++) s += grad[i];
  c[tid] = s;
}
)";

void check_local_array_result(const TransformResult& r) {
  DeviceMemory mem;
  auto A = mem.alloc(ScalarType::kFloat, 64 * 64);
  auto C = mem.alloc(ScalarType::kFloat, 64);
  for (int i = 0; i < 64 * 64; ++i)
    mem.buffer(A).store(static_cast<std::size_t>(i),
                        Value::of_float((i % 97) * 0.25));
  LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = r.block_dims;
  cfg.args = {A, C, Value::of_int(64)};
  for (const auto& extra : r.extra_buffers)
    cfg.args.push_back(
        mem.alloc(extra.type, static_cast<std::size_t>(extra.elems_per_block) * 2));
  Interpreter interp(DeviceSpec::gtx680(), mem);
  (void)interp.run(*r.kernel, cfg);
  for (int t = 0; t < 64; ++t) {
    float want = 0.0f;
    for (int i = 0; i < 64; ++i)
      want += ((t * 64 + i) % 97) * 0.25f;
    EXPECT_NEAR(mem.buffer(C).f32()[static_cast<std::size_t>(t)], want, 0.05)
        << "thread " << t;
  }
}

TEST(Transformer, LocalArrayAutoPicksRegisterWhenPartitionable) {
  auto r = transform(kLocalArraySrc, inter(4, 32));
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].second, LocalPlacement::kRegister);
  // Partitioned: 64/4 = 16 elements per slave, indexed by the private
  // counter (the Fig. 6 "ni" form).
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("grad[__np_k]"), std::string::npos);
  check_local_array_result(r);
}

TEST(Transformer, LocalArrayForcedShared) {
  auto r = transform(kLocalArraySrc, inter(4, 32, LocalPlacement::kShared));
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("__shared__ float grad[64][32];"), std::string::npos);
  EXPECT_NE(s.find("grad[i][master_id]"), std::string::npos);
  check_local_array_result(r);
}

TEST(Transformer, LocalArrayForcedGlobal) {
  auto r = transform(kLocalArraySrc, inter(4, 32, LocalPlacement::kGlobal));
  ASSERT_EQ(r.extra_buffers.size(), 1u);
  EXPECT_EQ(r.extra_buffers[0].param_name, "__np_grad_g");
  EXPECT_EQ(r.extra_buffers[0].elems_per_block, 64 * 32);
  std::string s = print_kernel(*r.kernel);
  EXPECT_NE(s.find("__np_grad_g["), std::string::npos);
  check_local_array_result(r);
}

TEST(Transformer, NonIteratorAccessPreventsRegisterPartition) {
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float buf[8];
  #pragma np parallel for
  for (int i = 0; i < 8; i++) buf[i] = a[i];
  c[threadIdx.x] = buf[3];
}
)";
  auto r = transform(src, inter(4, 32));
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_NE(r.placements[0].second, LocalPlacement::kRegister);
  EXPECT_THROW(transform(src, inter(4, 32, LocalPlacement::kRegister)),
               CompileError);
}

TEST(Transformer, LargeLocalArrayFallsBackToGlobal) {
  // 600 B > the 384 B shared-memory threshold (Sec. 3.3 policy), and the
  // non-iterator access rules out registers.
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float buf[150];
  #pragma np parallel for
  for (int i = 0; i < 150; i++) buf[i] = a[i];
  c[threadIdx.x] = buf[0];
}
)";
  auto r = transform(src, inter(4, 32));
  EXPECT_EQ(r.placements[0].second, LocalPlacement::kGlobal);
}

// ---- structured control flow around parallel loops ----

TEST(Transformer, UniformConditionKeptForAllThreads) {
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float s = 0.0f;
  if (threadIdx.x < 16) {
    #pragma np parallel for reduction(+:s)
    for (int i = 0; i < n; i++) s += a[i];
  }
  c[threadIdx.x] = s;
}
)";
  auto r = transform(src, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  // master_id < 16 is group-uniform: evaluated by every thread.
  EXPECT_NE(s.find("if (master_id < 16)"), std::string::npos);
}

TEST(Transformer, SequentialLoopAroundParallelLoopExecutesForAll) {
  const char* src = R"(
__global__ void k(float* a, float* c, int w) {
  float sum = 0.0f;
  for (int t = 0; t < w / 32; t++) {
    #pragma np parallel for reduction(+:sum)
    for (int j = 0; j < 32; j++)
      sum += a[t * 32 + j];
  }
  c[threadIdx.x] = sum;
}
)";
  auto r = transform(src, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  // The tile loop header must not be guarded.
  EXPECT_NE(s.find("for (int t = 0; t < w / 32; t += 1)"), std::string::npos);
}

TEST(Transformer, ReturnBecomesGroupWide) {
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  int tid = threadIdx.x + blockIdx.x * blockDim.x;
  float s = 0.0f;
  if (tid >= n) { return; }
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < n; i++) s += a[i];
  c[tid] = s;
}
)";
  auto r = transform(src, inter(4, 32));
  std::string s = print_kernel(*r.kernel);
  // The bounds check executes in every thread (tid is uniform), so whole
  // groups return together.
  EXPECT_NE(s.find("return;"), std::string::npos);
  auto ret_pos = s.find("return;");
  auto guard_pos = s.find("if (slave_id == 0)");
  EXPECT_LT(ret_pos, guard_pos);
}

// ---- validation errors ----

TEST(Transformer, RejectsMissingMasterCount) {
  NpConfig cfg;
  cfg.slave_size = 4;
  EXPECT_THROW(transform(kTmvSrc, cfg), CompileError);
}

TEST(Transformer, RejectsOversizedBlock) {
  EXPECT_THROW(transform(kTmvSrc, inter(32, 64)), CompileError);  // 2048
}

TEST(Transformer, RejectsNonPow2IntraWarp) {
  EXPECT_THROW(transform(kTmvSrc, intra(3, 32)), CompileError);
}

TEST(Transformer, RejectsKernelWithoutPragmas) {
  EXPECT_THROW(
      transform("__global__ void k(float* a) { a[0] = 1.0f; }", inter(4, 32)),
      CompileError);
}

TEST(Transformer, RejectsReservedNames) {
  EXPECT_THROW(
      transform(R"(
__global__ void k(float* a, int n) {
  int slave_id = 3;
  #pragma np parallel for
  for (int i = 0; i < n; i++) a[i] = 0.0f;
})",
                inter(4, 32)),
      CompileError);
}

TEST(Transformer, RejectsNonCanonicalParallelLoop) {
  EXPECT_THROW(
      transform(R"(
__global__ void k(float* a, int n) {
  #pragma np parallel for
  for (int i = n; i > 0; i -= 1) a[i] = 0.0f;
})",
                inter(4, 32)),
      CompileError);
}

TEST(Transformer, SlaveSizeBounds) {
  EXPECT_THROW(transform(kTmvSrc, inter(1, 32)), CompileError);
  EXPECT_THROW(transform(kTmvSrc, inter(64, 8)), CompileError);
}

// Kernels that call __shfl themselves. Intra-warp NP makes threadIdx.y
// the master id and packs each master's slaves into lanes of one warp,
// so a baseline __shfl would read another master's thread.
constexpr const char* kUserShflSrcs[] = {
    R"(
__global__ void k(float* a, float* out) {
  int tx = threadIdx.x;
  float w = __shfl(a[tx], 0, 32);
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i];
  out[tx] = s + w;
}
)",
    R"(
__global__ void k(float* a, float* out) {
  int tx = threadIdx.x;
  float w = __shfl_down(a[tx], 1, 32);
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i];
  out[tx] = s + w;
}
)"};

TEST(Transformer, IntraWarpRejectsKernelsThatCallShfl) {
  for (const char* src : kUserShflSrcs) {
    try {
      (void)transform(src, intra(8, 32));
      ADD_FAILURE() << "intra-warp transform accepted:\n" << src;
    } catch (const CompileError& e) {
      EXPECT_EQ(e.loc().str(), "4:13");
      EXPECT_NE(std::string(e.what()).find(
                    "intra-warp NP remaps lanes (master_id = threadIdx.y)"),
                std::string::npos)
          << e.what();
    }
    EXPECT_NO_THROW((void)transform(src, inter(8, 32)));
  }
  auto tmv = frontend::parse_program_or_throw(kTmvSrc);
  EXPECT_EQ(first_shfl_call(*tmv->find_kernel("k")), nullptr);
}

TEST(Transformer, EnumerationSkipsIntraWarpForKernelsThatCallShfl) {
  const auto spec = DeviceSpec::gtx680();
  for (const char* src : kUserShflSrcs) {
    auto p = frontend::parse_program_or_throw(src);
    const Kernel& k = *p->find_kernel("k");
    const auto configs = np::NpCompiler::enumerate_configs(k, 32, spec);
    EXPECT_EQ(configs.size(), 5u);
    for (const auto& c : configs) EXPECT_FALSE(c.intra_warp()) << c.describe();
    EXPECT_EQ(np::NpCompiler::config_space(k, 32, spec).size(), 10u);
  }
  auto tmv = frontend::parse_program_or_throw(kTmvSrc);
  EXPECT_EQ(np::NpCompiler::enumerate_configs(*tmv->find_kernel("k"), 32, spec)
                .size(),
            10u);
}

TEST(Transformer, BraceInitializersAreTransformedLikeAnyExpression) {
  // A __shfl in a brace initializer is the kernel's own __shfl, so
  // intra-warp NP is not applicable; geometry in an initializer is
  // remapped like everywhere else.
  auto shfl = frontend::parse_program_or_throw(R"(
__global__ void k(float* a, float* out) {
  int tx = threadIdx.x;
  __constant__ float w[1] = {__shfl(a[tx], 0, 32)};
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i];
  out[tx] = s + w[0];
}
)");
  const Kernel& k = *shfl->find_kernel("k");
  const CallExpr* call = first_shfl_call(k);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->loc().str(), "4:30");
  EXPECT_EQ(np::NpCompiler::enumerate_configs(k, 32, DeviceSpec::gtx680())
                .size(),
            5u);

  auto r = transform(R"(
__global__ void k(float* a, float* out) {
  __constant__ int w[2] = {threadIdx.x, 1};
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[w[0] * 8 + i];
  out[w[0]] = s + w[1];
}
)",
                     inter(8, 32));
  const std::string src = print_kernel(*r.kernel);
  EXPECT_NE(src.find("w[2] = {master_id, 1}"), std::string::npos) << src;
}

TEST(Transformer, NotesDescribeDecisions) {
  auto r = transform(kLocalArraySrc, inter(4, 32));
  bool placement_note = false;
  for (const auto& n : r.notes)
    if (n.find("grad") != std::string::npos) placement_note = true;
  EXPECT_TRUE(placement_note);
}

}  // namespace
}  // namespace cudanp::transform
namespace cudanp::transform {
namespace {

TEST(AutoReduction, UnannotatedSumDetected) {
  // Live-out updated only via `s += ...` is recognized as an add
  // reduction even without a reduction clause.
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float s = 0.0f;
  #pragma np parallel for
  for (int i = 0; i < n; i++) s += a[i];
  c[threadIdx.x] = s;
}
)";
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  auto r = apply_np_transform(*p->find_kernel("k"), inter(4, 32), diags);
  bool detected = false;
  for (const auto& n : r.notes)
    if (n.find("auto-detected reduction on 's'") != std::string::npos)
      detected = true;
  EXPECT_TRUE(detected);
  // No select warning for s.
  for (const auto& d : diags.all())
    EXPECT_EQ(d.severity == Severity::kWarning &&
                  d.message.find("'s'") != std::string::npos,
              false)
        << d.message;

  // And it computes the right answer.
  DeviceMemory mem;
  auto A = mem.alloc(ScalarType::kFloat, 64);
  auto C = mem.alloc(ScalarType::kFloat, 32);
  float want = 0;
  for (int i = 0; i < 64; ++i) {
    mem.buffer(A).store(static_cast<std::size_t>(i), Value::of_float(0.5 * i));
    want += 0.5f * static_cast<float>(i);
  }
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = r.block_dims,
                   .args = {A, C, Value::of_int(64)}};
  Interpreter interp(DeviceSpec::gtx680(), mem);
  (void)interp.run(*r.kernel, cfg);
  EXPECT_NEAR(mem.buffer(C).f32()[0], want, 1e-2);
}

TEST(AutoReduction, MinViaFminfDetected) {
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float m = 3.0e38f;
  #pragma np parallel for
  for (int i = 0; i < n; i++) m = fminf(m, a[i]);
  c[threadIdx.x] = m;
}
)";
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  auto r = apply_np_transform(*p->find_kernel("k"), inter(4, 32), diags);
  bool detected = false;
  for (const auto& n : r.notes)
    if (n.find("auto-detected") != std::string::npos) detected = true;
  EXPECT_TRUE(detected);
}

TEST(AutoReduction, ExplicitSelfAddFormDetected) {
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float s = 0.0f;
  #pragma np parallel for
  for (int i = 0; i < n; i++) s = s + a[i];
  c[threadIdx.x] = s;
}
)";
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  auto r = apply_np_transform(*p->find_kernel("k"), inter(4, 32), diags);
  bool detected = false;
  for (const auto& n : r.notes)
    if (n.find("auto-detected") != std::string::npos) detected = true;
  EXPECT_TRUE(detected);
}

TEST(AutoReduction, MixedOpsNotDetected) {
  // `s += ...` then `s *= ...` is not an associative reduction: falls
  // back to the select transformation (with its warning).
  const char* src = R"(
__global__ void k(float* a, float* c, int n) {
  float s = 1.0f;
  #pragma np parallel for
  for (int i = 0; i < n; i++) {
    s += a[i];
    s *= 2.0f;
  }
  c[threadIdx.x] = s;
}
)";
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  auto r = apply_np_transform(*p->find_kernel("k"), inter(4, 32), diags);
  bool detected = false;
  for (const auto& n : r.notes)
    if (n.find("auto-detected") != std::string::npos) detected = true;
  EXPECT_FALSE(detected);
  bool warned = false;
  for (const auto& d : diags.all())
    if (d.severity == Severity::kWarning) warned = true;
  EXPECT_TRUE(warned);
}

TEST(AutoReduction, VarReadElsewhereNotDetected) {
  // The running value is *observed* inside the loop (b[i] = s): a
  // parallel reduction would change the stored values, so detection
  // must refuse (this is a scan, not a reduction).
  const char* src = R"(
__global__ void k(float* a, float* b, float* c, int n) {
  float s = 0.0f;
  #pragma np parallel for
  for (int i = 0; i < n; i++) {
    s += a[i];
    b[i] = s;
  }
  c[threadIdx.x] = s;
}
)";
  auto p = cudanp::frontend::parse_program_or_throw(src);
  DiagnosticEngine diags;
  auto r = apply_np_transform(*p->find_kernel("k"), inter(4, 32), diags);
  bool detected = false;
  for (const auto& n : r.notes)
    if (n.find("auto-detected") != std::string::npos) detected = true;
  EXPECT_FALSE(detected);
}

}  // namespace
}  // namespace cudanp::transform
