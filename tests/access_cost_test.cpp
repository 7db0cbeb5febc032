// Kernel-level checks of the memory cost model: the transactions, bank
// replays and L1 misses a launch reports must equal a brute-force recount
// from each access's index formula with the per-lane models of
// sim/memory.hpp. Full warps of affine indices take the closed forms, and
// golden digests recorded from the same closed forms cannot catch a
// wrong one; this recount can.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "sim/interpreter.hpp"

namespace cudanp::sim {
namespace {

constexpr int kStrides[] = {0, 1, 2, 3, 8, 32, 33, -1};
constexpr int kBlockSizes[] = {32, 48};  // 48 ends in a 16-lane tail warp

/// The kernel's guard: every thread, or the divergent `tid % 3 != 0`.
std::string guard(bool divergent) {
  return divergent ? "if (threadIdx.x % 3 != 0)" : "if (threadIdx.x < 1024)";
}
bool active(int tid, bool divergent) { return !divergent || tid % 3 != 0; }

/// Active lanes of warp w under the guard.
std::uint32_t warp_bits(int w, int block, bool divergent) {
  std::uint32_t bits = 0;
  for (int k = 0; k < 32 && w * 32 + k < block; ++k)
    if (active(w * 32 + k, divergent)) bits |= 1u << k;
  return bits;
}

struct Launch {
  DeviceSpec spec = DeviceSpec::gtx680();
  DeviceMemory mem;
  std::unique_ptr<ir::Program> program;

  KernelStats run(const std::string& src, LaunchConfig cfg) {
    program = frontend::parse_program_or_throw(src);
    Interpreter::Options opt;
    opt.jobs = 1;
    Interpreter interp(spec, mem, opt);
    return interp.run(*program->find_kernel("k"), cfg, 1);
  }
};

std::string label(int s, int block, bool divergent) {
  return "stride " + std::to_string(s) + " block " + std::to_string(block) +
         (divergent ? " divergent" : "");
}

TEST(AccessCost, GlobalStridesMatchTheCoalescer) {
  const int i0 = 64;  // keeps stride -1 in bounds
  for (int s : kStrides)
    for (int block : kBlockSizes)
      for (bool divergent : {false, true}) {
        SCOPED_TRACE(label(s, block, divergent));
        Launch l;
        const BufferId a = l.mem.alloc(ir::ScalarType::kFloat, 2048);
        const BufferId b = l.mem.alloc(ir::ScalarType::kFloat, 2048);
        const BufferId c = l.mem.alloc(ir::ScalarType::kInt, 2048);
        auto in = l.mem.buffer(a).f32();
        for (std::size_t i = 0; i < in.size(); ++i)
          in[i] = static_cast<float>(i % 97);
        const KernelStats st = l.run(
            "__global__ void k(float* a, float* b, int* c, int i0, int s) "
            "{\n"
            "  int tid = threadIdx.x;\n  " +
                guard(divergent) +
                " {\n"
                "    b[i0 + s * tid] = a[i0 + s * tid] + 1.0f;\n"
                "    c[i0 + s * tid] = tid;\n"
                "  }\n}\n",
            {.grid = {1, 1, 1},
             .block = {block, 1, 1},
             .args = {a, b, c, LaunchConfig::scalar_int(i0),
                      LaunchConfig::scalar_int(s)}});

        std::int64_t want = 0;
        for (int w = 0; w * 32 < block; ++w) {
          const std::uint32_t bits = warp_bits(w, block, divergent);
          if (!bits) continue;
          for (BufferId buf : {a, b, c}) {
            std::array<std::uint64_t, 32> addrs{};
            for (int k = 0; k < 32; ++k)
              addrs[static_cast<std::size_t>(k)] =
                  l.mem.buffer(buf).base_addr() +
                  static_cast<std::uint64_t>(i0 + s * (w * 32 + k)) * 4;
            want += coalesced_transactions(addrs, bits, 32);
          }
        }
        EXPECT_EQ(st.global_transactions, want);
        EXPECT_EQ(st.dram_transactions, want);
        // Lockstep semantics: active lanes store in lane order, so on a
        // shared element the last lane's value sticks.
        std::vector<std::int32_t> want_c(2048, 0);
        for (int tid = 0; tid < block; ++tid)
          if (active(tid, divergent))
            want_c[static_cast<std::size_t>(i0 + s * tid)] = tid;
        const auto out = l.mem.buffer(b).f32();
        const auto got_c = l.mem.buffer(c).i32();
        for (int tid = 0; tid < block; ++tid) {
          if (!active(tid, divergent)) continue;
          const auto i = static_cast<std::size_t>(i0 + s * tid);
          EXPECT_EQ(out[i], in[i] + 1.0f) << "tid " << tid;
          EXPECT_EQ(got_c[i], want_c[i]) << "tid " << tid;
        }
      }
}

TEST(AccessCost, SharedStridesMatchTheBankModel) {
  const int base = 64;  // keeps stride -1 in bounds
  for (int s : kStrides)
    for (int block : kBlockSizes)
      for (bool divergent : {false, true}) {
        SCOPED_TRACE(label(s, block, divergent));
        Launch l;
        const BufferId out = l.mem.alloc(ir::ScalarType::kInt, 64);
        const KernelStats st = l.run(
            "__global__ void k(int* out, int s) {\n"
            "  __shared__ int sm[2048];\n  " +
                guard(divergent) +
                " {\n"
                "    sm[64 + s * threadIdx.x] = threadIdx.x;\n"
                "    out[threadIdx.x] = sm[64 + s * threadIdx.x];\n"
                "  }\n}\n",
            {.grid = {1, 1, 1},
             .block = {block, 1, 1},
             .args = {out, LaunchConfig::scalar_int(s)}});

        // One store and one load per warp, on the same words.
        std::int64_t replays = 0, extra = 0;
        for (int w = 0; w * 32 < block; ++w) {
          const std::uint32_t bits = warp_bits(w, block, divergent);
          if (!bits) continue;
          std::array<std::uint64_t, 32> words{};
          for (int k = 0; k < 32; ++k)
            words[static_cast<std::size_t>(k)] =
                static_cast<std::uint64_t>(base + s * (w * 32 + k));
          const int r = smem_replays(words, bits, 32);
          replays += 2 * r;
          extra += 2 * (r - 1);
        }
        EXPECT_EQ(st.smem_accesses, replays);
        EXPECT_EQ(st.smem_replays, extra);

        // Lockstep semantics: every active lane stores in lane order,
        // then every active lane loads.
        std::vector<int> sm(2048, 0);
        for (int tid = 0; tid < block; ++tid)
          if (active(tid, divergent))
            sm[static_cast<std::size_t>(base + s * tid)] = tid;
        const auto got = l.mem.buffer(out).i32();
        for (int tid = 0; tid < block; ++tid)
          if (active(tid, divergent))
            EXPECT_EQ(got[static_cast<std::size_t>(tid)],
                      sm[static_cast<std::size_t>(base + s * tid)])
                << "tid " << tid;
      }
}

TEST(AccessCost, LocalUniformIndexMatchesTheLineLoop) {
  // Local arrays are interleaved per thread at 2^40 + (e * nlanes + lane)
  // * 4 bytes (BlockCore::charge_local); t is the block's only array.
  const std::uint64_t local_base = std::uint64_t{1} << 40;
  for (int e : {0, 5})
    for (int block : kBlockSizes)
      for (bool divergent : {false, true}) {
        SCOPED_TRACE(label(e, block, divergent));
        Launch l;
        const BufferId out = l.mem.alloc(ir::ScalarType::kInt, 64);
        const KernelStats st = l.run(
            "__global__ void k(int* out, int e) {\n"
            "  int t[8];\n"
            "  for (int j = 0; j < 8; j++) t[j] = threadIdx.x + j;\n  " +
                guard(divergent) +
                " {\n"
                "    out[threadIdx.x] = t[e];\n"
                "  }\n}\n",
            {.grid = {1, 1, 1},
             .block = {block, 1, 1},
             .args = {out, LaunchConfig::scalar_int(e)}});

        L1Cache l1(l.spec.l1_cache_bytes, l.spec.l1_line_bytes);
        std::int64_t lines_total = 0, misses = 0;
        auto access = [&](int elem, bool guarded) {
          for (int w = 0; w * 32 < block; ++w) {
            const std::uint32_t bits = warp_bits(w, block, guarded);
            if (!bits) continue;
            std::array<std::uint64_t, 32> addrs{};
            for (int k = 0; k < 32; ++k)
              addrs[static_cast<std::size_t>(k)] =
                  local_base +
                  static_cast<std::uint64_t>(elem * block + w * 32 + k) * 4;
            std::uint64_t lines[32];
            const int n = warp_lines(addrs, bits, 128, lines);
            lines_total += n;
            for (int j = 0; j < n; ++j)
              if (!l1.access(lines[j] * 128)) ++misses;
          }
        };
        for (int j = 0; j < 8; ++j) access(j, false);
        access(e, divergent);
        EXPECT_GT(lines_total, 0);
        EXPECT_EQ(st.local_transactions, lines_total);
        EXPECT_EQ(st.local_l1_misses, misses);
        const auto got = l.mem.buffer(out).i32();
        for (int tid = 0; tid < block; ++tid)
          if (active(tid, divergent))
            EXPECT_EQ(got[static_cast<std::size_t>(tid)], tid + e);
      }
}

TEST(AccessCost, LastLaneOutOfBoundsLoadKeepsItsError) {
  // Lanes run 2 + 2 * tid: a progression whose last lane reads index 64
  // of a 64-element buffer, so the warp leaves the whole-warp path.
  Launch l;
  const BufferId a = l.mem.alloc(ir::ScalarType::kFloat, 64);
  const BufferId b = l.mem.alloc(ir::ScalarType::kFloat, 32);
  try {
    (void)l.run(
        "__global__ void k(float* a, float* b) {\n"
        "  b[threadIdx.x] = a[2 + 2 * threadIdx.x];\n}\n",
        {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {a, b}});
    ADD_FAILURE() << "expected an out-of-bounds SimError";
  } catch (const SimError& err) {
    EXPECT_STREQ(err.what(),
                 "out-of-bounds access to 'a[64]' (size 64) at 2:20");
  }
  // The lanes before the faulting one were not stored: the load threw
  // before the store statement ran.
  EXPECT_EQ(l.mem.buffer(b).f32()[0], 0.0f);
}

TEST(AccessCost, FirstOutOfRangeLaneNamesTheArrayIndex) {
  // Past the end from lane 22 (index 66), and below zero on lanes 0-4
  // (index -5 first): the error names the first failing lane's index.
  const std::pair<const char*, const char*> cases[] = {
      {"3 * threadIdx.x",
       "index 66 out of bounds [0,64) for array 'sm' at 3:22"},
      {"threadIdx.x - 5",
       "index -5 out of bounds [0,64) for array 'sm' at 3:22"},
  };
  for (const auto& [index, error] : cases) {
    Launch l;
    const BufferId out = l.mem.alloc(ir::ScalarType::kInt, 32);
    try {
      (void)l.run(std::string("__global__ void k(int* out) {\n"
                              "  __shared__ int sm[64];\n"
                              "  out[threadIdx.x] = sm[") +
                      index + "];\n}\n",
                  {.grid = {1, 1, 1}, .block = {32, 1, 1}, .args = {out}});
      ADD_FAILURE() << "expected an out-of-bounds SimError";
    } catch (const SimError& err) {
      EXPECT_STREQ(err.what(), error);
    }
  }
}

}  // namespace
}  // namespace cudanp::sim
