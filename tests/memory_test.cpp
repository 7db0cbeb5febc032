#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "sim/memory.hpp"

namespace cudanp::sim {
namespace {

constexpr std::uint32_t kAllActive = ~0u;

TEST(DeviceMemory, AllocatesAlignedNonOverlapping) {
  DeviceMemory mem;
  auto a = mem.alloc(ir::ScalarType::kFloat, 10);
  auto b = mem.alloc(ir::ScalarType::kFloat, 10);
  EXPECT_EQ(mem.buffer(a).base_addr() % 256, 0u);
  EXPECT_EQ(mem.buffer(b).base_addr() % 256, 0u);
  EXPECT_GE(mem.buffer(b).base_addr(),
            mem.buffer(a).base_addr() + 40);
}

TEST(DeviceMemory, LoadStoreRoundTrip) {
  DeviceMemory mem;
  auto f = mem.alloc(ir::ScalarType::kFloat, 4);
  auto i = mem.alloc(ir::ScalarType::kInt, 4);
  mem.buffer(f).store(2, Value::of_float(1.5));
  mem.buffer(i).store(3, Value::of_int(-7));
  EXPECT_DOUBLE_EQ(mem.buffer(f).load(2).as_f(), 1.5);
  EXPECT_EQ(mem.buffer(i).load(3).as_i(), -7);
}

TEST(DeviceMemory, StoreCoercesToElementType) {
  DeviceMemory mem;
  auto i = mem.alloc(ir::ScalarType::kInt, 1);
  mem.buffer(i).store(0, Value::of_float(3.9));
  EXPECT_EQ(mem.buffer(i).load(0).as_i(), 3);
}

TEST(DeviceMemory, OutOfBoundsThrows) {
  DeviceMemory mem;
  auto f = mem.alloc(ir::ScalarType::kFloat, 4);
  EXPECT_THROW(mem.buffer(f).load(4), SimError);
  EXPECT_THROW(mem.buffer(f).store(100, Value::of_float(0)), SimError);
  EXPECT_THROW(mem.buffer(99), SimError);
}

TEST(Coalescing, FullyCoalescedWarp) {
  // 32 lanes x consecutive 4B words = 128 B = four 32 B transactions.
  std::array<std::uint64_t, 32> addrs;
  for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = 1024 + 4 * static_cast<std::uint64_t>(l);
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(coalesced_transactions(addrs, act, 32), 4);
  EXPECT_EQ(coalesced_transactions(addrs, act, 128), 1);
}

TEST(Coalescing, BroadcastIsOneTransaction) {
  std::array<std::uint64_t, 32> addrs;
  addrs.fill(4096);
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(coalesced_transactions(addrs, act, 32), 1);
}

TEST(Coalescing, FullyScattered) {
  std::array<std::uint64_t, 32> addrs;
  for (int l = 0; l < 32; ++l)
    addrs[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(l) * 8192;
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(coalesced_transactions(addrs, act, 32), 32);
}

TEST(Coalescing, InactiveLanesIgnored) {
  std::array<std::uint64_t, 32> addrs;
  for (int l = 0; l < 32; ++l)
    addrs[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(l) * 8192;
  const std::uint32_t act = 1u << 3;
  EXPECT_EQ(coalesced_transactions(addrs, act, 32), 1);
  const std::uint32_t none = 0;
  EXPECT_EQ(coalesced_transactions(addrs, none, 32), 0);
}

TEST(Coalescing, StridedAccessScalesWithStride) {
  // Stride-2 floats: touches twice the segments of stride-1.
  const std::uint32_t act = kAllActive;
  std::array<std::uint64_t, 32> s1, s2;
  for (int l = 0; l < 32; ++l) {
    s1[static_cast<std::size_t>(l)] = 4 * static_cast<std::uint64_t>(l);
    s2[static_cast<std::size_t>(l)] = 8 * static_cast<std::uint64_t>(l);
  }
  EXPECT_EQ(coalesced_transactions(s2, act, 32),
            2 * coalesced_transactions(s1, act, 32));
}

TEST(BankConflicts, ConflictFreeUnitStride) {
  std::array<std::uint64_t, 32> words;
  std::iota(words.begin(), words.end(), 0);
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(smem_replays(words, act, 32), 1);
}

TEST(BankConflicts, BroadcastSameWordIsFree) {
  std::array<std::uint64_t, 32> words;
  words.fill(17);
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(smem_replays(words, act, 32), 1);
}

TEST(BankConflicts, TwoWayConflictStride2) {
  // Stride 2 over 32 banks: two lanes per bank -> 2 replays.
  std::array<std::uint64_t, 32> words;
  for (int l = 0; l < 32; ++l)
    words[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(l) * 2;
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(smem_replays(words, act, 32), 2);
}

TEST(BankConflicts, SixteenWayConflictStride16) {
  // Stride 16: lanes alternate between banks 0 and 16, with 16 distinct
  // words on each -> 16 replays.
  std::array<std::uint64_t, 32> words;
  for (int l = 0; l < 32; ++l)
    words[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(l) * 16;
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(smem_replays(words, act, 32), 16);
}

TEST(BankConflicts, WorstCaseStride32) {
  std::array<std::uint64_t, 32> words;
  for (int l = 0; l < 32; ++l)
    words[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(l) * 32;
  const std::uint32_t act = kAllActive;
  EXPECT_EQ(smem_replays(words, act, 32), 32);
}

TEST(BankConflicts, MinimumOneEvenWhenIdle) {
  std::array<std::uint64_t, 32> words{};
  const std::uint32_t none = 0;
  EXPECT_EQ(smem_replays(words, none, 32), 1);
}

/// The bank model by definition: per bank, the number of distinct words
/// the active lanes request; the access replays max-over-banks times.
int brute_force_replays(const std::array<std::uint64_t, 32>& words,
                        std::uint32_t active, int banks) {
  int worst = 1;
  for (int b = 0; b < banks; ++b) {
    std::vector<std::uint64_t> distinct;
    for (int l = 0; l < 32; ++l) {
      if (!((active >> l) & 1u)) continue;
      const std::uint64_t w = words[static_cast<std::size_t>(l)];
      if (static_cast<int>(w % static_cast<std::uint64_t>(banks)) != b)
        continue;
      if (std::find(distinct.begin(), distinct.end(), w) == distinct.end())
        distinct.push_back(w);
    }
    worst = std::max(worst, static_cast<int>(distinct.size()));
  }
  return worst;
}

TEST(BankConflicts, MatchesBruteForceOnRandomAccesses) {
  // Mixes conflict-free and conflicting accesses: small word ranges make
  // repeated, non-adjacent words (broadcasts) common; banks = 1 is the
  // constant cache, where any two distinct words serialize.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int fast = 0;
  for (int banks : {1, 2, 16, 32, 48, 64, 96}) {
    for (int trial = 0; trial < 400; ++trial) {
      SCOPED_TRACE("banks " + std::to_string(banks) + " trial " +
                   std::to_string(trial));
      std::array<std::uint64_t, 32> words{};
      const std::uint64_t range = 1 + next() % 96;
      const std::uint64_t base = next() % 4096;
      const int shape = trial % 4;
      for (int l = 0; l < 32; ++l) {
        auto& w = words[static_cast<std::size_t>(l)];
        if (shape == 0)
          w = base + static_cast<std::uint64_t>(l);  // unit stride
        else if (shape == 1)
          w = base + next() % range;  // random, many repeats
        else if (shape == 2)
          w = base + static_cast<std::uint64_t>(l % 3) * 64;  // repeats
        else
          w = base + (static_cast<std::uint64_t>(l) * (1 + next() % 5)) %
                         range;
      }
      std::uint32_t active = static_cast<std::uint32_t>(next());
      if (trial % 5 == 0) active = kAllActive;
      const int want = brute_force_replays(words, active, banks);
      EXPECT_EQ(smem_replays(words, active, banks), want);
      fast += want == 1;
    }
  }
  EXPECT_GT(fast, 100);  // the conflict-free path is exercised
}

// ---------------- closed forms for affine warps ----------------

/// Lane addresses first + k * stride, wrapping like the simulator's
/// unsigned address arithmetic.
std::array<std::uint64_t, 32> affine_addrs(AffineWarp a) {
  std::array<std::uint64_t, 32> addrs{};
  for (std::size_t k = 0; k < 32; ++k)
    addrs[k] = a.first + k * static_cast<std::uint64_t>(a.stride);
  return addrs;
}

/// True when every lane's exact address lies in [0, 2^62), the range the
/// closed forms accept.
bool in_affine_range(AffineWarp a) {
  const std::int64_t limit = std::int64_t{1} << 62;
  if (a.first >= static_cast<std::uint64_t>(limit)) return false;
  const std::int64_t last = static_cast<std::int64_t>(a.first) + 31 * a.stride;
  return last >= 0 && last < limit;
}

std::uint64_t affine_rng_state = 0x2545F4914F6CDD1Dull;
std::uint64_t affine_rng() {
  affine_rng_state ^= affine_rng_state << 13;
  affine_rng_state ^= affine_rng_state >> 7;
  affine_rng_state ^= affine_rng_state << 17;
  return affine_rng_state;
}

/// The strides the property tests sweep: the structured ones of the
/// paper's access patterns plus a few random ones.
std::vector<std::int64_t> affine_strides() {
  std::vector<std::int64_t> d = {0};
  for (std::int64_t s : {1, 2, 3, 7, 8, 16, 31, 32, 33, 64}) {
    d.push_back(s);
    d.push_back(-s);
  }
  for (int i = 0; i < 6; ++i)
    d.push_back(static_cast<std::int64_t>(affine_rng() % 2001) - 1000);
  return d;
}

/// Warp starts near 0 (where negative strides wrap) and near 2^40 (the
/// simulator's local-memory space).
std::vector<std::uint64_t> affine_starts() {
  std::vector<std::uint64_t> starts;
  for (int i = 0; i < 4; ++i) {
    starts.push_back(affine_rng() % 300);
    starts.push_back((std::uint64_t{1} << 40) + affine_rng() % 4096 - 2048);
  }
  return starts;
}

TEST(AffineWarps, DetectsProgressionsAndDeclinesPartialMasks) {
  for (std::int64_t d : affine_strides()) {
    for (std::uint64_t first : affine_starts()) {
      std::int64_t v[32];
      for (int k = 0; k < 32; ++k)
        v[k] = static_cast<std::int64_t>(first) + k * d;
      const std::optional<AffineWarp> run = affine_lanes(v, kAllActive);
      ASSERT_TRUE(run) << d;
      EXPECT_EQ(run->first, first);
      EXPECT_EQ(run->stride, d);
      EXPECT_FALSE(affine_lanes(v, kAllActive >> 1));
      EXPECT_FALSE(affine_lanes(v, kAllActive & ~(1u << 7)));
      const int lane = 1 + static_cast<int>(affine_rng() % 31);
      v[lane] += 1 + static_cast<std::int64_t>(affine_rng() % 5);
      EXPECT_FALSE(affine_lanes(v, kAllActive)) << d << " " << lane;
    }
  }
  // A progression that wraps modulo 2^64 is still a progression; the
  // cost closed forms decline its addresses.
  std::int64_t v[32];
  for (std::uint64_t k = 0; k < 32; ++k)
    v[k] = static_cast<std::int64_t>(k << 62);
  const std::optional<AffineWarp> run = affine_lanes(v, kAllActive);
  ASSERT_TRUE(run);
  EXPECT_EQ(affine_transactions(*run, 32), 0);
  EXPECT_EQ(affine_replays(*run, 32), 0);
}

TEST(AffineWarps, TransactionsMatchTheCoalescer) {
  int accepted = 0;
  for (int seg : {32, 128})
    for (std::int64_t esize : {1, 4, 8})
      for (std::int64_t d : affine_strides())
        for (std::uint64_t first : affine_starts()) {
          const AffineWarp a{first, d * esize};
          const auto addrs = affine_addrs(a);
          const int got = affine_transactions(a, seg);
          SCOPED_TRACE("seg " + std::to_string(seg) + " stride " +
                       std::to_string(a.stride) + " first " +
                       std::to_string(first));
          if (!in_affine_range(a)) {
            EXPECT_EQ(got, 0);  // wrapping addresses decline
            continue;
          }
          EXPECT_EQ(got, coalesced_transactions(addrs, kAllActive, seg));
          ++accepted;
        }
  EXPECT_GT(accepted, 500);
  EXPECT_EQ(affine_transactions({0, 4}, 48), 0);  // not a power of two
  EXPECT_EQ(affine_transactions({~0ull - 64, 4}, 32), 0);  // huge
}

TEST(AffineWarps, ReplaysMatchTheBankModel) {
  int accepted = 0;
  for (int banks : {32, 16, 1})
    for (std::int64_t d : affine_strides())
      for (std::uint64_t first : affine_starts()) {
        const AffineWarp a{first, d};
        const int got = affine_replays(a, banks);
        SCOPED_TRACE("banks " + std::to_string(banks) + " stride " +
                     std::to_string(d) + " first " + std::to_string(first));
        if (!in_affine_range(a)) {
          EXPECT_EQ(got, 0);
          continue;
        }
        EXPECT_EQ(got, smem_replays(affine_addrs(a), kAllActive, banks));
        ++accepted;
      }
  EXPECT_GT(accepted, 200);
  EXPECT_EQ(affine_replays({0, 1}, 48), 0);  // not a power of two
}

TEST(AffineWarps, LinesMatchTheLocalLineLoop) {
  int accepted = 0;
  for (std::int64_t word_stride : {0, 1, 2, 3, 8, 31, 32, 33, 48, -1})
    for (std::uint64_t first : affine_starts()) {
      const AffineWarp a{first * 4, word_stride * 4};
      std::uint64_t want[32];
      const int n = warp_lines(affine_addrs(a), kAllActive, 128, want);
      std::uint64_t first_line = 0;
      const int got = affine_lines(a, 128, &first_line);
      SCOPED_TRACE("stride " + std::to_string(a.stride) + " first " +
                   std::to_string(a.first));
      if (a.stride < 0 || a.stride > 128 || !in_affine_range(a)) {
        EXPECT_EQ(got, 0);  // descending, gapped or wrapping runs decline
        continue;
      }
      ASSERT_EQ(got, n);
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(want[j], first_line + static_cast<std::uint64_t>(j));
      ++accepted;
    }
  EXPECT_GT(accepted, 40);
}

TEST(AffineWarps, WarpLinesKeepFirstTouchOrder) {
  std::array<std::uint64_t, 32> addrs{};
  for (std::size_t k = 0; k < 32; ++k) addrs[k] = (31 - k % 4) * 128 + k;
  std::uint64_t lines[32];
  ASSERT_EQ(warp_lines(addrs, kAllActive, 128, lines), 4);
  EXPECT_EQ(lines[0], 31u);
  EXPECT_EQ(lines[3], 28u);
  EXPECT_EQ(warp_lines(addrs, 0x2u, 128, lines), 1);
  EXPECT_EQ(lines[0], 30u);
}

TEST(L1Cache, HitAfterMiss) {
  L1Cache c(1024, 128);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(64));  // same line
  EXPECT_FALSE(c.access(128));
}

TEST(L1Cache, LruEviction) {
  // 2 sets x 4 ways x 128 B lines = 1 KB. Fill one set beyond its ways.
  L1Cache c(1024, 128, 4);
  // Addresses mapping to set 0: line % 2 == 0 -> addr multiples of 256.
  for (int i = 0; i < 4; ++i)
    EXPECT_FALSE(c.access(static_cast<std::uint64_t>(i) * 256));
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(c.access(static_cast<std::uint64_t>(i) * 256));
  EXPECT_FALSE(c.access(4 * 256));  // evicts LRU (line 0)
  EXPECT_FALSE(c.access(0));        // line 0 gone
}

TEST(L1Cache, ZeroCapacityAlwaysMisses) {
  L1Cache c(0, 128);
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(0));
}

TEST(L1Cache, ResetClears) {
  L1Cache c(1024, 128);
  (void)c.access(0);
  c.reset();
  EXPECT_FALSE(c.access(0));
}

TEST(L1Cache, WorkingSetSmallerThanCapacityAllHits) {
  L1Cache c(16 * 1024, 128, 4);
  for (int rep = 0; rep < 3; ++rep) {
    int misses = 0;
    for (std::uint64_t a = 0; a < 8 * 1024; a += 128)
      if (!c.access(a)) ++misses;
    if (rep > 0) EXPECT_EQ(misses, 0);
  }
}

TEST(DeviceBuffer, ConstantFlag) {
  DeviceMemory mem;
  auto b = mem.alloc(ir::ScalarType::kFloat, 8);
  EXPECT_FALSE(mem.buffer(b).is_constant());
  mem.buffer(b).set_constant(true);
  EXPECT_TRUE(mem.buffer(b).is_constant());
}

}  // namespace
}  // namespace cudanp::sim
