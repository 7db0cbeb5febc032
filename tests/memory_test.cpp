#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
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

TEST(FreeList, ReleaseRecyclesSameShape) {
  DeviceMemory mem;
  auto a = mem.alloc(ir::ScalarType::kFloat, 100);
  std::uint64_t base = mem.buffer(a).base_addr();
  mem.buffer(a).store(0, Value::of_float(9.0));
  mem.release(a);
  EXPECT_EQ(mem.free_list_bytes(), 400u);
  auto b = mem.alloc(ir::ScalarType::kFloat, 100);
  EXPECT_EQ(b, a);  // same slot, same address, zeroed contents
  EXPECT_EQ(mem.buffer(b).base_addr(), base);
  EXPECT_DOUBLE_EQ(mem.buffer(b).load(0).as_f(), 0.0);
  EXPECT_EQ(mem.free_list_bytes(), 0u);
}

TEST(FreeList, DoubleReleaseThrows) {
  DeviceMemory mem;
  auto a = mem.alloc(ir::ScalarType::kInt, 8);
  mem.release(a);
  EXPECT_THROW(mem.release(a), SimError);
}

TEST(FreeList, RetentionIsBoundedByLimit) {
  DeviceMemory mem;
  mem.set_free_limit_bytes(1024);
  // Heterogeneous shapes so nothing recycles: every release adds to the
  // pool, which must stay under the cap by evicting the oldest.
  for (std::size_t elems = 10; elems < 100; elems += 7) {
    auto id = mem.alloc(ir::ScalarType::kFloat, elems);
    mem.release(id);
    EXPECT_LE(mem.free_list_bytes(), mem.free_limit_bytes());
  }
}

TEST(FreeList, TrimEvictsOldestFirst) {
  DeviceMemory mem;
  mem.set_free_limit_bytes(1000);
  auto old_id = mem.alloc(ir::ScalarType::kFloat, 150);  // 600 B
  auto new_id = mem.alloc(ir::ScalarType::kFloat, 100);  // 400 B
  mem.release(old_id);
  mem.release(new_id);  // 1000 B retained: exactly at the cap
  EXPECT_EQ(mem.free_list_bytes(), 1000u);
  auto third = mem.alloc(ir::ScalarType::kFloat, 50);  // 200 B
  mem.release(third);  // over the cap -> the oldest release is discarded
  EXPECT_TRUE(mem.buffer(old_id).discarded());
  EXPECT_FALSE(mem.buffer(new_id).discarded());
  EXPECT_EQ(mem.free_list_bytes(), 600u);
}

TEST(FreeList, DiscardedSlotIsNeverRecycled) {
  DeviceMemory mem;
  mem.set_free_limit_bytes(0);  // every release discards immediately
  auto a = mem.alloc(ir::ScalarType::kFloat, 64);
  mem.release(a);
  EXPECT_TRUE(mem.buffer(a).discarded());
  EXPECT_EQ(mem.free_list_bytes(), 0u);
  auto b = mem.alloc(ir::ScalarType::kFloat, 64);
  EXPECT_NE(b, a);  // fresh slot; the discarded id stays valid but empty
  EXPECT_THROW(mem.buffer(a).load(0), SimError);
  EXPECT_THROW(mem.release(a), SimError);
}

TEST(FreeList, LoweringLimitTrimsImmediately) {
  DeviceMemory mem;
  auto a = mem.alloc(ir::ScalarType::kInt, 256);  // 1 KiB
  auto b = mem.alloc(ir::ScalarType::kInt, 512);  // 2 KiB
  mem.release(a);
  mem.release(b);
  EXPECT_EQ(mem.free_list_bytes(), 3072u);
  mem.set_free_limit_bytes(2048);
  EXPECT_EQ(mem.free_list_bytes(), 2048u);
  EXPECT_TRUE(mem.buffer(a).discarded());
  EXPECT_FALSE(mem.buffer(b).discarded());
}

TEST(FreeList, ServiceChurnAllocationVolumeStaysBounded) {
  // A long-lived service processing heterogeneous jobs must not retain
  // every buffer shape it has ever seen: with the default cap, total
  // retained bytes stay bounded no matter how many shapes churn through.
  DeviceMemory mem;
  mem.set_free_limit_bytes(16 * 1024);
  std::uint64_t peak = 0;
  for (int job = 0; job < 200; ++job) {
    std::size_t elems = 64 + static_cast<std::size_t>(job) * 13;  // all distinct
    auto id = mem.alloc(ir::ScalarType::kFloat, elems);
    mem.release(id);
    peak = std::max(peak, mem.free_list_bytes());
  }
  EXPECT_LE(peak, 16u * 1024u);
  EXPECT_LE(mem.free_list_bytes(), 16u * 1024u);
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
