// Device memory: global buffers, the coalescing model, shared-memory bank
// conflicts, and the L1 model used for local-memory traffic.
//
// These three models are the levers CUDA-NP pulls (paper Secs. 3.3/3.4):
//   - inter-warp NP keeps the baseline's coalesced global access pattern,
//     intra-warp NP can break it -> the coalescer counts 128 B segments
//     actually touched by each warp access;
//   - shfl-based reduction avoids shared memory; when shared memory is
//     used, the 32-bank conflict model charges replays;
//   - local arrays (spilled per-thread arrays) go through a small L1; when
//     the resident working set exceeds the L1 share, misses turn into DRAM
//     traffic, which is exactly why Table 1's LM column matters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/type.hpp"
#include "sim/device.hpp"
#include "sim/value.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim {

using BufferId = std::uint32_t;

/// A typed global-memory allocation.
class DeviceBuffer {
 public:
  DeviceBuffer(ir::ScalarType type, std::size_t elems, std::uint64_t base)
      : type_(type), base_addr_(base) {
    if (type == ir::ScalarType::kFloat)
      f32_.assign(elems, 0.0f);
    else
      i32_.assign(elems, 0);
  }

  [[nodiscard]] ir::ScalarType type() const { return type_; }
  [[nodiscard]] std::size_t size() const {
    return type_ == ir::ScalarType::kFloat ? f32_.size() : i32_.size();
  }
  [[nodiscard]] std::uint64_t base_addr() const { return base_addr_; }

  [[nodiscard]] Value load(std::size_t idx) const {
    if (idx >= size()) out_of_bounds(idx);
    if (type_ == ir::ScalarType::kFloat)
      return Value::of_float(static_cast<double>(f32_[idx]));
    return Value::of_int(i32_[idx]);
  }
  void store(std::size_t idx, Value v) {
    if (idx >= size()) out_of_bounds(idx);
    if (type_ == ir::ScalarType::kFloat)
      f32_[idx] = static_cast<float>(v.as_f());
    else
      i32_[idx] = static_cast<std::int32_t>(v.as_i());
  }

  /// Marks this buffer as living in constant memory: warp reads use the
  /// broadcast path instead of the coalescer (paper Sec. 3.4's fourth
  /// intra-warp-NP hazard).
  void set_constant(bool c) { constant_ = c; }
  [[nodiscard]] bool is_constant() const { return constant_; }

  /// Calls fn with the element array (float* or std::int32_t*).
  template <class Fn>
  void with_data(Fn&& fn) {
    if (type_ == ir::ScalarType::kFloat)
      fn(f32_.data());
    else
      fn(i32_.data());
  }

  [[nodiscard]] std::span<float> f32() { return f32_; }
  [[nodiscard]] std::span<const float> f32() const { return f32_; }
  [[nodiscard]] std::span<std::int32_t> i32() { return i32_; }
  [[nodiscard]] std::span<const std::int32_t> i32() const { return i32_; }

 private:
  [[noreturn]] void out_of_bounds(std::size_t idx) const;

  ir::ScalarType type_;
  std::uint64_t base_addr_;
  bool constant_ = false;
  std::vector<float> f32_;
  std::vector<std::int32_t> i32_;
};

/// Registry of global-memory allocations; assigns non-overlapping virtual
/// addresses (256-byte aligned like cudaMalloc) so the coalescer can reason
/// about real byte addresses.
class DeviceMemory {
 public:
  /// Allocates a zero-filled buffer at the next 256-byte aligned address.
  BufferId alloc(ir::ScalarType type, std::size_t elems);
  [[nodiscard]] DeviceBuffer& buffer(BufferId id);
  [[nodiscard]] const DeviceBuffer& buffer(BufferId id) const;
  [[nodiscard]] std::size_t buffer_count() const { return buffers_.size(); }
  /// High-water mark of allocated bytes (for reporting).
  [[nodiscard]] std::uint64_t allocated_bytes() const { return next_addr_; }

 private:
  std::vector<DeviceBuffer> buffers_;
  std::uint64_t next_addr_ = 0;
};

/// Counts the segments touched by one warp-wide access. `addrs` holds one
/// address per lane of the warp (at most 32); bit k of `active` marks
/// lane k active, and inactive lanes' entries are never read. A fully
/// coalesced 4-byte access by 32 lanes touches one 128-byte segment; a
/// fully scattered one touches 32.
[[nodiscard]] int coalesced_transactions(std::span<const std::uint64_t> addrs,
                                         std::uint32_t active,
                                         int segment_bytes = 128);

/// Shared-memory conflict model: returns the number of serialized passes
/// (>= 1) for one warp-wide access to 4-byte words, with broadcast
/// detection (lanes reading the same word do not conflict). Lanes are
/// given as for coalesced_transactions.
[[nodiscard]] int smem_replays(std::span<const std::uint64_t> word_addrs,
                               std::uint32_t active, int banks = 32);

/// Writes the distinct `line_bytes` lines that one warp-wide access
/// touches to `lines` (room for 32), in the order lanes first touch them;
/// returns how many. Lanes are given as for coalesced_transactions.
int warp_lines(std::span<const std::uint64_t> addrs, std::uint32_t active,
               int line_bytes, std::uint64_t* lines);

// ---------------------------------------------------------------------
// Closed forms for affine warps. When all 32 lanes of a warp access
// first + k * stride (lane k), the per-lane models above reduce to O(1)
// arithmetic. Each closed form equals its per-lane model on the same 32
// addresses, and returns 0 to decline: when an address would leave
// [0, 2^62) (negative, wrapping or huge addresses) or a size is not a
// power of two. Callers then run the per-lane model.

/// One full warp's lane values first + k * stride (lane k, modulo 2^64):
/// its indices, or its addresses in the units of the model that takes
/// them (bytes, or words for bank replays).
struct AffineWarp {
  std::uint64_t first = 0;
  std::int64_t stride = 0;

  /// The values base + v * scale (modulo 2^64), e.g. an index
  /// progression's addresses.
  [[nodiscard]] AffineWarp scaled(std::uint64_t base,
                                  std::uint64_t scale) const {
    return {base + first * scale,
            static_cast<std::int64_t>(static_cast<std::uint64_t>(stride) *
                                      scale)};
  }
};

/// The 32 lane values `v` as a progression, when all 32 lanes are active
/// and v[k] - v[k-1] (modulo 2^64) is the same for every k.
[[nodiscard]] std::optional<AffineWarp> affine_lanes(const std::int64_t* v,
                                                     std::uint32_t active);

/// coalesced_transactions of an affine warp: 1 for a broadcast, 32 when
/// |stride| reaches a segment, otherwise the segments between the lowest
/// and the highest address.
[[nodiscard]] int affine_transactions(AffineWarp a, int segment_bytes);

/// smem_replays of an affine warp: 1 for a broadcast, otherwise 32 lanes
/// over banks / gcd(|stride|, banks) banks, i.e. max(1, 32 * gcd / banks)
/// (gcd(|stride|, 32) for 32 banks).
[[nodiscard]] int affine_replays(AffineWarp a, int banks);

/// warp_lines of an affine warp whose lines form one ascending run
/// (0 <= stride <= line_bytes): stores the lowest line in `*first_line`
/// and returns the number of lines. A descending or gapped run declines.
/// charge_local calls it only for a uniform element index, whose lanes
/// read consecutive words (stride 4): over a full warp (nlanes >= 32),
/// any other index progression descends or moves more than a line per
/// lane.
[[nodiscard]] int affine_lines(AffineWarp a, int line_bytes,
                               std::uint64_t* first_line);

/// Tiny set-associative cache used to model per-SMX L1 behaviour for
/// local-memory traffic. Capacity is divided by the number of resident
/// blocks to approximate inter-block contention on a real SMX.
class L1Cache {
 public:
  /// `capacity_bytes` <= 0 disables the cache (every access misses).
  L1Cache(std::int64_t capacity_bytes, int line_bytes, int ways = 4);

  /// Returns true on hit; misses allocate.
  bool access(std::uint64_t addr);
  void reset();
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

 private:
  std::int64_t capacity_;
  int line_bytes_;
  int ways_;
  std::size_t num_sets_;
  // tags_[set * ways + way]; 0 = invalid (tags are line addrs + 1).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> lru_;  // last-use stamps
  std::uint32_t clock_ = 0;
};

}  // namespace cudanp::sim
