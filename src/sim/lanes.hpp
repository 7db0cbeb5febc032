// The lane model of one thread block, shared by the bytecode VM
// (sim/exec_core.hpp) and the symbolic executor (sim/symexec.hpp).
//
// A block of n threads runs as lanes 0..n-1, threadIdx.x fastest, in
// warps of DeviceSpec::warp_size lanes; the last warp of a block whose
// size is no warp multiple is partial. Everything the two engines must
// agree on about lanes is defined here once: the launch checks, active
// masks and the order lanes are visited in, the geometry values, the
// __syncthreads arrival rule, the __shfl rules (the sm_30 gate, the
// width check and the source-lane choice) and the region stack that runs
// every control op. A certificate is therefore a statement about the
// program the VM runs, on the same device model.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/binder.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim::exec {

/// Active lanes, one word per warp: bit k of word w is lane
/// w * warp_size + k.
using Mask = std::vector<std::uint32_t>;

[[nodiscard]] inline bool any(const Mask& m) {
  for (auto w : m)
    if (w) return true;
  return false;
}

/// m &= ~off; true if any lane of m is left.
inline bool clear_lanes(Mask& m, const Mask& off) {
  std::uint32_t left = 0;
  for (std::size_t w = 0; w < m.size(); ++w) left |= m[w] &= ~off[w];
  return left != 0;
}

/// m |= on.
inline void add_lanes(Mask& m, const Mask& on) {
  for (std::size_t w = 0; w < m.size(); ++w) m[w] |= on[w];
}

/// The grid and block checks of a launch (sim::validate_launch):
/// positive dimensions, at most spec.max_threads_per_block threads.
inline void check_launch_shape(const DeviceSpec& spec, Dim3 grid,
                               Dim3 block) {
  auto bad_dim = [](const char* what, const Dim3& d) {
    return SimError(std::string("invalid launch: ") + what + " dimensions (" +
                    std::to_string(d.x) + "," + std::to_string(d.y) + "," +
                    std::to_string(d.z) + ") must all be positive");
  };
  if (grid.x <= 0 || grid.y <= 0 || grid.z <= 0) throw bad_dim("grid", grid);
  if (block.x <= 0 || block.y <= 0 || block.z <= 0)
    throw bad_dim("block", block);
  if (block.count() > spec.max_threads_per_block)
    throw SimError("invalid launch: block size " +
                   std::to_string(block.count()) +
                   " exceeds the device limit of " +
                   std::to_string(spec.max_threads_per_block) + " threads");
}

/// One argument per kernel parameter.
inline void check_arg_count(const ir::Kernel& kernel, std::size_t nargs) {
  if (nargs != kernel.params.size())
    throw SimError("kernel '" + kernel.name + "' expects " +
                   std::to_string(kernel.params.size()) + " args, got " +
                   std::to_string(nargs));
}

/// Argument i binds to parameter i: a buffer for a pointer parameter, a
/// scalar otherwise.
inline void check_arg_kind(const ir::Kernel& kernel, std::size_t i,
                           bool is_buffer) {
  const ir::Param& p = kernel.params[i];
  if (p.type.is_pointer != is_buffer)
    throw SimError("arg " + std::to_string(i) + " ('" + p.name +
                   "') must be a " + (p.type.is_pointer ? "buffer" : "scalar"));
}

/// __shfl needs sm_30+ (paper Sec. 3.6), checked before the call's
/// arguments are looked at.
inline void check_shfl_device(const DeviceSpec& spec) {
  if (spec.sm_version < 30)
    throw SimError("__shfl requires sm_30+ (device is sm_" +
                   std::to_string(spec.sm_version) + ")");
}

/// Which lane a __shfl lane reads, and why.
enum class ShflSource : std::uint8_t {
  kInRange,      ///< the rule's source lane: in the warp and the block
  kOutsideWarp,  ///< the rule left [0, warp_size): the lane reads itself
  kBeyondBlock,  ///< the rule passed the block's last lane: likewise
  kInactive,     ///< (sanitizer) an in-range source lane that is inactive
};

struct ShflRead {
  std::int64_t src_lane = 0;  ///< the rule's lane in the warp, maybe outside
  int src = 0;       ///< the flat lane whose value is read
  ShflSource why = ShflSource::kInRange;
};

class Lanes {
 public:
  Lanes() = default;
  /// Warp sizes are 1..32: a warp's lanes are the bits of one mask word.
  Lanes(int warp_size, Dim3 block)
      : warp_size_(warp_size), nlanes_(static_cast<int>(block.count())),
        block_(block) {
    if (warp_size < 1 || warp_size > 32)
      throw SimError("unsupported warp size " + std::to_string(warp_size) +
                     " (the simulator models warps of 1..32 lanes)");
    nwarps_ = (nlanes_ + warp_size - 1) / warp_size;
    for (int w = 0; w < nwarps_; ++w) {
      const int n = std::min(warp_size, nlanes_ - w * warp_size);
      full_.push_back(n == 32 ? ~0u : (1u << n) - 1u);
    }
  }

  [[nodiscard]] int warp_size() const { return warp_size_; }
  [[nodiscard]] int nlanes() const { return nlanes_; }
  [[nodiscard]] int nwarps() const { return nwarps_; }
  /// Every lane of each warp.
  [[nodiscard]] const Mask& full() const { return full_; }
  /// No lane.
  [[nodiscard]] Mask none() const {
    return Mask(static_cast<std::size_t>(nwarps_), 0);
  }
  [[nodiscard]] int warp_of(int lane) const { return lane / warp_size_; }

  [[nodiscard]] bool lane_on(const Mask& m, std::size_t l) const {
    const auto ws = static_cast<std::size_t>(warp_size_);
    return (m[l / ws] >> (l % ws)) & 1u;
  }
  void set_lane(Mask& m, std::size_t l) const {
    const auto ws = static_cast<std::size_t>(warp_size_);
    m[l / ws] |= 1u << (l % ws);
  }

  /// Calls fn(lane) for every lane of `m`, in ascending lane order. A
  /// fully active warp runs a plain counted loop with no per-lane test.
  template <typename Fn>
  void for_each_lane(const Mask& m, Fn&& fn) const {
    const auto ws = static_cast<std::size_t>(warp_size_);
    for (std::size_t w = 0; w < m.size(); ++w) {
      std::uint32_t bits = m[w];
      if (!bits) continue;
      const std::size_t lo = w * ws;
      if (bits == full_[w]) {
        const std::size_t hi =
            lo + static_cast<std::size_t>(std::popcount(bits));
        for (std::size_t l = lo; l < hi; ++l) fn(l);
      } else {
        do {
          fn(lo + static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
        } while (bits);
      }
    }
  }

  /// Calls fn(warp, first lane, bits) for every warp with an active lane.
  template <typename Fn>
  void for_each_active_warp(const Mask& m, Fn&& fn) const {
    for (int w = 0; w < nwarps_; ++w) {
      const std::uint32_t bits = m[static_cast<std::size_t>(w)];
      if (bits) fn(w, w * warp_size_, bits);
    }
  }

  /// All lanes of every warp active in `m`: the mask a __shfl's source
  /// argument is evaluated under.
  void make_broad_mask(const Mask& m, Mask& broad) const {
    for (std::size_t w = 0; w < m.size(); ++w) broad[w] = m[w] ? full_[w] : 0;
  }

  /// Kepler's bar.sync counts *warp* arrivals: a warp arrives when one of
  /// its lanes executes the barrier, so partial masks inside a warp are
  /// fine. A warp with live lanes (not in `returned`) and none in `m`
  /// never arrives, and the block deadlocks on real hardware. Returns the
  /// first live lane of the first such warp, or -1.
  [[nodiscard]] int absent_lane(const Mask& m, const Mask& returned) const {
    for (std::size_t w = 0; w < m.size(); ++w)
      if (const std::uint32_t live = full_[w] & ~returned[w]; live && !m[w])
        return static_cast<int>(w) * warp_size_ + std::countr_zero(live);
    return -1;
  }

  /// Calls lane_fn(code, lane, value) for threadIdx.x, .y, .z of each
  /// lane in turn, then uniform_fn(code, value) for blockIdx, blockDim
  /// and gridDim in Geom order. The symbolic executor interns constants
  /// in this order, which fixes the node ids a certificate depends on.
  template <class LaneFn, class UniformFn>
  void for_each_geometry(Dim3 grid, Dim3 block_idx, LaneFn&& lane_fn,
                         UniformFn&& uniform_fn) const {
    for (int l = 0; l < nlanes_; ++l) {
      lane_fn(kGeomThreadIdxX, l, l % block_.x);
      lane_fn(kGeomThreadIdxY, l, (l / block_.x) % block_.y);
      lane_fn(kGeomThreadIdxZ, l, l / (block_.x * block_.y));
    }
    const int uniform[] = {block_idx.x, block_idx.y, block_idx.z,
                           block_.x,    block_.y,    block_.z,
                           grid.x,      grid.y,      grid.z};
    for (int g = kGeomBlockIdxX; g < kGeomCount; ++g)
      uniform_fn(g, uniform[g - kGeomBlockIdxX]);
  }

  /// __shfl widths are powers of two in [1, warp_size].
  [[nodiscard]] bool valid_shfl_width(std::int64_t w) const {
    return w > 0 && w <= warp_size_ && (w & (w - 1)) == 0;
  }
  /// Not inlined, so lane loops do not build the message.
  [[noreturn, gnu::noinline]] static void shfl_width_fail() {
    throw SimError("__shfl width must be a power of two in [1,32]");
  }

  /// What lane `lane` of the warp starting at flat lane `warp_base`
  /// reads for builtin `b` with selector (or delta) `s` and a valid
  /// width `wdt`. A source lane outside the warp (a negative selector, a
  /// delta that escapes it) or past the block's last lane is undefined
  /// on hardware; the lane reads its own value, as the hardware
  /// effectively does for out-of-range segments.
  [[nodiscard]] ShflRead shfl_read(Builtin b, int warp_base, int lane,
                                   std::int64_t s, std::int64_t wdt) const {
    // Widths are powers of two, so the group math is shifts and masks.
    // Deltas are C ints; the sums are 64-bit, so no delta overflows.
    const std::int64_t d = static_cast<int>(s);
    const std::int64_t group_base = lane & -wdt;
    std::int64_t src_lane;
    if (b == Builtin::kShfl) {
      // s % wdt, truncated toward zero like C's % for negative s.
      std::int64_t r = s & (wdt - 1);
      if (s < 0 && r != 0) r -= wdt;
      src_lane = group_base + r;
    } else if (b == Builtin::kShflUp) {
      src_lane = lane - d < group_base ? lane : lane - d;
    } else if (b == Builtin::kShflDown) {
      src_lane = lane + d >= group_base + wdt ? lane : lane + d;
    } else {  // __shfl_xor
      const std::int64_t cand = group_base + ((lane - group_base) ^ d);
      src_lane = cand < group_base + wdt ? cand : lane;
    }
    if (src_lane < 0 || src_lane >= warp_size_)
      return {src_lane, warp_base + lane, ShflSource::kOutsideWarp};
    const int src = warp_base + static_cast<int>(src_lane);
    if (src >= nlanes_)
      return {src_lane, warp_base + lane, ShflSource::kBeyondBlock};
    return {src_lane, src, ShflSource::kInRange};
  }

 private:
  int warp_size_ = 1;
  int nlanes_ = 0;
  int nwarps_ = 0;
  Dim3 block_;
  Mask full_;
};

/// The region stack of one block: the masks of the open ifs, loops and
/// __shfl arguments, the lanes that have returned, and the open loops.
/// It runs every control op of sim/bytecode.hpp for both engines; a
/// method that may jump returns true when the engine jumps to the
/// instruction's target. An engine supplies only how an if's condition
/// splits the mask, and hooks where the else arm starts and where the if
/// ends (the symbolic executor's frame swap and merge).
class Regions {
  struct NoHook {
    void operator()() const {}
  };

 public:
  /// An open loop: its iterations (the valve) and back-edges (watchdog).
  struct Loop {
    SourceLoc loc;
    std::int64_t iters = 0;
    std::int64_t backedges = 0;
  };

  Regions() = default;
  /// A block's start: every lane active, none returned. A loop that runs
  /// more than `max_loop_iterations` iterations fails.
  Regions(const Lanes& lanes, std::int64_t max_loop_iterations)
      : lanes_(&lanes), masks_{lanes.full()}, scratch_(lanes.none()),
        returned_(lanes.none()), max_iters_(max_loop_iterations) {}

  /// The execution mask of the innermost region.
  [[nodiscard]] Mask& cur() { return masks_[depth_]; }
  [[nodiscard]] const Mask& returned() const { return returned_; }
  /// In a __shfl source argument, where uninitialized reads go unreported.
  [[nodiscard]] bool in_shfl_arg() const { return shfl_depth_ > 0; }
  /// The open loops, outermost first.
  [[nodiscard]] const std::vector<Loop>& loops() const { return loops_; }

  /// kGuard, kLoopLatchFor: clears returned lanes; jumps when none is
  /// left. Masks only empty through returns: before one, nothing to do.
  bool guard() { return returned_any_ && !clear_lanes(cur(), returned_); }
  /// kClearReturned: the while latch, which loops back regardless.
  void clear_returned() { (void)guard(); }
  void ret() {  // kReturn
    add_lanes(returned_, cur());
    returned_any_ = true;
  }

  /// kShflArgBegin: the argument runs on every lane of each active warp.
  void shfl_arg_begin() {
    Mask& broad = above(1);  // first: it may grow the stack
    lanes_->make_broad_mask(masks_[depth_], broad);
    ++depth_;
    ++shfl_depth_;
  }
  void shfl_arg_end() { --shfl_depth_; --depth_; }  // kShflArgEnd

  /// kIfSplit: split(mask, then_mask, else_mask) fills the arm masks
  /// from the current one; the else mask goes below the then mask (an
  /// else-less if only counts it). Jumps when the then arm is empty.
  template <class Split>
  bool if_split(bool has_else, Split&& split) {
    const std::size_t n = has_else ? 2 : 1;
    Mask& tm = above(n);
    split(std::as_const(masks_[depth_]), tm,
          has_else ? masks_[depth_ + 1] : scratch_);
    depth_ += n;
    return !any(tm);
  }
  /// kIfElse: pops the then mask; on_else() starts the else arm. An
  /// empty else arm ends the if: its mask pops, on_end() runs, and the
  /// engine jumps past the kIfEnd.
  template <class OnElse = NoHook, class OnEnd = NoHook>
  bool if_else(OnElse&& on_else = {}, OnEnd&& on_end = {}) {
    --depth_;
    on_else();
    if (any(cur())) return false;
    --depth_;
    on_end();
    return true;
  }
  /// kIfEnd: pops the surviving arm's mask; on_end() ends the if.
  template <class OnEnd = NoHook>
  void if_end(OnEnd&& on_end = {}) { --depth_; on_end(); }

  /// kLoopEnter: the loop runs on a copy of the current mask.
  void loop_enter(SourceLoc loc) {
    Mask& copy = above(1);
    copy = masks_[depth_];
    ++depth_;
    loops_.push_back({loc});
  }
  /// kLoopBackedge in the VM, for the watchdog's report.
  void backedge() { ++loops_.back().backedges; }
  /// kLoopCheck: jumps out when no lane is left, else runs the valve.
  bool loop_check(bool is_while, SourceLoc loc) {
    if (!any(cur())) return true;
    if (++loops_.back().iters > max_iters_)
      throw SimError(std::string(is_while ? "while loop" : "loop") +
                     " exceeded max iterations at " + loc.str());
    return false;
  }
  void loop_exit() { --depth_; loops_.pop_back(); }  // kLoopExit

 private:
  /// The mask n levels above the current one, allocated on first use.
  Mask& above(std::size_t n) {
    if (masks_.size() <= depth_ + n)
      masks_.resize(depth_ + n + 1, lanes_->none());
    return masks_[depth_ + n];
  }

  const Lanes* lanes_ = nullptr;
  std::vector<Mask> masks_;  ///< masks_[depth_] is the active mask
  Mask scratch_;             ///< the else mask of an else-less if
  Mask returned_;
  std::vector<Loop> loops_;
  std::int64_t max_iters_ = 0;
  std::size_t depth_ = 0;
  int shfl_depth_ = 0;
  bool returned_any_ = false;
};

}  // namespace cudanp::sim::exec
