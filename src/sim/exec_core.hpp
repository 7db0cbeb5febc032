// Per-block execution core of the bytecode VM (sim/vm.cpp).
//
// BlockCore owns the slot frame, geometry lane caches, per-warp cost
// charging, the watchdog step counter, the sanitizer hooks and every
// memory-access / operator execution path, so every charge, hazard
// report and error message is produced by exactly one piece of code.
//
// Lane helpers are templates over the lane element type: plain int64_t /
// double lane arrays whose types the lowering fixed statically
// (sim/bytecode.hpp), with the scalar semantics from sim/arith.hpp.
// Variable storage is typed by the declared scalar type. Lanes, warps
// and masks follow the lane model the symbolic executor shares
// (sim/lanes.hpp).
//
// This header is an implementation detail of sim/; nothing outside the
// interpreter, the lowering pass and the VM should include it.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/arith.hpp"
#include "sim/binder.hpp"
#include "sim/hazards.hpp"
#include "sim/interpreter.hpp"
#include "sim/lanes.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "sim/sanitizer.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim::exec {

/// Per-variable storage within one block, indexed by the binder's slot id
/// (sim/binder.hpp) in a flat frame vector.
struct Slot {
  ir::Type type;
  /// Storage typed by `type.scalar`: float slots use `f`, every other
  /// scalar type `i`. Register scalars & register/local arrays hold
  /// per-lane storage (lane-major: lane * elems + idx); shared arrays and
  /// uniform kernel arguments hold one copy.
  std::vector<std::int64_t> i;
  std::vector<double> f;
  /// Word offset inside the block's shared or local space (for bank /
  /// coalescing math).
  std::uint64_t base_word = 0;
  bool is_buffer_param = false;
  /// Scalar kernel argument: one shared copy, read-only.
  bool is_uniform_param = false;
  BufferId buffer = 0;
  /// False until the slot's declaration first executes in this block; a
  /// declaration executed again (a loop body) keeps the storage but
  /// clears the sanitizer init bits, so the variable starts unset.
  bool declared = false;
  /// Sanitizer init bitmap, indexed like the storage (empty when the
  /// sanitizer is off, and for shared / buffer / uniform slots, which are
  /// shadowed elsewhere).
  std::vector<std::uint8_t> shadow;

  [[nodiscard]] bool is_float() const {
    return type.scalar == ir::ScalarType::kFloat;
  }
  /// Zero-filled storage of `n` cells of the declared scalar type.
  void alloc(std::size_t n) {
    if (is_float())
      f.assign(n, 0.0);
    else
      i.assign(n, 0);
  }
  template <class T>
  [[nodiscard]] T* cells() {
    if constexpr (arith::kIsFloat<T>)
      return f.data();
    else
      return i.data();
  }
  /// Calls fn(cells, convert): the typed cell array and C's conversion
  /// of a value stored into it (a bool cell holds 0 or 1).
  template <class Fn>
  void with_cells(Fn&& fn) {
    if (is_float())
      fn(f.data(), [](auto v) { return arith::to<double>(v); });
    else if (type.scalar == ir::ScalarType::kBool)
      fn(i.data(), [](auto v) { return arith::to_bool(v); });
    else
      fn(i.data(), [](auto v) { return arith::to<arith::Int>(v); });
  }
};

/// Per-block hazard stream. Blocks never touch the shared SanitizerEngine
/// while executing (so the grid can run on several threads); they collect
/// reports locally, in execution order, and Interpreter::run replays the
/// streams through the engine in block-index order afterwards. That
/// replay reproduces the engine's dedupe, total count and error-limit
/// semantics exactly, at every job count.
struct BlockSanitizer {
  /// Options are read-only during execution; buffer shadow bitmaps are
  /// written element-wise, and well-formed kernels touch block-disjoint
  /// elements (like the data buffers themselves).
  SanitizerEngine* engine = nullptr;
  std::vector<HazardReport> reports;
};

/// Per-lane value source: a lane array or one broadcast value. The VM
/// passes registers, geometry vectors, live slot storage, or folded
/// immediates without copying.
template <class T>
struct LaneView {
  const T* vec = nullptr;
  T splat{};
  [[nodiscard]] T at(std::size_t l) const { return vec ? vec[l] : splat; }
};

/// Destination of a VM operator: the register's int and float lane
/// arrays, of which the operator writes the one its result type selects.
/// Readers read the pool of the type lowering gave the register, so the
/// two must agree: binop_lanes checks arith's result types against
/// arith::binop_yields_float, and vm::run_block checks that the buffers
/// bound are the ones the program was lowered for.
struct TypedOut {
  std::int64_t* i = nullptr;
  double* f = nullptr;
};

/// The lane array of `o` that a result of type R is written to.
template <class R>
[[nodiscard]] inline R* out_as(TypedOut o) {
  if constexpr (arith::kIsFloat<R>)
    return o.f;
  else
    return o.i;
}

class BlockCore {
 public:
  BlockCore(const DeviceSpec& spec, DeviceMemory& mem,
            const Interpreter::Options& opt, const BoundKernel& bound,
            const LaunchConfig& cfg, Dim3 block_idx, int resident_blocks,
            BlockSanitizer* san, std::int64_t flat_block,
            std::int64_t max_steps);

 protected:
  // ---------------- setup ----------------
  /// Precomputes the 12 builtin geometry vectors once per block.
  void init_geometry();
  void bind_params();

  // ---------------- masks ----------------
  /// out = the lanes active in `mask` whose `c` is true (`out` may alias
  /// `mask`).
  template <class C>
  void truth_mask(const Mask& mask, LaneView<C> c, Mask& out) const {
    const auto ws = static_cast<std::size_t>(lanes_.warp_size());
    for (std::size_t w = 0; w < mask.size(); ++w) {
      const std::uint32_t bits = mask[w];
      std::uint32_t t = 0;
      if (bits && !c.vec) {
        t = arith::truthy(c.splat) ? bits : 0;
      } else if (bits == lanes_.full()[w]) {
        const C* cv = c.vec + w * ws;
        const int n = std::popcount(bits);
        for (int k = 0; k < n; ++k)
          t |= static_cast<std::uint32_t>(arith::truthy(cv[k])) << k;
      } else {
        for (std::uint32_t b = bits; b; b &= b - 1) {
          const int k = std::countr_zero(b);
          if (arith::truthy(c.vec[w * ws + static_cast<std::size_t>(k)]))
            t |= 1u << k;
        }
      }
      out[w] = t;
    }
  }

  /// Splits `mask` on `c` into the then/else masks and counts warps where
  /// both paths have lanes (divergence).
  template <class C>
  void split_mask(const Mask& mask, LaneView<C> c, Mask& then_mask,
                  Mask& else_mask) {
    truth_mask(mask, c, then_mask);
    for (std::size_t w = 0; w < mask.size(); ++w) {
      else_mask[w] = mask[w] & ~then_mask[w];
      if (then_mask[w] && else_mask[w]) ++divergent_branches_;
    }
  }

  // ---------------- cost charging ----------------
  void charge_issue(const Mask& mask, double weight) {
    for (std::size_t w = 0; w < mask.size(); ++w)
      if (mask[w]) warp_issue_[w] += weight;
  }

  void charge_latency(int warp, double cycles) {
    warp_pending_[static_cast<std::size_t>(warp)] =
        std::max(warp_pending_[static_cast<std::size_t>(warp)], cycles);
  }

  void begin_leaf_stmt() {
    std::fill(warp_pending_.begin(), warp_pending_.end(), 0.0);
  }
  void end_leaf_stmt() {
    for (int w = 0; w < lanes_.nwarps(); ++w)
      warp_latency_[static_cast<std::size_t>(w)] +=
          warp_pending_[static_cast<std::size_t>(w)];
  }

  /// Folds the per-warp counters into the block's KernelStats; the run()
  /// epilogue.
  [[nodiscard]] KernelStats collect_stats() const;

  // ---------------- watchdog ----------------
  /// Charges one interpreted statement (or loop back-edge) against the
  /// block's step budget and fires the fault-injection hook. Deterministic
  /// per block — the count never depends on job scheduling.
  void count_step(const SourceLoc& loc);

  [[nodiscard]] WatchdogError make_watchdog_error(const SourceLoc& loc) const;

  /// Injected stall (FaultPlan::stall_block): burns budget until the
  /// watchdog trips. A disabled watchdog would hang forever, so that
  /// combination degrades to a plain injected SimError instead.
  [[noreturn]] void stall();

  // ---------------- memory access paths ----------------
  /// One warp's lane indices as a progression over all 32 lanes; nullopt
  /// for a partial warp or other indices.
  template <class I>
  [[nodiscard]] static std::optional<AffineWarp> warp_run(LaneView<I> idx,
                                                          int lo,
                                                          std::uint32_t bits);
  /// Lane k's address base + idx[lo + k] * scale for the lanes active in
  /// `bits`, for the per-lane cost models.
  template <class I>
  static std::span<const std::uint64_t> lane_addrs(
      LaneView<I> idx, int lo, std::uint32_t bits, std::uint64_t base,
      std::uint64_t scale, std::uint64_t (&addrs)[32]) {
    for (std::uint32_t b = bits; b; b &= b - 1) {
      const int k = std::countr_zero(b);
      addrs[k] = base + static_cast<std::uint64_t>(arith::as_i(
                            idx.at(static_cast<std::size_t>(lo + k)))) *
                            scale;
    }
    return {addrs, 32};
  }
  /// An access's element loop, warp by warp, after its charge recorded
  /// each active warp's run in runs_. When `whole_ok`, a warp whose run
  /// stays in [0, size) at both ends goes to whole(lo, first, step) in one
  /// call; every other warp runs lane(l) over its active lanes in
  /// ascending order, so bounds errors and sanitizer bookkeeping happen
  /// lane by lane there.
  template <class Whole, class Lane>
  void for_each_run(const Mask& mask, std::size_t size, bool whole_ok,
                    Whole&& whole, Lane&& lane) const;
  /// A whole warp's load: dst[k] = cvt(src[k * step]) for its 32 lanes.
  template <class D, class E, class Cvt>
  static void gather(D* dst, const E* src, std::int64_t step, Cvt cvt) {
    for (std::int64_t k = 0; k < 32; ++k) dst[k] = cvt(src[k * step]);
  }
  /// A whole warp's store: dst[k * step] = cvt(lane lo + k's value), in
  /// lane order, so with step 0 the last lane's value sticks, as in the
  /// lane loop.
  template <class E, class V, class Cvt>
  static void scatter(E* dst, std::int64_t step, LaneView<V> val,
                      std::size_t lo, Cvt cvt) {
    for (std::int64_t k = 0; k < 32; ++k)
      dst[k * step] = cvt(val.at(lo + static_cast<std::size_t>(k)));
  }

  template <class I>
  void charge_global(const DeviceBuffer& buf, LaneView<I> idx,
                     const Mask& mask);
  void charge_shared(const Slot& slot, const std::int64_t* flat_idx,
                     const Mask& mask);
  void charge_local(const Slot& slot, const std::int64_t* elem_idx,
                    const Mask& mask);
  /// The address-space charge of a local / register / constant array
  /// access.
  void charge_array(const Slot& slot, const std::int64_t* flat,
                    const Mask& mask);

  /// Global-buffer element loads / stores, charges included.
  template <class I, class Out>
  void buffer_load(Slot& slot, const std::string& name, LaneView<I> idx,
                   const Mask& mask, Out out, SourceLoc loc);
  template <class I, class S>
  void buffer_store(Slot& slot, const std::string& name, LaneView<I> idx,
                    const Mask& mask, LaneView<S> val, SourceLoc loc);
  /// Shared-array access on pre-flattened indices; bumps the sanitizer's
  /// access sequence and emits race / uninit reports.
  template <class Out>
  void shared_load(Slot& slot, const std::string& name,
                   const std::int64_t* flat, const Mask& mask, Out out,
                   SourceLoc loc);
  template <class S>
  void shared_store(Slot& slot, const std::string& name,
                    const std::int64_t* flat, const Mask& mask,
                    LaneView<S> val, SourceLoc loc);
  /// Local / register / constant array access on pre-flattened indices
  /// (the charge dispatch on the address space included).
  template <class Out>
  void local_load(Slot& slot, const std::string& name,
                  const std::int64_t* flat, const Mask& mask, Out out,
                  SourceLoc loc);
  template <class S>
  void local_store(Slot& slot, const std::int64_t* flat, const Mask& mask,
                   LaneView<S> val);

  /// One dimension of a (possibly multi-dim) index flatten: bounds-checks
  /// active lanes against `dim` and accumulates flat = flat * dim + i
  /// (`first` resets instead). The per-dim ALU charge for d > 0 is the
  /// caller's (charge, then check).
  template <class I>
  void flatten_dim(std::int64_t* flat, const std::string& name,
                   LaneView<I> idx, std::int64_t dim, bool first,
                   const Mask& mask, SourceLoc loc);

  // ---------------- scalar variable paths ----------------
  /// Everything eval of a scalar VarRef does except materializing values:
  /// the sanitizer's uninit-read check (the binder has ruled out every
  /// structural error). Returns the slot so the caller can read its
  /// storage in place.
  Slot& var_read_check(std::int32_t slot_id, const std::string& name,
                       const Mask& mask, SourceLoc loc);
  /// Scalar variable assignment, or a declaration's initializer into its
  /// declared slot: ALU charge + masked converted store with shadow
  /// marking.
  template <class S>
  void store_var(Slot& slot, const Mask& mask, LaneView<S> val) {
    charge_issue(mask, opt_.timing.weights.alu);
    store_lanes(slot, mask, val);
  }
  /// One brace-initializer element: each active lane's own converted
  /// value into its copy's element e (per-thread arrays only: a shared
  /// array takes no initializer).
  template <class S>
  void decl_fill(Slot& slot, const ir::Type& type, std::size_t e,
                 const Mask& mask, LaneView<S> val) {
    const auto elems = static_cast<std::size_t>(type.element_count());
    slot.with_cells([&](auto* data, auto conv) {
      lanes_.for_each_lane(mask, [&](std::size_t l) {
        data[l * elems + e] = conv(val.at(l));
      });
    });
  }
  /// The rest of a brace initializer: C zero-fills the elements from
  /// `from` on, on every execution of the declaration, so the whole
  /// array is initialized (for the sanitizer too, when it is on).
  void decl_tail(Slot& slot, const ir::Type& type, std::size_t from,
                 const Mask& mask) {
    const auto elems = static_cast<std::size_t>(type.element_count());
    slot.with_cells([&](auto* data, auto) {
      lanes_.for_each_lane(mask, [&](std::size_t l) {
        std::fill(data + l * elems + from, data + (l + 1) * elems, 0);
      });
    });
    std::fill(slot.shadow.begin(), slot.shadow.end(), 1);
  }

  // ---------------- operators (charges included) ----------------
  template <class A, class B, class Out>
  void do_binop(ir::BinOp op, LaneView<A> a, LaneView<B> b, const Mask& mask,
                Out out, SourceLoc loc) {
    double w = opt_.timing.weights.alu;
    if (op == ir::BinOp::kDiv || op == ir::BinOp::kMod) {
      // Int div/mod and float div are multi-cycle.
      w = opt_.timing.weights.idiv_imod;
      if (op == ir::BinOp::kDiv &&
          (arith::kIsFloat<A> || arith::kIsFloat<B>))
        w = opt_.timing.weights.fdiv_sqrt_transcendental;
    }
    charge_issue(mask, w);
    dispatch_binop(op, a, b, mask, out, loc);
  }
  /// Compound-assignment combine: fixed ALU charge (never the div/mod
  /// weights) + apply.
  template <class A, class B, class Out>
  void do_compound(ir::BinOp op, LaneView<A> oldv, LaneView<B> rhs,
                   const Mask& mask, Out out, SourceLoc loc) {
    charge_issue(mask, opt_.timing.weights.alu);
    dispatch_binop(op, oldv, rhs, mask, out, loc);
  }
  template <class A, class Out>
  void do_unop(ir::UnOp op, LaneView<A> a, const Mask& mask, Out out) {
    charge_issue(mask, opt_.timing.weights.alu);
    if (op == ir::UnOp::kNeg)
      map_lanes(mask, out, [](auto x) { return arith::neg(x); }, a);
    else
      map_lanes(mask, out, [](auto x) { return arith::lnot(x); }, a);
  }
  template <class A, class Out>
  void do_cast(ir::ScalarType to, LaneView<A> a, const Mask& mask, Out out) {
    charge_issue(mask, opt_.timing.weights.alu);
    switch (to) {
      case ir::ScalarType::kFloat:
        return map_lanes(mask, out,
                         [](auto x) { return arith::to<double>(x); }, a);
      case ir::ScalarType::kInt:
        return map_lanes(mask, out,
                         [](auto x) { return arith::to<arith::Int>(x); }, a);
      case ir::ScalarType::kBool:
        return map_lanes(mask, out,
                         [](auto x) { return arith::to_bool(x); }, a);
      case ir::ScalarType::kVoid:
        return map_lanes(mask, out, [](auto x) { return x; }, a);
    }
  }
  /// c ? a : b, both arms converted to their common type.
  template <class C, class A, class B, class Out>
  void do_select(LaneView<C> c, LaneView<A> a, LaneView<B> b,
                 const Mask& mask, Out out) {
    charge_issue(mask, opt_.timing.weights.alu);
    auto pick = [](bool t) {
      return [t](auto x, auto y) { return arith::select(t, x, y); };
    };
    using R = decltype(arith::visit(pick(true), A{}, B{}));
    auto* o = out_as<R>(out);
    lanes_.for_each_lane(mask, [&](std::size_t l) {
      o[l] = arith::visit(pick(arith::truthy(c.at(l))), a.at(l), b.at(l));
    });
  }
  template <class A, class Out>
  void do_unary_math(double (*fn)(double), bool sfu, LaneView<A> a,
                     const Mask& mask, Out out) {
    charge_issue(mask, sfu ? opt_.timing.weights.fdiv_sqrt_transcendental
                           : opt_.timing.weights.alu);
    map_lanes(mask, out,
              [fn](auto x) { return arith::f32(fn(arith::as_f(x))); }, a);
  }
  template <class A, class Out>
  void do_abs(LaneView<A> a, const Mask& mask, Out out) {
    charge_issue(mask, opt_.timing.weights.alu);
    map_lanes(mask, out, [](auto x) { return arith::abs(x); }, a);
  }
  /// min / max / fminf / fmaxf / powf.
  template <class A, class B, class Out>
  void do_binmath(Builtin b, LaneView<A> x, LaneView<B> y, const Mask& mask,
                  Out out);

  // ---------------- builtins with shared semantics ----------------
  /// __syncthreads(): counters, charges, barrier bookkeeping.
  void do_sync(const Mask& mask, SourceLoc loc);
  /// __shfl family body (after the caller's sm-version / arity checks and
  /// argument evaluation): selection, clamping, hazard reports and the
  /// source-lane init check. `var_slot`/`var_name` describe the
  /// first argument when it is a plain variable reference (pass
  /// kSlotUnbound / nullptr otherwise). `var` must cover every lane of
  /// every active warp (it was evaluated under the broadened mask).
  template <class V, class S, class W, class Out>
  void do_shfl(Builtin b, const std::string& callee, LaneView<V> var,
               LaneView<S> sel, LaneView<W> width, const Mask& mask, Out out,
               SourceLoc loc, std::int32_t var_slot,
               const std::string* var_name);

  // ---------------- sanitizer hooks ----------------
  void san_report(HazardKind kind, SourceLoc loc, int lane, std::string msg);
  /// A shared access by `lane`: its warp's barrier generation is the
  /// epoch, the access counter its sequence number.
  [[nodiscard]] hazard::Access shared_access(int lane) const {
    const int w = lanes_.warp_of(lane);
    return {lane, w, warp_gen_[static_cast<std::size_t>(w)], access_seq_};
  }
  /// The shared word's hazard steps (sim/hazards.hpp), reported by race
  /// mode. `differs`: the store changes the word's value.
  void note_shared_write(const Slot& slot, const std::string& name,
                         std::size_t idx, int lane, bool differs,
                         SourceLoc loc);
  void note_shared_read(const Slot& slot, const std::string& name,
                        std::size_t idx, int lane, SourceLoc loc);
  /// Kepler's bar.sync counts *warp* arrivals: a warp arrives when >= 1 of
  /// its lanes executes the barrier, so partial masks inside one warp are
  /// fine, but a warp whose live lanes all branch around the barrier never
  /// arrives and the block deadlocks on real hardware.
  void note_barrier(SourceLoc loc, const Mask& mask);
  /// do_shfl's hazard report for a source lane it cannot honour.
  void report_shfl_source(ShflSource why, const std::string& callee,
                          std::int64_t src_lane, int lane, SourceLoc loc);

  // ---------------- variable helpers ----------------
  /// Declares (or re-declares, for loop bodies) a variable, zero-filled
  /// with its declared scalar type on first execution; every execution
  /// starts it unset for the sanitizer. The binder has ruled out the
  /// declarations the simulator cannot run.
  Slot& declare(const ir::DeclStmt& d);

  /// Cold paths for lane-loop diagnostics; out of line so the string
  /// construction doesn't keep the lane bodies from inlining.
  [[noreturn]] static void binop_fail(const char* what, SourceLoc loc);
  /// kOutOfBounds (n: the buffer's size) or kIndexOutOfBounds (n: the
  /// dimension) on name[i].
  [[noreturn]] static void bounds_fail(hazard::Rule r, const std::string& name,
                                       std::int64_t i, std::int64_t n,
                                       SourceLoc loc);

  static constexpr std::uint64_t kLocalSpaceBase = 1ULL << 40;

  const DeviceSpec& spec_;
  DeviceMemory& mem_;
  const Interpreter::Options& opt_;
  const BoundKernel& bound_;
  const ir::Kernel& kernel_;
  const LaunchConfig& cfg_;
  Dim3 block_idx_;
  std::int64_t flat_block_ = 0;
  std::int64_t max_steps_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t steps_ = 0;
  const Lanes lanes_;
  /// The region stack over lanes_, which the VM sets up with its valve;
  /// do_sync reads its returned lanes.
  Regions regions_;
  L1Cache l1_;

  /// Flat variable frame, indexed by the binder's slot ids.
  std::vector<Slot> frame_;
  /// Precomputed geometry lane vectors (threadIdx.x, ..., gridDim.z).
  std::vector<std::int64_t> geom_[kGeomCount];
  BlockSanitizer* san_ = nullptr;
  bool portable_ = false;  // the sanitizer reports cross-warp races too
  std::unordered_map<std::uint64_t, hazard::Cell> smem_shadow_;
  std::vector<std::int64_t> warp_gen_;  // barrier arrivals per warp
  std::int64_t access_seq_ = 0;         // one id per shared vector access
  std::vector<double> warp_issue_;
  std::vector<double> warp_latency_;
  std::vector<double> warp_pending_;
  /// Per-warp runs of the access last charged (charge_global / _shared).
  std::vector<std::optional<AffineWarp>> runs_;
  std::uint64_t smem_word_cursor_ = 0;
  std::uint64_t local_word_cursor_ = 0;

  std::int64_t global_transactions_ = 0;
  std::int64_t local_transactions_ = 0;
  std::int64_t local_l1_misses_ = 0;
  std::int64_t dram_transactions_ = 0;
  std::int64_t smem_accesses_ = 0;
  std::int64_t smem_replays_ = 0;
  std::int64_t shfl_ops_ = 0;
  std::int64_t sync_ops_ = 0;
  std::int64_t divergent_branches_ = 0;

 private:
  /// Calls fn with a per-lane accessor for the view: an array read for a
  /// vector, a constant for a splat, so lane loops carry no shape test.
  template <class T, class Fn>
  static void with_access(LaneView<T> v, Fn&& fn) {
    if (v.vec)
      fn([p = v.vec](std::size_t l) { return p[l]; });
    else
      fn([s = v.splat](std::size_t) { return s; });
  }

  /// out[l] = fn(a[l]) over the active lanes.
  template <class Out, class Fn, class A>
  void map_lanes(const Mask& mask, Out out, Fn&& fn, LaneView<A> a) {
    using R = decltype(arith::visit(fn, A{}));
    auto* o = out_as<R>(out);
    with_access(a, [&](auto ga) {
      lanes_.for_each_lane(mask, [&](std::size_t l) {
        o[l] = arith::visit(fn, ga(l));
      });
    });
  }

  /// out[l] = fn(a[l], b[l]) over the active lanes. Two broadcast operands
  /// give a broadcast result, computed once at the first active lane (so
  /// an error still fires exactly when the lane loop would fire it).
  template <class Out, class Fn, class A, class B>
  void map_lanes(const Mask& mask, Out out, Fn&& fn, LaneView<A> a,
                 LaneView<B> b) {
    using R = decltype(arith::visit(fn, A{}, B{}));
    auto* o = out_as<R>(out);
    if (!a.vec && !b.vec) {
      if (!any(mask)) return;
      const R r = arith::visit(fn, a.splat, b.splat);
      lanes_.for_each_lane(mask, [&](std::size_t l) { o[l] = r; });
      return;
    }
    with_access(a, [&](auto ga) {
      with_access(b, [&](auto gb) {
        lanes_.for_each_lane(mask, [&](std::size_t l) {
          o[l] = arith::visit(fn, ga(l), gb(l));
        });
      });
    });
  }

  /// Masked store into a scalar slot, converted to its declared type, plus
  /// shadow marking.
  template <class S>
  void store_lanes(Slot& slot, const Mask& mask, LaneView<S> val) {
    slot.with_cells([&](auto* data, auto conv) {
      if (val.vec) {
        const S* v = val.vec;
        lanes_.for_each_lane(mask,
                             [&](std::size_t l) { data[l] = conv(v[l]); });
      } else {
        const auto s = conv(val.splat);
        lanes_.for_each_lane(mask, [&](std::size_t l) { data[l] = s; });
      }
    });
    if (!slot.shadow.empty()) {
      std::uint8_t* shadow = slot.shadow.data();
      lanes_.for_each_lane(mask, [&](std::size_t l) { shadow[l] = 1; });
    }
  }

  /// Lane loop for one operator with the op as a compile-time constant,
  /// so the inlined arith::binop collapses to a single case.
  template <ir::BinOp kOp, class A, class B, class Out>
  void binop_lanes(LaneView<A> a, LaneView<B> b, const Mask& mask, Out out,
                   SourceLoc loc) {
    auto fail = [&loc](const char* what) { binop_fail(what, loc); };
    auto fn = [&](auto x, auto y) { return arith::binop<kOp>(x, y, fail); };
    using R = decltype(fn(A{}, B{}));
    static_assert(arith::kIsFloat<R> ==
                  arith::binop_yields_float(kOp, arith::kIsFloat<A>,
                                            arith::kIsFloat<B>));
    map_lanes(mask, out, fn, a, b);
  }

  /// Runtime-op entry: one switch per statement, then binop_lanes.
  template <class A, class B, class Out>
  void dispatch_binop(ir::BinOp op, LaneView<A> a, LaneView<B> b,
                      const Mask& mask, Out out, SourceLoc loc);

  /// Buffer whose sanitizer init bitmap covers `slot`'s buffer, if any.
  [[nodiscard]] std::vector<std::uint8_t>* buffer_shadow(const Slot& slot) {
    return san_ ? san_->engine->buffer_shadow(slot.buffer) : nullptr;
  }
};

// ---------------- template definitions ----------------

template <class I>
std::optional<AffineWarp> BlockCore::warp_run(LaneView<I> idx, int lo,
                                              std::uint32_t bits) {
  if (bits != ~0u) return std::nullopt;
  if (!idx.vec)
    return AffineWarp{static_cast<std::uint64_t>(arith::as_i(idx.splat)), 0};
  if constexpr (std::is_same_v<I, std::int64_t>) {
    return affine_lanes(idx.vec + lo, bits);
  } else {
    std::int64_t v[32];
    for (int k = 0; k < 32; ++k) v[k] = arith::as_i(idx.vec[lo + k]);
    return affine_lanes(v, bits);
  }
}

template <class Whole, class Lane>
void BlockCore::for_each_run(const Mask& mask, std::size_t size,
                             bool whole_ok, Whole&& whole,
                             Lane&& lane) const {
  lanes_.for_each_active_warp(mask, [&](int w, int lo, std::uint32_t bits) {
    const std::optional<AffineWarp>& r = runs_[static_cast<std::size_t>(w)];
    if (whole_ok && r) {
      // |stride| < size keeps first + 31 * stride exact, and with both
      // ends in range every lane between them is too.
      const auto n = static_cast<std::int64_t>(size);
      const std::uint64_t last =
          r->first + 31 * static_cast<std::uint64_t>(r->stride);
      if (r->first < size && last < size && r->stride < n &&
          r->stride > -n) {
        whole(static_cast<std::size_t>(lo),
              static_cast<std::int64_t>(r->first), r->stride);
        return;
      }
    }
    // for_each_lane's loop for this one warp. It is repeated, not shared:
    // routing for_each_lane through a per-warp helper stopped its lane
    // lambdas from inlining and made kFlatten 2.6x slower.
    const auto first = static_cast<std::size_t>(lo);
    if (bits == lanes_.full()[static_cast<std::size_t>(w)]) {
      const std::size_t end =
          first + static_cast<std::size_t>(std::popcount(bits));
      for (std::size_t l = first; l < end; ++l) lane(l);
    } else {
      do {
        lane(first + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      } while (bits);
    }
  });
}

template <class I>
void BlockCore::charge_global(const DeviceBuffer& buf, LaneView<I> idx,
                              const Mask& mask) {
  const auto esize =
      static_cast<std::uint64_t>(ir::Type::scalar_size_bytes(buf.type()));
  lanes_.for_each_active_warp(mask, [&](int w, int lo, std::uint32_t bits) {
    const std::optional<AffineWarp>& run =
        runs_[static_cast<std::size_t>(w)] = warp_run(idx, lo, bits);
    const AffineWarp a =
        run ? run->scaled(buf.base_addr(), esize) : AffineWarp{};
    std::uint64_t addrs[32];
    if (buf.is_constant()) {
      // Constant cache: distinct words serialize, identical broadcast.
      int replays = run ? affine_replays(a, 1) : 0;
      if (replays == 0)
        replays = smem_replays(
            lane_addrs(idx, lo, bits, buf.base_addr(), esize, addrs), bits, 1);
      smem_accesses_ += replays;  // books constant traffic with smem
      warp_issue_[static_cast<std::size_t>(w)] +=
          opt_.timing.weights.mem_issue * replays;
      charge_latency(w, spec_.smem_latency_cycles);
      return;
    }
    int trans = run ? affine_transactions(a, 32) : 0;
    if (trans == 0)
      trans = coalesced_transactions(
          lane_addrs(idx, lo, bits, buf.base_addr(), esize, addrs), bits, 32);
    global_transactions_ += trans;
    dram_transactions_ += trans;
    warp_issue_[static_cast<std::size_t>(w)] += opt_.timing.weights.mem_issue;
    charge_latency(w, spec_.dram_latency_cycles);
  });
}

template <class I, class Out>
void BlockCore::buffer_load(Slot& slot, const std::string& name,
                            LaneView<I> idx, const Mask& mask, Out out,
                            SourceLoc loc) {
  DeviceBuffer& buf = mem_.buffer(slot.buffer);
  charge_global(buf, idx, mask);
  std::vector<std::uint8_t>* bsh = buffer_shadow(slot);
  buf.with_data([&](auto* data) {
    using E = std::remove_cv_t<std::remove_pointer_t<decltype(data)>>;
    using R = std::conditional_t<std::is_same_v<E, float>, double,
                                 std::int64_t>;
    auto* o = out_as<R>(out);
    auto cvt = [](E v) { return static_cast<R>(v); };
    auto whole = [&](std::size_t lo, std::int64_t first, std::int64_t step) {
      gather(o + lo, data + first, step, cvt);
    };
    for_each_run(mask, buf.size(), bsh == nullptr, whole, [&](std::size_t l) {
      const auto i = static_cast<std::size_t>(arith::as_i(idx.at(l)));
      if (bsh && !regions_.in_shfl_arg() && i < bsh->size() && !(*bsh)[i])
        san_report(HazardKind::kUninitRead, loc, static_cast<int>(l),
                   hazard::text(hazard::Rule::kUninitGlobal, name,
                                static_cast<std::int64_t>(i)));
      if (i >= buf.size())
        bounds_fail(hazard::Rule::kOutOfBounds, name, i, buf.size(), loc);
      o[l] = cvt(data[i]);
    });
  });
}

template <class I, class S>
void BlockCore::buffer_store(Slot& slot, const std::string& name,
                             LaneView<I> idx, const Mask& mask,
                             LaneView<S> val, SourceLoc loc) {
  DeviceBuffer& buf = mem_.buffer(slot.buffer);
  charge_global(buf, idx, mask);
  std::vector<std::uint8_t>* bsh = buffer_shadow(slot);
  buf.with_data([&](auto* data) {
    using E = std::remove_pointer_t<decltype(data)>;
    auto conv = [](auto v) {
      if constexpr (std::is_same_v<E, float>)
        return static_cast<float>(arith::as_f(v));
      else
        return static_cast<std::int32_t>(arith::as_i(v));
    };
    auto whole = [&](std::size_t lo, std::int64_t first, std::int64_t step) {
      scatter(data + first, step, val, lo, conv);
    };
    for_each_run(mask, buf.size(), bsh == nullptr, whole, [&](std::size_t l) {
      const auto i = static_cast<std::size_t>(arith::as_i(idx.at(l)));
      if (i >= buf.size())
        bounds_fail(hazard::Rule::kOutOfBounds, name, i, buf.size(), loc);
      data[i] = conv(val.at(l));
      if (bsh && i < bsh->size()) (*bsh)[i] = 1;
    });
  });
}

template <class Out>
void BlockCore::shared_load(Slot& slot, const std::string& name,
                            const std::int64_t* flat, const Mask& mask,
                            Out out, SourceLoc loc) {
  charge_shared(slot, flat, mask);
  if (san_) ++access_seq_;
  const std::size_t cells = slot.is_float() ? slot.f.size() : slot.i.size();
  slot.with_cells([&](auto* data, auto) {
    using T = std::remove_pointer_t<decltype(data)>;
    auto* o = out_as<T>(out);
    auto whole = [&](std::size_t lo, std::int64_t first, std::int64_t step) {
      gather(o + lo, data + first, step, [](T v) { return v; });
    };
    for_each_run(mask, cells, san_ == nullptr, whole, [&](std::size_t l) {
      const auto i = static_cast<std::size_t>(flat[l]);
      if (san_) note_shared_read(slot, name, i, static_cast<int>(l), loc);
      o[l] = data[i];
    });
  });
}

template <class S>
void BlockCore::shared_store(Slot& slot, const std::string& name,
                             const std::int64_t* flat, const Mask& mask,
                             LaneView<S> val, SourceLoc loc) {
  charge_shared(slot, flat, mask);
  if (san_) ++access_seq_;
  const std::size_t cells = slot.is_float() ? slot.f.size() : slot.i.size();
  slot.with_cells([&](auto* data, auto conv) {
    auto whole = [&](std::size_t lo, std::int64_t first, std::int64_t step) {
      scatter(data + first, step, val, lo, conv);
    };
    for_each_run(mask, cells, san_ == nullptr, whole, [&](std::size_t l) {
      const auto i = static_cast<std::size_t>(flat[l]);
      const auto v = conv(val.at(l));
      if (san_)
        note_shared_write(slot, name, i, static_cast<int>(l), data[i] != v,
                          loc);
      data[i] = v;
    });
  });
}

template <class Out>
void BlockCore::local_load(Slot& slot, const std::string& name,
                           const std::int64_t* flat, const Mask& mask,
                           Out out, SourceLoc loc) {
  charge_array(slot, flat, mask);
  const auto elems = static_cast<std::size_t>(slot.type.element_count());
  slot.with_cells([&](auto* data, auto) {
    using T = std::remove_pointer_t<decltype(data)>;
    auto* o = out_as<T>(out);
    lanes_.for_each_lane(mask, [&](std::size_t l) {
      const std::size_t i = l * elems + static_cast<std::size_t>(flat[l]);
      if (san_ && !regions_.in_shfl_arg() && !slot.shadow.empty() &&
          !slot.shadow[i])
        san_report(HazardKind::kUninitRead, loc, static_cast<int>(l),
                   hazard::text(hazard::Rule::kUninitArray, name, flat[l]));
      o[l] = data[i];
    });
  });
}

template <class S>
void BlockCore::local_store(Slot& slot, const std::int64_t* flat,
                            const Mask& mask, LaneView<S> val) {
  charge_array(slot, flat, mask);
  const auto elems = static_cast<std::size_t>(slot.type.element_count());
  slot.with_cells([&](auto* data, auto conv) {
    lanes_.for_each_lane(mask, [&](std::size_t l) {
      const std::size_t i = l * elems + static_cast<std::size_t>(flat[l]);
      data[i] = conv(val.at(l));
      if (!slot.shadow.empty()) slot.shadow[i] = 1;
    });
  });
}

template <class I>
void BlockCore::flatten_dim(std::int64_t* flat, const std::string& name,
                            LaneView<I> idx, std::int64_t dim, bool first,
                            const Mask& mask, SourceLoc loc) {
  lanes_.for_each_lane(mask, [&](std::size_t l) {
    const std::int64_t i = arith::as_i(idx.at(l));
    if (i < 0 || i >= dim)
      bounds_fail(hazard::Rule::kIndexOutOfBounds, name, i, dim, loc);
    flat[l] = first ? i : flat[l] * dim + i;
  });
}

template <class A, class B, class Out>
void BlockCore::do_binmath(Builtin b, LaneView<A> x, LaneView<B> y,
                           const Mask& mask, Out out) {
  charge_issue(mask, b == Builtin::kPowf
                         ? 2 * opt_.timing.weights.fdiv_sqrt_transcendental
                         : opt_.timing.weights.alu);
  arith::with_binary_math(b, [&]<Builtin kFn>() {
    map_lanes(
        mask, out,
        [](auto p, auto q) { return arith::binary_math<kFn>(p, q); }, x, y);
  });
}

template <class V, class S, class W, class Out>
void BlockCore::do_shfl(Builtin b, const std::string& callee, LaneView<V> var,
                        LaneView<S> sel, LaneView<W> width, const Mask& mask,
                        Out out, SourceLoc loc, std::int32_t var_slot,
                        const std::string* var_name) {
  ++shfl_ops_;
  charge_issue(mask, opt_.timing.weights.shfl);
  lanes_.for_each_active_warp(mask, [&](int w, int, std::uint32_t) {
    charge_latency(w, spec_.shfl_latency_cycles);
  });
  auto* o = out_as<V>(out);
  // The init bits of the source variable, when it is one with per-lane
  // storage; the first lane that reads an unset one is reported.
  const Slot* vs = san_ && var_name && var_slot >= 0
                       ? &frame_[static_cast<std::size_t>(var_slot)]
                       : nullptr;
  if (vs && (!vs->type.is_scalar() || vs->shadow.empty())) vs = nullptr;
  // A broadcast width is checked once, which throws exactly where the
  // first active lane's check would.
  const std::int64_t splat_width = arith::as_i(width.splat);
  if (!width.vec && any(mask) && !lanes_.valid_shfl_width(splat_width))
    Lanes::shfl_width_fail();
  lanes_.for_each_active_warp(mask, [&](int, int base, std::uint32_t bits) {
    for (std::uint32_t rest = bits; rest; rest &= rest - 1) {
      const int lane = std::countr_zero(rest);
      const auto lu = static_cast<std::size_t>(base + lane);
      std::int64_t wdt = splat_width;
      if (width.vec) {
        wdt = arith::as_i(width.vec[lu]);
        if (!lanes_.valid_shfl_width(wdt)) Lanes::shfl_width_fail();
      }
      ShflRead r =
          lanes_.shfl_read(b, base, lane, arith::as_i(sel.at(lu)), wdt);
      if (san_) {
        if (r.why == ShflSource::kInRange &&
            !lanes_.lane_on(mask, static_cast<std::size_t>(r.src)))
          r.why = ShflSource::kInactive;
        if (r.why != ShflSource::kInRange)
          report_shfl_source(r.why, callee, r.src_lane, static_cast<int>(lu),
                             loc);
        if (vs && !vs->shadow[static_cast<std::size_t>(r.src)]) {
          san_report(HazardKind::kUninitRead, loc, static_cast<int>(lu),
                     hazard::shfl_uninit_source(
                         callee, var_name, r.src % lanes_.warp_size()));
          vs = nullptr;
        }
      }
      o[lu] = var.at(static_cast<std::size_t>(r.src));
    }
  });
}

template <class A, class B, class Out>
void BlockCore::dispatch_binop(ir::BinOp op, LaneView<A> a, LaneView<B> b,
                               const Mask& mask, Out out, SourceLoc loc) {
  arith::with_op(
      op,
      [&]<ir::BinOp kOp>() { binop_lanes<kOp>(a, b, mask, out, loc); },
      [](const char* what) { throw SimError(what); });
}

}  // namespace cudanp::sim::exec
