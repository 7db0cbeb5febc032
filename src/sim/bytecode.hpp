// Per-launch bytecode lowering of a slot-bound kernel.
//
// The lowering pass walks the bound AST once per launch and emits a flat
// instruction stream with virtual registers and resolved jump targets;
// sim/vm.cpp executes it with a dispatch loop over SoA lane state. Every
// instruction maps 1:1 onto the exec::BlockCore helper the AST walker
// calls at the same point, in the same order, so charges, watchdog steps,
// hazard reports and error messages are bit-identical by construction.
//
// Operands distinguish registers, folded immediates, geometry lane
// caches, uniform kernel arguments and live slot storage; the last three
// are read in place at use, so straight-line arithmetic never copies a
// lane vector. Structural errors the AST raises while walking (unknown
// callee, wrong arity, non-array indexing, break/continue) lower to
// kTrap instructions carrying the precomposed message, positioned where
// the AST would throw.
//
// Lowering is total: the binder gives every slot one static type
// (sim/binder.hpp), unsupported declarations such as shared-memory
// scalars fail in BlockCore::declare exactly as on the AST walk, and a
// declaration the binder never saw lowers to a trap. The VM is the only
// production engine; the AST walker is kept as the test reference.
//
// Implementation detail of sim/; include only from the interpreter, the
// VM and their tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/binder.hpp"
#include "sim/memory.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim::bytecode {

enum class Op : std::uint8_t {
  kHalt,          ///< End of program.
  kGuard,         ///< Clear returned lanes; empty mask -> jump `target`.
  kStep,          ///< count_step(loc): watchdog + fault hook.
  kLeafBegin,     ///< begin_leaf_stmt (latency window open).
  kLeafEnd,       ///< end_leaf_stmt (latency window fold).
  kCharge,        ///< charge_issue(mask, weight[aux]).
  kTrap,          ///< throw SimError(names[name]).
  kVarGuard,      ///< var_read_check(slot): liveness/uninit, no copy.
  kCheckLive,     ///< slot_at(slot): liveness errors only.
  kStoreVar,      ///< store_var(slot, a).
  kDeclare,       ///< declare(decls[imm]).
  kDeclInit,      ///< decl_scalar_init(decls[imm], a).
  kDeclFill,      ///< decl_fill(decls[imm], element dst, lane 0 of a).
  kDeclShadow,    ///< decl_shadow_all(decls[imm]).
  kMaskLane0,     ///< Push the lane-0-only mask (brace initializers).
  kMaskPop,       ///< Pop one mask.
  kBin,           ///< dst = a (BinOp aux) b.
  kCompound,      ///< dst = a (BinOp aux) b, fixed ALU charge.
  kUn,            ///< dst = (UnOp aux) a.
  kCast,          ///< dst = (ScalarType aux) a.
  kSelect,        ///< dst = a ? b : c.
  kMath1,         ///< dst = fn[aux](a)  (unary math builtin).
  kAbs,           ///< dst = abs(a).
  kMath2,         ///< dst = (Builtin aux)(a, b)  (min/max/fminf/fmaxf/powf).
  kSync,          ///< __syncthreads().
  kShflGuard,     ///< sm_30+ check for the shfl family.
  kShflArgBegin,  ///< Push warp-broadened mask; suppress uninit checks.
  kShflArgEnd,    ///< Pop it.
  kShfl,          ///< dst = shfl(a=var, b=sel, c=width).
  kFlatten,       ///< flat[dst] = flat[dst] * imm + a (bounds-checked).
  kBufLoad,       ///< dst = buffer[slot][a].
  kBufStore,      ///< buffer[slot][a] = b.
  kSharedLoad,    ///< dst = shared[slot][flat a].
  kSharedStore,   ///< shared[slot][flat a] = b.
  kLocalLoad,     ///< dst = local/register/constant[slot][flat a].
  kLocalStore,    ///< local/register/constant[slot][flat a] = b.
  kIfSplit,       ///< Split mask on a; push arm masks; empty-then -> target.
  kIfElse,        ///< Pop then mask; empty else -> pop + jump target.
  kIfEnd,         ///< Pop the surviving arm mask.
  kLoopEnter,     ///< Push loop mask copy + watchdog loop scope.
  kLoopBackedge,  ///< count_step(loc) + back-edge counter.
  kMaskAnd,       ///< Clear lanes of the current mask where !truthy(a).
  kLoopCheck,     ///< Empty mask -> jump target; else ++iters, valve check.
  kLoopLatchFor,  ///< Clear returned; empty mask -> jump target (for latch).
  kClearReturned, ///< Clear returned lanes only (while latch).
  kLoopExit,      ///< Pop loop mask + watchdog loop scope.
  kJump,          ///< pc = target.
  kReturn,        ///< Mark active lanes returned.
};

/// Weight selector for kCharge.
enum class ChargeKind : std::uint8_t { kAlu };

/// Function selector for kMath1 (index into the VM's math table).
enum class MathFn : std::uint8_t {
  kSqrt, kFabs, kExp, kLog, kSin, kCos, kFloor, kRsqrt,
};

/// A value source: materialized register, folded immediate, geometry lane
/// cache, uniform kernel argument, or live scalar slot storage (the last
/// three are zero-copy views resolved at use).
struct Operand {
  enum class Kind : std::uint8_t {
    kNone, kReg, kImm, kGeom, kUniform, kSlotData,
  };
  Kind kind = Kind::kNone;
  std::int32_t id = 0;  ///< register index / geometry code / slot id
  Value imm{};

  [[nodiscard]] static Operand reg(std::int32_t r) {
    return {Kind::kReg, r, {}};
  }
  [[nodiscard]] static Operand immediate(Value v) {
    return {Kind::kImm, 0, v};
  }
  [[nodiscard]] static Operand geom(int code) {
    return {Kind::kGeom, code, {}};
  }
  [[nodiscard]] static Operand uniform(std::int32_t slot) {
    return {Kind::kUniform, slot, {}};
  }
  [[nodiscard]] static Operand slot_data(std::int32_t slot) {
    return {Kind::kSlotData, slot, {}};
  }
};

struct Instr {
  Op op = Op::kHalt;
  std::uint8_t aux = 0;      ///< BinOp/UnOp/ScalarType/Builtin/MathFn/flags
  std::int32_t dst = -1;     ///< destination register (or element index)
  std::int32_t slot = -1;    ///< frame slot id
  std::int32_t target = -1;  ///< jump target (instruction index)
  std::int32_t name = -1;    ///< index into Program::names
  std::int64_t imm = 0;      ///< decl index / dim extent / var-name index
  Operand a, b, c;
  SourceLoc loc{};
};

/// One lowered kernel launch. Immutable after lower(); shared by every
/// block (and every worker thread) of the launch.
struct Program {
  std::vector<Instr> code;
  /// Variable / callee names and precomposed trap messages.
  std::vector<std::string> names;
  /// Declaration statements, for kDeclare/kDeclInit/kDeclFill/kDeclShadow.
  std::vector<const ir::DeclStmt*> decls;
  int num_regs = 0;
  int max_mask_depth = 0;
  int max_loop_depth = 0;
};

/// Lowers a bound kernel to bytecode. Never fails and never returns null:
/// every construct the AST walker rejects lowers to the same error.
[[nodiscard]] std::shared_ptr<const Program> lower(const BoundKernel& bound);

}  // namespace cudanp::sim::bytecode
