// Per-launch bytecode lowering of a slot-bound kernel.
//
// The lowering pass walks the bound AST once per launch and emits a flat
// instruction stream with virtual registers and resolved jump targets;
// sim/vm.cpp executes it with a dispatch loop over SoA lane state, and
// the certifier's symbolic executor (sim/symexec.cpp) interprets the same
// program on expression nodes, so this pass alone defines how every
// construct evaluates. Every instruction maps 1:1 onto an exec::BlockCore
// helper, called in the kernel's source evaluation order, so charges,
// watchdog steps, hazard reports and error messages come from one piece
// of code; each control op is one exec::Regions method (sim/lanes.hpp).
//
// Operands distinguish registers, folded immediates, geometry lane
// caches, uniform kernel arguments and live slot storage; the last three
// are read in place at use, so straight-line arithmetic never copies a
// lane vector. Every operand and register has a static lane type (int64
// or f32-in-double): slots take their declared type, immediates, geometry
// and uniform arguments their known types, buffer loads the element type
// of the buffer bound at this launch, and operators the result type
// sim/arith.hpp defines. The VM keeps registers as plain typed lane
// arrays on that basis. Structural errors come from the binder
// (BoundKernel::error, sim/binder.hpp): wherever evaluation reaches a
// node the binder judges invalid, lowering emits a kTrap carrying the
// binder's text. Lowering composes no error text of its own.
//
// Lowering is total: the binder gives every slot one static type, and
// every construct it rejects lowers to a trap. The VM is the only
// concrete engine.
//
// Implementation detail of sim/; include only from the interpreter, the
// VM, the certifier's evaluator (sim/symexec.cpp) and their tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/binder.hpp"
#include "sim/memory.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim::bytecode {

enum class Op : std::uint8_t {
  kHalt,          ///< End of program.
  kGuard,         ///< guard: clear returned lanes; empty mask -> target.
  kStep,          ///< count_step(loc): watchdog + fault hook.
  kLeafBegin,     ///< begin_leaf_stmt (latency window open).
  kLeafEnd,       ///< end_leaf_stmt (latency window fold).
  kCharge,        ///< charge_issue(mask, weight[aux]).
  kTrap,          ///< throw SimError(names[name]).
  kVarGuard,      ///< var_read_check(slot): sanitizer uninit check, no copy.
  kStoreVar,      ///< store_var(slot, a).
  kDeclare,       ///< declare(the declaration of slot).
  kDeclInit,      ///< store_var(slot, a): a declaration's initializer.
  kDeclFill,      ///< decl_fill(slot, element dst, a): per active lane.
  kDeclTail,      ///< decl_tail(slot, elements from dst): zero + mark set.
  kBin,           ///< dst = a (BinOp aux) b.
  kCompound,      ///< dst = a (BinOp aux) b, fixed ALU charge.
  kUn,            ///< dst = (UnOp aux) a.
  kCast,          ///< dst = (ScalarType aux) a.
  kSelect,        ///< dst = a ? b : c.
  kMath1,         ///< dst = (Builtin aux)(a)  (sqrtf .. rsqrtf).
  kAbs,           ///< dst = abs(a).
  kMath2,         ///< dst = (Builtin aux)(a, b)  (min/max/fminf/fmaxf/powf).
  kSync,          ///< __syncthreads().
  kShflGuard,     ///< sm_30+ check for the shfl family.
  kShflArgBegin,  ///< shfl_arg_begin: push warp-broadened mask, no uninit.
  kShflArgEnd,    ///< shfl_arg_end: pop it.
  kShfl,          ///< dst = shfl(a=var, b=sel, c=width).
  kFlatten,       ///< flat[dst] = flat[dst] * imm + a (bounds-checked);
                  ///< name: the array's.
  kBufLoad,       ///< dst = buffer[slot][a].
  kBufStore,      ///< buffer[slot][a] = b.
  kSharedLoad,    ///< dst = shared[slot][flat a].
  kSharedStore,   ///< shared[slot][flat a] = b.
  kLocalLoad,     ///< dst = local/register/constant[slot][flat a].
  kLocalStore,    ///< local/register/constant[slot][flat a] = b.
  // Control ops name the exec::Regions method they run (as kGuard and
  // kShflArg* do); a true result jumps to `target`.
  kIfSplit,       ///< if_split on a (aux 1: has else); empty then -> target.
  kIfElse,        ///< if_else: pop then mask; empty else -> pop + target.
  kIfEnd,         ///< if_end: pop the surviving arm mask.
  kLoopEnter,     ///< loop_enter: push loop mask copy, open the loop.
  kLoopBackedge,  ///< count_step(loc), then backedge.
  kMaskAnd,       ///< Clear lanes of the current mask where !truthy(a);
                  ///< aux 1: a while condition, 0: a for condition.
  kLoopCheck,     ///< loop_check: empty mask -> target; else the valve.
  kLoopLatchFor,  ///< guard, at a for latch.
  kClearReturned, ///< clear_returned, at a while latch.
  kLoopExit,      ///< loop_exit: pop loop mask, close the loop.
  kJump,          ///< pc = target.
  kReturn,        ///< ret: mark the active lanes returned.
};

/// Weight selector for kCharge.
enum class ChargeKind : std::uint8_t { kAlu };

/// Static lane type of an operand or register.
using LaneType = Value::Tag;

/// A value source: materialized register, folded immediate, geometry lane
/// cache, uniform kernel argument, or live scalar slot storage (the last
/// three are zero-copy views resolved at use).
struct Operand {
  enum class Kind : std::uint8_t {
    kNone, kReg, kImm, kGeom, kUniform, kSlotData,
  };
  Kind kind = Kind::kNone;
  LaneType type = LaneType::kInt;
  std::int32_t id = 0;  ///< register index / geometry code / slot id
  Value imm{};

  [[nodiscard]] bool is_float() const { return type == LaneType::kFloat; }

  [[nodiscard]] static Operand reg(std::int32_t r, LaneType t) {
    return {Kind::kReg, t, r, {}};
  }
  [[nodiscard]] static Operand immediate(Value v) {
    return {Kind::kImm, v.tag, 0, v};
  }
  [[nodiscard]] static Operand geom(int code) {
    return {Kind::kGeom, LaneType::kInt, code, {}};
  }
  [[nodiscard]] static Operand uniform(std::int32_t slot, LaneType t) {
    return {Kind::kUniform, t, slot, {}};
  }
  [[nodiscard]] static Operand slot_data(std::int32_t slot, LaneType t) {
    return {Kind::kSlotData, t, slot, {}};
  }
};

struct Instr {
  Op op = Op::kHalt;
  std::uint8_t aux = 0;      ///< BinOp/UnOp/ScalarType/Builtin/flags
  std::int32_t dst = -1;     ///< destination register (or element index)
  std::int32_t slot = -1;    ///< frame slot id
  std::int32_t target = -1;  ///< jump target (instruction index)
  std::int32_t name = -1;    ///< index into Program::names
  std::int64_t imm = 0;      ///< dim extent / var-name index
  Operand a, b, c;
  SourceLoc loc{};
};

/// One lowered kernel launch. Immutable after lower(); shared by every
/// block (and every worker thread) of the launch.
struct Program {
  std::vector<Instr> code;
  /// Variable / callee names and precomposed trap messages.
  std::vector<std::string> names;
  /// Per kernel parameter: the element type the program's buffer loads
  /// were typed with (pointer parameters; the declared type elsewhere).
  std::vector<ir::ScalarType> buffer_types;
  int num_regs = 0;
};

/// Lowers a bound kernel to bytecode. Never fails and never returns null:
/// every construct the simulator rejects lowers to a trap raising its
/// error.
/// `buffer_types[p]` is the element type of the buffer bound to pointer
/// parameter p at this launch; a missing entry falls back to the
/// parameter's declared pointee type.
[[nodiscard]] std::shared_ptr<const Program> lower(
    const BoundKernel& bound,
    std::span<const ir::ScalarType> buffer_types = {});

}  // namespace cudanp::sim::bytecode
