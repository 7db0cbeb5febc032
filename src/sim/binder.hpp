// Slot binder: the once-per-kernel name-resolution prepass, and the one
// place names resolve and structural errors are decided: bytecode
// lowering, which the VM and the certifier both run, reads its
// annotations and raises its errors.
//
// The block-lockstep interpreter used to resolve every VarRef through an
// unordered_map<string, Slot> and every geometry name / builtin callee by
// string comparison, on every executed statement of every lane of every
// block. This binder walks the kernel AST once, assigns each parameter
// and declaration an integer slot in a flat frame, classifies geometry
// names and builtin callees, and stamps the results onto the AST's
// mutable annotation fields (VarRef::sim_slot, DeclStmt::sim_slot,
// CallExpr::sim_builtin). The per-thread eval loop then never touches a
// string or a hash map.
//
// Names resolve by C block scoping, once, at bind time: every
// declaration gets a slot of its own, and every reference binds to the
// innermost declaration visible at that point of the source (a block's
// or for statement's declarations are visible from their own
// initializer to the scope's end), then to the kernel parameters, else
// to kSlotUndeclared. Each slot therefore has one declaration and one
// static type (which is what makes bytecode lowering total,
// sim/bytecode.hpp), and every executed reference to a declared slot is
// dominated by its declaration, so no engine needs a liveness check.
//
// Structural errors are the constructs the simulator cannot run at all
// (docs/kernel_language.md lists them; BoundKernel::error is the code).
// Whether a node is one is a function of the annotations above, so
// BoundKernel::error composes the text from them on request; nothing
// else decides or words these errors. The errors stay lazy: lowering
// traps at the point evaluation reaches the node, so the VM and the
// certifier fail the same kernel there with the same message. A node
// added after binding reads as an internal "unbound" error.
//
// The binding is cached on the ir::Kernel itself (Kernel::sim_binding),
// so repeated launches of one kernel object — autotuner sweeps,
// NpCompiler::validate, the bench figures — bind once. The cache is
// lifetime-tied to the kernel and is not copied by Kernel::clone().
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "support/source_location.hpp"

namespace cudanp::sim {

/// Builtin callees, resolved once so eval dispatches on an integer.
/// A kNotBuiltin call is a structural error (BoundKernel::error).
enum class Builtin : std::int16_t {
  kNotBuiltin = -1,
  kSyncthreads,
  kShfl,
  kShflUp,
  kShflDown,
  kShflXor,
  kSqrt,
  kFabs,
  kExp,
  kLog,
  kSin,
  kCos,
  kFloor,
  kRsqrt,
  kAbs,
  kMin,
  kMax,
  kFminf,
  kFmaxf,
  kPowf,
};

/// __shfl, __shfl_up, __shfl_down or __shfl_xor.
[[nodiscard]] constexpr bool is_shfl(Builtin b) {
  return b >= Builtin::kShfl && b <= Builtin::kShflXor;
}

/// Arguments a call to builtin `b` must pass: (var, lane, width) for the
/// __shfl family, two for min, max, fminf, fmaxf and powf, one for the
/// other math builtins. __syncthreads' arguments are not checked.
[[nodiscard]] constexpr std::size_t builtin_arity(Builtin b) {
  if (is_shfl(b)) return 3;
  return b >= Builtin::kMin ? 2 : 1;
}

/// The operator a compound assignment (`+=`, `-=`, `*=`, `/=`) applies.
[[nodiscard]] constexpr ir::BinOp compound_op(ir::AssignOp op) {
  return op == ir::AssignOp::kAdd   ? ir::BinOp::kAdd
         : op == ir::AssignOp::kSub ? ir::BinOp::kSub
         : op == ir::AssignOp::kMul ? ir::BinOp::kMul
                                    : ir::BinOp::kDiv;
}

/// Geometry value codes, in the order the lane caches are laid out.
enum Geom : int {
  kGeomThreadIdxX = 0,
  kGeomThreadIdxY,
  kGeomThreadIdxZ,
  kGeomBlockIdxX,
  kGeomBlockIdxY,
  kGeomBlockIdxZ,
  kGeomBlockDimX,
  kGeomBlockDimY,
  kGeomBlockDimZ,
  kGeomGridDimX,
  kGeomGridDimY,
  kGeomGridDimZ,
  kGeomCount,
};

// VarRef::sim_slot encoding: values >= 0 index the block frame; negative
// values are the codes below.
/// No declaration of the name is in scope at the reference: a "use of
/// undeclared variable" error if the reference executes.
constexpr std::int32_t kSlotUndeclared = -1;
/// Geometry builtins: slot == kSlotGeomBase - geom_code.
constexpr std::int32_t kSlotGeomBase = -2;
/// Default annotation value of a node the binder has never visited (the
/// kernel was mutated after binding — an internal error if evaluated).
constexpr std::int32_t kSlotUnbound = std::numeric_limits<std::int32_t>::min();

/// The error for reading or writing through a reference the binder never
/// visited (the kernel was changed after binding).
[[nodiscard]] inline std::string unbound_ref_message(const std::string& name) {
  return "internal: unbound reference to '" + name +
         "' (kernel AST modified after slot binding)";
}

[[nodiscard]] constexpr bool slot_is_geometry(std::int32_t slot) {
  return slot <= kSlotGeomBase && slot != kSlotUnbound;
}
[[nodiscard]] constexpr int slot_geometry_code(std::int32_t slot) {
  return static_cast<int>(kSlotGeomBase - slot);
}

/// Static description of one frame slot.
struct SlotDecl {
  std::string name;  // for error messages and hazard reports only
  bool is_param = false;
  std::size_t param_index = 0;  // into Kernel::params when is_param
  const ir::DeclStmt* decl = nullptr;  // the declaration, unless is_param
};

/// The result of binding one kernel: the frame layout plus static size
/// hints. The AST annotations carry the per-node slot ids.
struct BoundKernel {
  const ir::Kernel* kernel = nullptr;
  std::vector<SlotDecl> slots;  // params first, then declarations
  /// Static upper bound on shared-memory words the kernel can declare;
  /// used to reserve the sanitizer's shared shadow map up front.
  std::uint64_t shared_words_bound = 0;

  [[nodiscard]] std::size_t num_slots() const { return slots.size(); }

  /// The structural error evaluation raises on reaching `s`, if any: a
  /// declaration (before its initializer), an assignment to a variable
  /// (after its right side; an indexed target is the access's error), or
  /// break/continue.
  [[nodiscard]] std::optional<std::string> error(const ir::Stmt& s) const;
  /// The structural error evaluation raises on reaching `e`, if any: a
  /// variable read as a value, an array access (before its indices), or
  /// a call (before its arguments; a __shfl call after the sm_30 check).
  [[nodiscard]] std::optional<std::string> error(const ir::Expr& e) const;
};

/// CallExpr::sim_builtin value of a node the binder never visited
/// (matches the field's default in ir/expr.hpp).
constexpr std::int16_t kBuiltinUnset = -32768;

/// String -> Builtin resolution, the slow path the binder runs once per
/// call site.
[[nodiscard]] Builtin resolve_builtin(const std::string& callee);

/// The builtin a call site names: its annotation, or the name resolved
/// now for a call added after binding.
[[nodiscard]] inline Builtin call_builtin(const ir::CallExpr& c) {
  return c.sim_builtin == kBuiltinUnset ? resolve_builtin(c.callee)
                                        : static_cast<Builtin>(c.sim_builtin);
}

/// Binds `kernel` (or returns its cached binding). Thread-safe: concurrent
/// callers serialize on an internal mutex and the annotations are fully
/// written before the shared_ptr is published.
[[nodiscard]] std::shared_ptr<const BoundKernel> bind_kernel(
    const ir::Kernel& kernel);

}  // namespace cudanp::sim
