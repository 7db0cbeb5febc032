// Slot binder: the interpreter's once-per-kernel name-resolution prepass.
//
// The block-lockstep interpreter used to resolve every VarRef through an
// unordered_map<string, Slot> and every geometry name / builtin callee by
// string comparison, on every executed statement of every lane of every
// block. This binder walks the kernel AST once, assigns each distinct
// variable name an integer slot in a flat frame, classifies geometry
// names and builtin callees, and stamps the results onto the AST's
// mutable annotation fields (VarRef::sim_slot, DeclStmt::sim_slot,
// CallExpr::sim_builtin). The per-thread eval loop then never touches a
// string or a hash map.
//
// A declaration that shadows a kernel parameter, or redeclares a name
// with a different type, gets a slot of its own that the references in
// its lexical scope bind to; every slot therefore has one static type,
// which is what makes bytecode lowering total (sim/bytecode.hpp).
//
// Semantics are preserved exactly, including error behaviour: names that
// never resolve are bound to a sentinel and still throw the original
// "use of undeclared variable" SimError lazily, only if the reference is
// actually executed; unknown callees likewise throw only when called.
//
// The binding is cached on the ir::Kernel itself (Kernel::sim_binding),
// so repeated launches of one kernel object — autotuner sweeps,
// NpCompiler::validate, the bench figures — bind once. The cache is
// lifetime-tied to the kernel and is not copied by Kernel::clone().
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ir/kernel.hpp"

namespace cudanp::sim {

/// Builtin callees, resolved once so eval dispatches on an integer.
/// kNotBuiltin calls throw "unknown function" lazily at execution time.
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
/// Name never declared anywhere in the kernel: throws "use of undeclared
/// variable" if the reference executes.
constexpr std::int32_t kSlotUndeclared = -1;
/// Geometry builtins: slot == kSlotGeomBase - geom_code.
constexpr std::int32_t kSlotGeomBase = -2;
/// Default annotation value of a node the binder has never visited (the
/// kernel was mutated after binding — an internal error if evaluated).
constexpr std::int32_t kSlotUnbound = std::numeric_limits<std::int32_t>::min();

/// The error for executing a declaration the binder never visited; raised
/// by BlockCore::declare and lowered to a trap by the bytecode pass.
[[nodiscard]] inline std::string unbound_decl_message(const std::string& name) {
  return "internal: unbound declaration of '" + name +
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
};

/// CallExpr::sim_builtin value of a node the binder never visited
/// (matches the field's default in ir/expr.hpp).
constexpr std::int16_t kBuiltinUnset = -32768;

/// String -> Builtin resolution, the slow path the binder runs once per
/// call site (and eval falls back to for unbound nodes).
[[nodiscard]] Builtin resolve_builtin(const std::string& callee);

/// Binds `kernel` (or returns its cached binding). Thread-safe: concurrent
/// callers serialize on an internal mutex and the annotations are fully
/// written before the shared_ptr is published.
[[nodiscard]] std::shared_ptr<const BoundKernel> bind_kernel(
    const ir::Kernel& kernel);

}  // namespace cudanp::sim
