#include "sim/binder.hpp"

#include <mutex>
#include <unordered_map>

namespace cudanp::sim {

using namespace cudanp::ir;

namespace {

[[nodiscard]] std::int32_t geometry_code(const std::string& name) {
  if (name == "threadIdx.x") return kGeomThreadIdxX;
  if (name == "threadIdx.y") return kGeomThreadIdxY;
  if (name == "threadIdx.z") return kGeomThreadIdxZ;
  if (name == "blockIdx.x") return kGeomBlockIdxX;
  if (name == "blockIdx.y") return kGeomBlockIdxY;
  if (name == "blockIdx.z") return kGeomBlockIdxZ;
  if (name == "blockDim.x") return kGeomBlockDimX;
  if (name == "blockDim.y") return kGeomBlockDimY;
  if (name == "blockDim.z") return kGeomBlockDimZ;
  if (name == "gridDim.x") return kGeomGridDimX;
  if (name == "gridDim.y") return kGeomGridDimY;
  if (name == "gridDim.z") return kGeomGridDimZ;
  return -1;
}

}  // namespace

Builtin resolve_builtin(const std::string& f) {
  if (f == "__syncthreads") return Builtin::kSyncthreads;
  if (f == "__shfl") return Builtin::kShfl;
  if (f == "__shfl_up") return Builtin::kShflUp;
  if (f == "__shfl_down") return Builtin::kShflDown;
  if (f == "__shfl_xor") return Builtin::kShflXor;
  if (f == "sqrtf" || f == "sqrt") return Builtin::kSqrt;
  if (f == "fabsf" || f == "fabs") return Builtin::kFabs;
  if (f == "expf" || f == "exp" || f == "__expf") return Builtin::kExp;
  if (f == "logf" || f == "log" || f == "__logf") return Builtin::kLog;
  if (f == "sinf" || f == "__sinf") return Builtin::kSin;
  if (f == "cosf" || f == "__cosf") return Builtin::kCos;
  if (f == "floorf") return Builtin::kFloor;
  if (f == "rsqrtf") return Builtin::kRsqrt;
  if (f == "abs") return Builtin::kAbs;
  if (f == "min") return Builtin::kMin;
  if (f == "max") return Builtin::kMax;
  if (f == "fminf") return Builtin::kFminf;
  if (f == "fmaxf") return Builtin::kFmaxf;
  if (f == "powf") return Builtin::kPowf;
  return Builtin::kNotBuiltin;
}

namespace {

/// The declared type of a bound slot; null for a sentinel, or a slot
/// number from another binding.
[[nodiscard]] const Type* slot_type(const BoundKernel& bk, std::int32_t slot) {
  if (slot < 0 || static_cast<std::size_t>(slot) >= bk.slots.size())
    return nullptr;
  const SlotDecl& sd = bk.slots[static_cast<std::size_t>(slot)];
  return sd.is_param ? &bk.kernel->params[sd.param_index].type
                     : &sd.decl->type;
}

/// A reference whose slot names no variable: undeclared, a geometry name
/// where a variable is required, or a node added after binding.
[[nodiscard]] std::string unresolved(std::int32_t slot, const std::string& name,
                                     SourceLoc loc) {
  if (slot == kSlotUnbound || slot >= 0) return unbound_ref_message(name);
  return "use of undeclared variable '" + name + "' at " + loc.str();
}

}  // namespace

std::optional<std::string> BoundKernel::error(const Stmt& s) const {
  switch (s.kind()) {
    case StmtKind::kDecl: {
      const auto& d = static_cast<const DeclStmt&>(s);
      const Type& t = d.type;
      // Composed only on the error paths: engines ask on every execution.
      auto at = [&] { return " at " + d.loc().str(); };
      if (!slot_type(*this, d.sim_slot))
        return "internal: unbound declaration of '" + d.name +
               "' (kernel AST modified after slot binding)";
      if (t.space == AddrSpace::kShared && !t.is_array())
        return "unsupported construct: shared-memory scalar '" + d.name + "'" +
               at() + "; declare a one-element __shared__ array instead";
      if (t.scalar == ScalarType::kVoid)
        return "unsupported construct: void variable '" + d.name + "'" + at();
      if (t.space == AddrSpace::kShared && !d.init_list.empty())
        return "unsupported construct: initializer on __shared__ array '" +
               d.name + "'" + at() + "; shared memory takes no initializer";
      if (static_cast<std::int64_t>(d.init_list.size()) > t.element_count())
        return "too many initializers for '" + d.name + "'";
      if (d.init && t.is_array())
        return "array initializers are not supported" + at();
      return std::nullopt;
    }
    case StmtKind::kAssign: {
      const auto& a = static_cast<const AssignStmt&>(s);
      if (a.lhs->kind() == ExprKind::kArrayIndex) return std::nullopt;
      if (a.lhs->kind() != ExprKind::kVarRef)
        return "invalid assignment target at " + a.loc().str();
      const auto& v = static_cast<const VarRef&>(*a.lhs);
      const Type* t = slot_type(*this, v.sim_slot);
      if (!t) return unresolved(v.sim_slot, v.name, v.loc());
      if (t->is_pointer || t->is_array())
        return "cannot assign to '" + v.name + "' without an index";
      if (slots[static_cast<std::size_t>(v.sim_slot)].is_param)
        return "cannot assign to kernel parameter '" + v.name +
               "' (treated as uniform)";
      return std::nullopt;
    }
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      return "break/continue are not supported by the simulator; use a "
             "guarding if (paper Sec. 3.7 padding uses `if (i < n)`)";
    default:
      return std::nullopt;
  }
}

std::optional<std::string> BoundKernel::error(const Expr& e) const {
  switch (e.kind()) {
    case ExprKind::kVarRef: {
      const auto& v = static_cast<const VarRef&>(e);
      if (slot_is_geometry(v.sim_slot)) return std::nullopt;
      const Type* t = slot_type(*this, v.sim_slot);
      if (!t) return unresolved(v.sim_slot, v.name, v.loc());
      if (t->is_pointer)
        return "pointer '" + v.name +
               "' used as a value (only indexing is supported)";
      if (t->is_array()) return "array '" + v.name + "' used without an index";
      return std::nullopt;
    }
    case ExprKind::kArrayIndex: {
      const auto& ai = static_cast<const ArrayIndex&>(e);
      auto at = [&] { return " at " + ai.loc().str(); };
      if (ai.base->kind() != ExprKind::kVarRef)
        return "array base must be a variable" + at();
      const auto& base = static_cast<const VarRef&>(*ai.base);
      const std::string& name = base.name;
      const Type* t = slot_type(*this, base.sim_slot);
      if (!t) return unresolved(base.sim_slot, name, ai.loc());
      // Only a pointer parameter names a buffer, and only a declared
      // array has cells: a local pointer variable has no storage to index.
      const bool param = slots[static_cast<std::size_t>(base.sim_slot)].is_param;
      if (param && t->is_pointer) {
        if (ai.indices.size() == 1) return std::nullopt;
        return "pointer '" + name + "' requires exactly one index";
      }
      if (param || !t->is_array())
        return "'" + name + "' is not an array" + at();
      if (ai.indices.size() != t->array_dims.size())
        return "array '" + name + "' has " +
               std::to_string(t->array_dims.size()) + " dims, indexed with " +
               std::to_string(ai.indices.size()) + at();
      if (t->space == AddrSpace::kGlobal)
        return "unsupported address space for array '" + name + "'";
      return std::nullopt;
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const CallExpr&>(e);
      const Builtin b = call_builtin(c);
      auto at = [&] { return " at " + c.loc().str(); };
      if (b == Builtin::kNotBuiltin)
        return "unknown function '" + c.callee + "'" + at();
      const std::size_t arity = builtin_arity(b);
      if (b == Builtin::kSyncthreads || c.args.size() == arity)
        return std::nullopt;
      if (is_shfl(b)) return c.callee + " expects (var, lane, width)" + at();
      return c.callee + " expects " + std::to_string(arity) +
             (arity == 1 ? " argument" : " arguments") + at();
    }
    default:
      return std::nullopt;
  }
}

namespace {

/// Builds the slot table and annotates the AST under C block scoping:
/// every declaration gets a slot of its own, visible from its own
/// initializer to the end of the enclosing block (or for statement), and
/// every reference binds at bind time to the innermost visible
/// declaration, then to the parameters, else to kSlotUndeclared.
class Binder {
 public:
  explicit Binder(const Kernel& kernel) {
    out_ = std::make_shared<BoundKernel>();
    out_->kernel = &kernel;
    scopes_.emplace_back();  // the parameters' scope
    for (std::size_t i = 0; i < kernel.params.size(); ++i) {
      SlotDecl sd;
      sd.name = kernel.params[i].name;
      sd.is_param = true;
      sd.param_index = i;
      add_slot(std::move(sd));
    }
    bind_stmt(*kernel.body);
  }

  [[nodiscard]] std::shared_ptr<const BoundKernel> take() {
    return std::move(out_);
  }

 private:
  using Scope = std::unordered_map<std::string, std::int32_t>;

  /// Appends a slot and makes its name visible in the innermost scope.
  std::int32_t add_slot(SlotDecl sd) {
    const auto slot = static_cast<std::int32_t>(out_->slots.size());
    scopes_.back()[sd.name] = slot;
    out_->slots.push_back(std::move(sd));
    return slot;
  }

  [[nodiscard]] std::int32_t resolve(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(name);
      if (f != it->end()) return f->second;
    }
    return kSlotUndeclared;
  }

  void bind_block(const Block& b) {
    scopes_.emplace_back();
    for (const auto& c : b.stmts) bind_stmt(*c);
    scopes_.pop_back();
  }

  /// Walks statements in source order (for: init, cond, inc, body).
  void bind_stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::kBlock:
        bind_block(static_cast<const Block&>(s));
        return;
      case StmtKind::kDecl: {
        // C scoping: the name is visible from its own initializer on.
        const auto& d = static_cast<const DeclStmt&>(s);
        if (d.type.space == AddrSpace::kShared)
          out_->shared_words_bound +=
              static_cast<std::uint64_t>(d.type.element_count());
        SlotDecl sd;
        sd.name = d.name;
        sd.decl = &d;
        d.sim_slot = add_slot(std::move(sd));
        if (d.init) bind_expr(*d.init);
        for (const auto& e : d.init_list) bind_expr(*e);
        return;
      }
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        bind_expr(*a.lhs);
        bind_expr(*a.rhs);
        return;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        bind_expr(*i.cond);
        bind_block(*i.then_body);
        if (i.else_body) bind_block(*i.else_body);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        scopes_.emplace_back();  // the init declarations' scope
        if (f.init && f.init->kind() == StmtKind::kBlock) {
          // `int i = 0, k = 0`: the declarators share the for scope.
          for (const auto& d : static_cast<const Block&>(*f.init).stmts)
            bind_stmt(*d);
        } else if (f.init) {
          bind_stmt(*f.init);
        }
        if (f.cond) bind_expr(*f.cond);
        if (f.inc) bind_stmt(*f.inc);
        bind_block(*f.body);
        scopes_.pop_back();
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        bind_expr(*w.cond);
        bind_block(*w.body);
        return;
      }
      case StmtKind::kExpr:
        bind_expr(*static_cast<const ExprStmt&>(s).expr);
        return;
      default:
        return;
    }
  }

  void bind_expr(const Expr& e) {
    for_each_expr(e, [&](const Expr& x) {
      switch (x.kind()) {
        case ExprKind::kVarRef: {
          const auto& v = static_cast<const VarRef&>(x);
          // Geometry names take precedence over declared variables.
          std::int32_t g = geometry_code(v.name);
          v.sim_slot = g >= 0 ? kSlotGeomBase - g : resolve(v.name);
          return;
        }
        case ExprKind::kCall: {
          const auto& c = static_cast<const CallExpr&>(x);
          c.sim_builtin = static_cast<std::int16_t>(resolve_builtin(c.callee));
          return;
        }
        default:
          return;
      }
    });
  }

  std::shared_ptr<BoundKernel> out_;
  /// Visible names, innermost scope last.
  std::vector<Scope> scopes_;
};

std::mutex g_bind_mutex;

}  // namespace

std::shared_ptr<const BoundKernel> bind_kernel(const Kernel& kernel) {
  std::lock_guard<std::mutex> lock(g_bind_mutex);
  if (kernel.sim_binding)
    return std::static_pointer_cast<const BoundKernel>(kernel.sim_binding);
  Binder binder(kernel);
  auto bound = binder.take();
  kernel.sim_binding = bound;
  return bound;
}

}  // namespace cudanp::sim
