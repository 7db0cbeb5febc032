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

/// Builds the slot table and annotates the AST. Declarations are
/// name-keyed: re-declaring a name with the same type (loop bodies,
/// sibling blocks) resolves to the same slot. A declaration that collides with its name's visible binding — it
/// shadows a kernel parameter, or redeclares the name with a different
/// type — gets a fresh slot instead, and the references in its lexical
/// scope (the rest of the enclosing block, or of the for statement) bind
/// to that slot. Every other reference binds by name, so a use before the
/// first declaration still finds the slot (a runtime liveness bit
/// preserves the use-before-declare error).
class Binder {
 public:
  explicit Binder(const Kernel& kernel) {
    out_ = std::make_shared<BoundKernel>();
    out_->kernel = &kernel;
    for (std::size_t i = 0; i < kernel.params.size(); ++i) {
      SlotDecl sd;
      sd.name = kernel.params[i].name;
      sd.is_param = true;
      sd.param_index = i;
      by_name_.emplace(sd.name, static_cast<std::int32_t>(out_->slots.size()));
      out_->slots.push_back(std::move(sd));
      decl_types_.push_back(nullptr);
    }
    bind_stmt(*kernel.body);
    // Name-keyed references resolve last, so forward references see
    // declarations that come later in the walk.
    for (const VarRef* v : by_name_refs_) {
      auto it = by_name_.find(v->name);
      v->sim_slot = it == by_name_.end() ? kSlotUndeclared : it->second;
    }
  }

  [[nodiscard]] std::shared_ptr<const BoundKernel> take() {
    return std::move(out_);
  }

 private:
  using Scope = std::unordered_map<std::string, std::int32_t>;

  std::int32_t new_slot(const DeclStmt& d) {
    SlotDecl sd;
    sd.name = d.name;
    out_->slots.push_back(std::move(sd));
    decl_types_.push_back(&d.type);
    return static_cast<std::int32_t>(out_->slots.size()) - 1;
  }

  [[nodiscard]] const std::int32_t* scoped(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(name);
      if (f != it->end()) return &f->second;
    }
    return nullptr;
  }

  void bind_decl(const DeclStmt& d) {
    if (d.type.space == AddrSpace::kShared)
      out_->shared_words_bound +=
          static_cast<std::uint64_t>(d.type.element_count());
    std::int32_t slot;
    if (const std::int32_t* s = scoped(d.name)) {
      slot = *s;
    } else {
      auto [it, inserted] = by_name_.try_emplace(d.name, 0);
      if (inserted) it->second = new_slot(d);
      slot = it->second;
    }
    const Type* prev = decl_types_[static_cast<std::size_t>(slot)];
    if (prev == nullptr || !(*prev == d.type)) {
      slot = new_slot(d);
      scopes_.back()[d.name] = slot;
    }
    d.sim_slot = slot;
  }

  void bind_block(const Block& b) {
    scopes_.emplace_back();
    for (const auto& c : b.stmts) bind_stmt(*c);
    scopes_.pop_back();
  }

  /// Walks statements in for_each_stmt order (for: init, inc, body), so
  /// declarations claim slots in the same order as a plain pre-order walk.
  void bind_stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::kBlock:
        bind_block(static_cast<const Block&>(s));
        return;
      case StmtKind::kDecl: {
        // C scoping: the name is visible from its own initializer on.
        const auto& d = static_cast<const DeclStmt&>(s);
        bind_decl(d);
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
          // Geometry names take precedence over declared variables, like
          // the old is_builtin_geometry check before the map lookup.
          std::int32_t g = geometry_code(v.name);
          if (g >= 0) {
            v.sim_slot = kSlotGeomBase - g;
          } else if (const std::int32_t* s = scoped(v.name)) {
            v.sim_slot = *s;
          } else {
            by_name_refs_.push_back(&v);
          }
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
  std::unordered_map<std::string, std::int32_t> by_name_;
  /// Declared type per slot; null for parameters.
  std::vector<const Type*> decl_types_;
  /// Lexical overrides from colliding declarations, innermost last.
  std::vector<Scope> scopes_;
  std::vector<const VarRef*> by_name_refs_;
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
