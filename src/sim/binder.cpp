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
