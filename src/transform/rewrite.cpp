#include "transform/rewrite.hpp"

namespace cudanp::transform {

using namespace cudanp::ir;

void rewrite_exprs(ExprPtr& e, const std::function<void(ExprPtr&)>& fn) {
  switch (e->kind()) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kVarRef:
      break;
    case ExprKind::kArrayIndex: {
      auto& ai = static_cast<ArrayIndex&>(*e);
      rewrite_exprs(ai.base, fn);
      for (auto& i : ai.indices) rewrite_exprs(i, fn);
      break;
    }
    case ExprKind::kBinary: {
      auto& b = static_cast<BinaryExpr&>(*e);
      rewrite_exprs(b.lhs, fn);
      rewrite_exprs(b.rhs, fn);
      break;
    }
    case ExprKind::kUnary:
      rewrite_exprs(static_cast<UnaryExpr&>(*e).operand, fn);
      break;
    case ExprKind::kCall:
      for (auto& a : static_cast<CallExpr&>(*e).args) rewrite_exprs(a, fn);
      break;
    case ExprKind::kTernary: {
      auto& t = static_cast<TernaryExpr&>(*e);
      rewrite_exprs(t.cond, fn);
      rewrite_exprs(t.then_value, fn);
      rewrite_exprs(t.else_value, fn);
      break;
    }
    case ExprKind::kCast:
      rewrite_exprs(static_cast<CastExpr&>(*e).operand, fn);
      break;
  }
  fn(e);
}

void rewrite_exprs(Stmt& s, const std::function<void(ExprPtr&)>& fn) {
  switch (s.kind()) {
    case StmtKind::kBlock:
      for (auto& c : static_cast<Block&>(s).stmts) rewrite_exprs(*c, fn);
      return;
    case StmtKind::kDecl: {
      auto& d = static_cast<DeclStmt&>(s);
      if (d.init) rewrite_exprs(d.init, fn);
      for (auto& e : d.init_list) rewrite_exprs(e, fn);
      return;
    }
    case StmtKind::kAssign: {
      auto& a = static_cast<AssignStmt&>(s);
      rewrite_exprs(a.lhs, fn);
      rewrite_exprs(a.rhs, fn);
      return;
    }
    case StmtKind::kIf: {
      auto& i = static_cast<IfStmt&>(s);
      rewrite_exprs(i.cond, fn);
      rewrite_exprs(*i.then_body, fn);
      if (i.else_body) rewrite_exprs(*i.else_body, fn);
      return;
    }
    case StmtKind::kFor: {
      auto& f = static_cast<ForStmt&>(s);
      if (f.init) rewrite_exprs(*f.init, fn);
      if (f.cond) rewrite_exprs(f.cond, fn);
      if (f.inc) rewrite_exprs(*f.inc, fn);
      rewrite_exprs(*f.body, fn);
      return;
    }
    case StmtKind::kWhile: {
      auto& w = static_cast<WhileStmt&>(s);
      rewrite_exprs(w.cond, fn);
      rewrite_exprs(*w.body, fn);
      return;
    }
    case StmtKind::kExpr:
      rewrite_exprs(static_cast<ExprStmt&>(s).expr, fn);
      return;
    case StmtKind::kReturn:
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      return;
  }
}

void replace_var(Stmt& s, const std::string& name,
                 const std::function<ExprPtr()>& make) {
  rewrite_exprs(s, [&](ExprPtr& e) {
    if (e->kind() == ExprKind::kVarRef &&
        static_cast<const VarRef&>(*e).name == name)
      e = make();
  });
}

void rename_var(Stmt& s, const std::string& from, const std::string& to) {
  rewrite_exprs(s, [&](ExprPtr& e) {
    if (e->kind() == ExprKind::kVarRef) {
      auto& v = static_cast<VarRef&>(*e);
      if (v.name == from) v.name = to;
    }
  });
}

}  // namespace cudanp::transform
