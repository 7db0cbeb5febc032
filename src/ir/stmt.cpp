#include "ir/stmt.hpp"

namespace cudanp::ir {

const char* to_string(AssignOp op) {
  switch (op) {
    case AssignOp::kAssign: return "=";
    case AssignOp::kAdd: return "+=";
    case AssignOp::kSub: return "-=";
    case AssignOp::kMul: return "*=";
    case AssignOp::kDiv: return "/=";
  }
  return "?";
}

StmtPtr Block::clone() const { return clone_block(); }

BlockPtr Block::clone_block() const {
  auto b = std::make_unique<Block>(loc());
  b->stmts.reserve(stmts.size());
  for (const auto& s : stmts) b->stmts.push_back(s->clone());
  return b;
}

StmtPtr IfStmt::clone() const {
  return std::make_unique<IfStmt>(
      cond->clone(), then_body->clone_block(),
      else_body ? else_body->clone_block() : nullptr, loc());
}

StmtPtr ForStmt::clone() const {
  auto f = std::make_unique<ForStmt>(init ? init->clone() : nullptr,
                                     cond ? cond->clone() : nullptr,
                                     inc ? inc->clone() : nullptr,
                                     body->clone_block(), loc());
  f->pragma = pragma;
  return f;
}

StmtPtr WhileStmt::clone() const {
  return std::make_unique<WhileStmt>(cond->clone(), body->clone_block(),
                                     loc());
}

void for_each_stmt(const Stmt& s, const std::function<void(const Stmt&)>& fn) {
  fn(s);
  switch (s.kind()) {
    case StmtKind::kBlock:
      for (const auto& c : static_cast<const Block&>(s).stmts)
        for_each_stmt(*c, fn);
      break;
    case StmtKind::kIf: {
      const auto& i = static_cast<const IfStmt&>(s);
      for_each_stmt(*i.then_body, fn);
      if (i.else_body) for_each_stmt(*i.else_body, fn);
      break;
    }
    case StmtKind::kFor: {
      const auto& f = static_cast<const ForStmt&>(s);
      if (f.init) for_each_stmt(*f.init, fn);
      if (f.inc) for_each_stmt(*f.inc, fn);
      for_each_stmt(*f.body, fn);
      break;
    }
    case StmtKind::kWhile:
      for_each_stmt(*static_cast<const WhileStmt&>(s).body, fn);
      break;
    default:
      break;
  }
}

void for_each_stmt_mut(Stmt& s, const std::function<void(Stmt&)>& fn) {
  fn(s);
  switch (s.kind()) {
    case StmtKind::kBlock:
      for (auto& c : static_cast<Block&>(s).stmts) for_each_stmt_mut(*c, fn);
      break;
    case StmtKind::kIf: {
      auto& i = static_cast<IfStmt&>(s);
      for_each_stmt_mut(*i.then_body, fn);
      if (i.else_body) for_each_stmt_mut(*i.else_body, fn);
      break;
    }
    case StmtKind::kFor: {
      auto& f = static_cast<ForStmt&>(s);
      if (f.init) for_each_stmt_mut(*f.init, fn);
      if (f.inc) for_each_stmt_mut(*f.inc, fn);
      for_each_stmt_mut(*f.body, fn);
      break;
    }
    case StmtKind::kWhile:
      for_each_stmt_mut(*static_cast<WhileStmt&>(s).body, fn);
      break;
    default:
      break;
  }
}

void for_each_expr_in(const Stmt& s,
                      const std::function<void(const Expr&)>& fn) {
  for_each_stmt(s, [&](const Stmt& st) {
    switch (st.kind()) {
      case StmtKind::kDecl: {
        const auto& d = static_cast<const DeclStmt&>(st);
        if (d.init) for_each_expr(*d.init, fn);
        for (const auto& e : d.init_list) for_each_expr(*e, fn);
        break;
      }
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(st);
        for_each_expr(*a.lhs, fn);
        for_each_expr(*a.rhs, fn);
        break;
      }
      case StmtKind::kIf:
        for_each_expr(*static_cast<const IfStmt&>(st).cond, fn);
        break;
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(st);
        if (f.cond) for_each_expr(*f.cond, fn);
        break;
      }
      case StmtKind::kWhile:
        for_each_expr(*static_cast<const WhileStmt&>(st).cond, fn);
        break;
      case StmtKind::kExpr:
        for_each_expr(*static_cast<const ExprStmt&>(st).expr, fn);
        break;
      default:
        break;
    }
  });
}

}  // namespace cudanp::ir
