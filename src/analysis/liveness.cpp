#include "analysis/liveness.hpp"

#include "analysis/loop_info.hpp"

namespace cudanp::analysis {

using namespace cudanp::ir;

void collect_expr_uses(const Expr& e, std::set<std::string>& uses) {
  for_each_expr(e, [&](const Expr& sub) {
    if (sub.kind() == ExprKind::kVarRef) {
      const auto& v = static_cast<const VarRef&>(sub);
      if (!is_builtin_geometry(v.name)) uses.insert(v.name);
    }
  });
}

namespace {

void collect_into(const Stmt& s, VarSets& out) {
  switch (s.kind()) {
    case StmtKind::kBlock:
      for (const auto& c : static_cast<const Block&>(s).stmts)
        collect_into(*c, out);
      return;
    case StmtKind::kDecl: {
      const auto& d = static_cast<const DeclStmt&>(s);
      out.decls.insert(d.name);
      out.defs.insert(d.name);
      if (d.init) collect_expr_uses(*d.init, out.uses);
      for (const auto& e : d.init_list) collect_expr_uses(*e, out.uses);
      return;
    }
    case StmtKind::kAssign: {
      const auto& a = static_cast<const AssignStmt&>(s);
      collect_expr_uses(*a.rhs, out.uses);
      if (a.lhs->kind() == ExprKind::kVarRef) {
        const auto& v = static_cast<const VarRef&>(*a.lhs);
        out.defs.insert(v.name);
        // Compound assignment also reads the target.
        if (a.op != AssignOp::kAssign) out.uses.insert(v.name);
      } else if (a.lhs->kind() == ExprKind::kArrayIndex) {
        const auto& ai = static_cast<const ArrayIndex&>(*a.lhs);
        if (ai.base->kind() == ExprKind::kVarRef)
          out.defs.insert(static_cast<const VarRef&>(*ai.base).name);
        for (const auto& i : ai.indices) collect_expr_uses(*i, out.uses);
        if (a.op != AssignOp::kAssign) collect_expr_uses(*a.lhs, out.uses);
      }
      return;
    }
    case StmtKind::kIf: {
      const auto& i = static_cast<const IfStmt&>(s);
      collect_expr_uses(*i.cond, out.uses);
      collect_into(*i.then_body, out);
      if (i.else_body) collect_into(*i.else_body, out);
      return;
    }
    case StmtKind::kFor: {
      const auto& f = static_cast<const ForStmt&>(s);
      if (f.init) collect_into(*f.init, out);
      if (f.cond) collect_expr_uses(*f.cond, out.uses);
      if (f.inc) collect_into(*f.inc, out);
      collect_into(*f.body, out);
      return;
    }
    case StmtKind::kWhile: {
      const auto& w = static_cast<const WhileStmt&>(s);
      collect_expr_uses(*w.cond, out.uses);
      collect_into(*w.body, out);
      return;
    }
    case StmtKind::kExpr:
      collect_expr_uses(*static_cast<const ExprStmt&>(s).expr, out.uses);
      return;
    case StmtKind::kReturn:
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      return;
  }
}

}  // namespace

VarSets collect_vars(const Stmt& s) {
  VarSets out;
  collect_into(s, out);
  return out;
}

std::unordered_map<std::string, Type> build_symbol_table(const Kernel& k) {
  std::unordered_map<std::string, Type> table;
  for (const auto& p : k.params) table[p.name] = p.type;
  for_each_stmt(*k.body, [&](const Stmt& s) {
    if (s.kind() == StmtKind::kDecl) {
      const auto& d = static_cast<const DeclStmt&>(s);
      table[d.name] = d.type;
    }
  });
  return table;
}

std::set<std::string> uses_from(const Block& body, std::size_t from_index) {
  std::set<std::string> uses;
  for (std::size_t i = from_index; i < body.stmts.size(); ++i) {
    VarSets s = collect_vars(*body.stmts[i]);
    uses.insert(s.uses.begin(), s.uses.end());
  }
  return uses;
}

ParallelLoopLiveness analyze_parallel_loop(
    const Kernel& kernel, const ForStmt& loop,
    const std::set<std::string>& used_after) {
  ParallelLoopLiveness out;
  auto symbols = build_symbol_table(kernel);
  VarSets body = collect_vars(*loop.body);
  if (loop.cond) collect_expr_uses(*loop.cond, body.uses);
  std::string iterator;
  if (auto info = analyze_loop(loop)) iterator = info->iterator;

  for (const auto& name : body.uses) {
    if (name == iterator || body.decls.count(name)) continue;
    auto it = symbols.find(name);
    if (it == symbols.end()) continue;  // unknown: let transformer diagnose
    const Type& t = it->second;
    if (kernel.find_param(name))
      continue;  // parameters are uniform across all threads
    if (t.is_pointer || t.space == AddrSpace::kShared ||
        t.space == AddrSpace::kConstant)
      continue;  // already visible to all threads (Sec. 3.1)
    if (t.is_array() && t.space == AddrSpace::kLocal) {
      out.local_arrays.insert(name);
      continue;
    }
    if (t.is_scalar()) out.live_in.insert(name);
  }

  for (const auto& name : body.defs) {
    if (name == iterator || body.decls.count(name)) continue;
    auto it = symbols.find(name);
    if (it == symbols.end()) continue;
    const Type& t = it->second;
    if (t.is_array() && t.space == AddrSpace::kLocal)
      out.local_arrays.insert(name);
    if (!t.is_scalar() || t.space != AddrSpace::kRegister) continue;
    if (used_after.count(name)) out.live_out.insert(name);
  }
  return out;
}

}  // namespace cudanp::analysis
