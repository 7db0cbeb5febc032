// Lowering from the slot-bound kernel AST to the flat bytecode the VM
// executes (sim/vm.cpp). The pass mirrors the AST walker's evaluation
// order instruction-for-instruction: every charge, watchdog step, mask
// operation and error site is emitted at the exact point the recursive
// walk would reach it, so the two engines are bit-identical by
// construction. See sim/bytecode.hpp for the instruction set.

#include "sim/bytecode.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "ir/kernel.hpp"

namespace cudanp::sim::bytecode {

using namespace cudanp::ir;

namespace {

/// Static classification of one frame slot, folded from the parameter
/// list and every declaration binding to it.
struct SlotInfo {
  enum class Kind : std::uint8_t { kNone, kBufferParam, kUniformParam, kDecl };
  Kind kind = Kind::kNone;
  Type type;  // meaningful for kDecl
};

class Lowerer {
 public:
  explicit Lowerer(const BoundKernel& bound) : bound_(bound) {}

  std::shared_ptr<const Program> run() {
    const Kernel& k = *bound_.kernel;
    info_.resize(bound_.num_slots());
    for (std::size_t i = 0; i < bound_.slots.size(); ++i) {
      if (!bound_.slots[i].is_param) continue;
      const Param& p = k.params[bound_.slots[i].param_index];
      info_[i].kind = p.type.is_pointer ? SlotInfo::Kind::kBufferParam
                                        : SlotInfo::Kind::kUniformParam;
      info_[i].type = p.type;
    }
    scan(*k.body);
    lower_block(*k.body);
    emit(Op::kHalt);
    prog_.num_regs = max_regs_;
    prog_.max_mask_depth = max_depth_;
    prog_.max_loop_depth = max_loops_;
    return std::make_shared<const Program>(std::move(prog_));
  }

 private:
  // ---------------- static slot typing ----------------
  /// Collects every declaration and records its slot's type. The binder
  /// gives each declaration slot one static type, so this never conflicts;
  /// an unbound declaration (AST mutated after binding) stays out of the
  /// table and lowers to a trap.
  void scan(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::kBlock:
        for (const auto& c : static_cast<const Block&>(s).stmts) scan(*c);
        return;
      case StmtKind::kDecl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        if (d.sim_slot < 0) return;
        SlotInfo& si = info_[static_cast<std::size_t>(d.sim_slot)];
        si.kind = SlotInfo::Kind::kDecl;
        si.type = d.type;
        prog_.decls.push_back(&d);
        decl_index_.emplace(&d, static_cast<std::int64_t>(prog_.decls.size()) -
                                    1);
        return;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        scan(*i.then_body);
        if (i.else_body) scan(*i.else_body);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.init) scan(*f.init);
        scan(*f.body);
        if (f.inc) scan(*f.inc);
        return;
      }
      case StmtKind::kWhile:
        scan(*static_cast<const WhileStmt&>(s).body);
        return;
      default:
        return;
    }
  }

  [[nodiscard]] const SlotInfo* info(std::int32_t slot) const {
    if (slot < 0 || static_cast<std::size_t>(slot) >= info_.size())
      return nullptr;
    return &info_[static_cast<std::size_t>(slot)];
  }

  // ---------------- emission ----------------
  std::size_t emit(Instr in) {
    prog_.code.push_back(std::move(in));
    return prog_.code.size() - 1;
  }
  std::size_t emit(Op op) {
    Instr in;
    in.op = op;
    return emit(std::move(in));
  }
  std::size_t emit_loc(Op op, SourceLoc loc) {
    Instr in;
    in.op = op;
    in.loc = loc;
    return emit(std::move(in));
  }
  /// Precomposed SimError, positioned where the AST walk would throw.
  void emit_trap(std::string msg) {
    Instr in;
    in.op = Op::kTrap;
    in.name = intern(std::move(msg));
    emit(std::move(in));
  }
  void patch(std::size_t i, std::size_t target) {
    prog_.code[i].target = static_cast<std::int32_t>(target);
  }

  std::int32_t intern(std::string s) {
    auto [it, fresh] = name_ids_.try_emplace(
        s, static_cast<std::int32_t>(prog_.names.size()));
    if (fresh) prog_.names.push_back(std::move(s));
    return it->second;
  }

  std::int32_t alloc_reg() {
    std::int32_t r = next_reg_++;
    max_regs_ = std::max(max_regs_, next_reg_);
    return r;
  }

  void enter_masks(int n) {
    depth_ += n;
    max_depth_ = std::max(max_depth_, depth_);
  }
  void leave_masks(int n) { depth_ -= n; }

  // ---------------- statements ----------------
  /// Every statement is preceded by a kGuard that clears returned lanes
  /// and skips the rest of the block when the mask empties — the
  /// exec_block loop of the AST walker.
  void lower_block(const Block& b) {
    std::vector<std::size_t> guards;
    guards.reserve(b.stmts.size());
    for (const auto& s : b.stmts) {
      guards.push_back(emit(Op::kGuard));
      lower_stmt(*s);
    }
    for (std::size_t g : guards) patch(g, prog_.code.size());
  }

  void lower_stmt(const Stmt& s) {
    // Virtual registers never live across statements, so the allocator
    // resets here; num_regs is the per-statement peak.
    next_reg_ = 0;
    emit_loc(Op::kStep, s.loc());
    switch (s.kind()) {
      case StmtKind::kBlock:
        lower_block(static_cast<const Block&>(s));
        return;
      case StmtKind::kDecl:
        lower_decl(static_cast<const DeclStmt&>(s));
        return;
      case StmtKind::kAssign:
        emit(Op::kLeafBegin);
        lower_assign(static_cast<const AssignStmt&>(s));
        emit(Op::kLeafEnd);
        return;
      case StmtKind::kIf:
        lower_if(static_cast<const IfStmt&>(s));
        return;
      case StmtKind::kFor:
        lower_for(static_cast<const ForStmt&>(s));
        return;
      case StmtKind::kWhile:
        lower_while(static_cast<const WhileStmt&>(s));
        return;
      case StmtKind::kExpr:
        emit(Op::kLeafBegin);
        (void)lower_expr(*static_cast<const ExprStmt&>(s).expr);
        emit(Op::kLeafEnd);
        return;
      case StmtKind::kReturn:
        emit(Op::kReturn);
        return;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        emit_trap(
            "break/continue are not supported by the simulator; use a "
            "guarding if (paper Sec. 3.7 padding uses `if (i < n)`)");
        return;
    }
  }

  void lower_decl(const DeclStmt& d) {
    emit(Op::kLeafBegin);
    if (d.sim_slot < 0) {
      emit_trap(unbound_decl_message(d.name));
      return;  // unreachable past the trap
    }
    const std::int64_t didx = decl_index_.at(&d);
    {
      Instr in;
      in.op = Op::kDeclare;
      in.imm = didx;
      emit(std::move(in));
    }
    if (!d.init_list.empty()) {
      if (static_cast<std::int64_t>(d.init_list.size()) >
          d.type.element_count()) {
        emit_trap("too many initializers for '" + d.name + "'");
        return;  // unreachable past the trap
      }
      // Brace initializer: constant contents, lane-0 semantics.
      emit(Op::kMaskLane0);
      enter_masks(1);
      for (std::size_t e = 0; e < d.init_list.size(); ++e) {
        Operand v = lower_expr(*d.init_list[e]);
        Instr in;
        in.op = Op::kDeclFill;
        in.imm = didx;
        in.dst = static_cast<std::int32_t>(e);
        in.a = v;
        emit(std::move(in));
      }
      leave_masks(1);
      emit(Op::kMaskPop);
      {
        Instr in;
        in.op = Op::kDeclShadow;
        in.imm = didx;
        emit(std::move(in));
      }
      emit(Op::kLeafEnd);
      return;
    }
    if (d.init) {
      if (d.type.is_array()) {
        emit_trap("array initializers are not supported at " +
                  d.loc().str());
        return;
      }
      Operand v = lower_expr(*d.init);
      Instr in;
      in.op = Op::kDeclInit;
      in.imm = didx;
      in.a = v;
      emit(std::move(in));
    }
    emit(Op::kLeafEnd);
  }

  void lower_assign(const AssignStmt& a) {
    Operand rhs = lower_expr(*a.rhs);
    if (a.op != AssignOp::kAssign) {
      // Compound assignment reads the target first (full re-evaluation,
      // charges included, exactly like the AST's double eval).
      Operand old = lower_expr(*a.lhs);
      BinOp op = a.op == AssignOp::kAdd   ? BinOp::kAdd
                 : a.op == AssignOp::kSub ? BinOp::kSub
                 : a.op == AssignOp::kMul ? BinOp::kMul
                                          : BinOp::kDiv;
      Instr in;
      in.op = Op::kCompound;
      in.aux = static_cast<std::uint8_t>(op);
      in.dst = alloc_reg();
      in.a = old;
      in.b = rhs;
      in.loc = a.loc();
      rhs = Operand::reg(in.dst);
      emit(std::move(in));
    }
    if (a.lhs->kind() == ExprKind::kVarRef) {
      const auto& v = static_cast<const VarRef&>(*a.lhs);
      Instr in;
      in.op = Op::kStoreVar;
      in.slot = v.sim_slot;
      in.name = intern(v.name);
      in.a = rhs;
      in.loc = v.loc();
      emit(std::move(in));
      return;
    }
    if (a.lhs->kind() == ExprKind::kArrayIndex) {
      (void)lower_index(static_cast<const ArrayIndex&>(*a.lhs), &rhs);
      return;
    }
    emit_trap("invalid assignment target at " + a.loc().str());
  }

  void lower_if(const IfStmt& i) {
    emit(Op::kLeafBegin);
    Operand c = lower_expr(*i.cond);
    emit_charge();
    emit(Op::kLeafEnd);
    const bool has_else = i.else_body != nullptr;
    std::size_t split;
    {
      Instr in;
      in.op = Op::kIfSplit;
      in.aux = has_else ? 1 : 0;
      in.a = c;
      split = emit(std::move(in));
    }
    if (has_else) {
      enter_masks(2);
      lower_block(*i.then_body);
      leave_masks(1);
      std::size_t elsei = emit(Op::kIfElse);
      patch(split, elsei);
      lower_block(*i.else_body);
      std::size_t endi = emit(Op::kIfEnd);
      patch(elsei, endi + 1);
      leave_masks(1);
    } else {
      enter_masks(1);
      lower_block(*i.then_body);
      std::size_t endi = emit(Op::kIfEnd);
      patch(split, endi);  // empty then-mask still pops at kIfEnd
      leave_masks(1);
    }
  }

  void lower_for(const ForStmt& f) {
    if (f.init) lower_stmt(*f.init);
    enter_masks(1);
    ++loops_;
    max_loops_ = std::max(max_loops_, loops_);
    emit_loc(Op::kLoopEnter, f.loc());
    const std::size_t head = prog_.code.size();
    emit_loc(Op::kLoopBackedge, f.loc());
    if (f.cond) {
      emit(Op::kLeafBegin);
      Operand c = lower_expr(*f.cond);
      emit_charge();
      emit(Op::kLeafEnd);
      Instr in;
      in.op = Op::kMaskAnd;
      in.a = c;
      emit(std::move(in));
    }
    std::size_t check;
    {
      Instr in;
      in.op = Op::kLoopCheck;
      in.aux = 0;  // for-loop valve message
      in.loc = f.loc();
      check = emit(std::move(in));
    }
    lower_block(*f.body);
    std::size_t latch = emit(Op::kLoopLatchFor);
    if (f.inc) lower_stmt(*f.inc);
    {
      Instr in;
      in.op = Op::kJump;
      in.target = static_cast<std::int32_t>(head);
      emit(std::move(in));
    }
    const std::size_t exit = prog_.code.size();
    patch(check, exit);
    patch(latch, exit);
    emit(Op::kLoopExit);
    --loops_;
    leave_masks(1);
  }

  void lower_while(const WhileStmt& wl) {
    enter_masks(1);
    ++loops_;
    max_loops_ = std::max(max_loops_, loops_);
    emit_loc(Op::kLoopEnter, wl.loc());
    const std::size_t head = prog_.code.size();
    emit_loc(Op::kLoopBackedge, wl.loc());
    emit(Op::kLeafBegin);
    Operand c = lower_expr(*wl.cond);
    emit_charge();
    emit(Op::kLeafEnd);
    {
      Instr in;
      in.op = Op::kMaskAnd;
      in.a = c;
      emit(std::move(in));
    }
    std::size_t check;
    {
      Instr in;
      in.op = Op::kLoopCheck;
      in.aux = 1;  // while-loop valve message
      in.loc = wl.loc();
      check = emit(std::move(in));
    }
    lower_block(*wl.body);
    // The AST's while latch clears returned lanes and loops back to the
    // condition unconditionally (one extra back-edge on a possibly-empty
    // mask); kLoopCheck exits there.
    emit(Op::kClearReturned);
    {
      Instr in;
      in.op = Op::kJump;
      in.target = static_cast<std::int32_t>(head);
      emit(std::move(in));
    }
    patch(check, prog_.code.size());
    emit(Op::kLoopExit);
    --loops_;
    leave_masks(1);
  }

  void emit_charge() {
    Instr in;
    in.op = Op::kCharge;
    in.aux = static_cast<std::uint8_t>(ChargeKind::kAlu);
    emit(std::move(in));
  }

  // ---------------- expressions ----------------
  Operand lower_expr(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kIntLit:
        return Operand::immediate(
            Value::of_int(static_cast<const IntLit&>(e).value));
      case ExprKind::kFloatLit:
        return Operand::immediate(
            Value::of_float(static_cast<const FloatLit&>(e).value).to_f32());
      case ExprKind::kVarRef:
        return lower_varref(static_cast<const VarRef&>(e));
      case ExprKind::kArrayIndex:
        return lower_index(static_cast<const ArrayIndex&>(e), nullptr);
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        Operand lhs = lower_expr(*b.lhs);
        Operand rhs = lower_expr(*b.rhs);
        Instr in;
        in.op = Op::kBin;
        in.aux = static_cast<std::uint8_t>(b.op);
        in.dst = alloc_reg();
        in.a = lhs;
        in.b = rhs;
        in.loc = b.loc();
        Operand r = Operand::reg(in.dst);
        emit(std::move(in));
        return r;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        Operand a = lower_expr(*u.operand);
        Instr in;
        in.op = Op::kUn;
        in.aux = static_cast<std::uint8_t>(u.op);
        in.dst = alloc_reg();
        in.a = a;
        Operand r = Operand::reg(in.dst);
        emit(std::move(in));
        return r;
      }
      case ExprKind::kCall:
        return lower_call(static_cast<const CallExpr&>(e));
      case ExprKind::kTernary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        Operand c = lower_expr(*t.cond);
        Operand a = lower_expr(*t.then_value);
        Operand b = lower_expr(*t.else_value);
        Instr in;
        in.op = Op::kSelect;
        in.dst = alloc_reg();
        in.a = c;
        in.b = a;
        in.c = b;
        Operand r = Operand::reg(in.dst);
        emit(std::move(in));
        return r;
      }
      case ExprKind::kCast: {
        const auto& cs = static_cast<const CastExpr&>(e);
        Operand a = lower_expr(*cs.operand);
        Instr in;
        in.op = Op::kCast;
        in.aux = static_cast<std::uint8_t>(cs.to);
        in.dst = alloc_reg();
        in.a = a;
        Operand r = Operand::reg(in.dst);
        emit(std::move(in));
        return r;
      }
    }
    emit_trap("unreachable expression kind");
    return Operand::immediate(Value::of_int(0));
  }

  Operand lower_varref(const VarRef& v) {
    if (slot_is_geometry(v.sim_slot))
      return Operand::geom(slot_geometry_code(v.sim_slot));
    const SlotInfo* si = info(v.sim_slot);
    // Uniform kernel arguments carry no liveness or shadow state, so the
    // AST's var_read_check has no observable effect on them: pure view.
    if (si && si->kind == SlotInfo::Kind::kUniformParam)
      return Operand::uniform(v.sim_slot);
    {
      Instr in;
      in.op = Op::kVarGuard;
      in.slot = v.sim_slot;
      in.name = intern(v.name);
      in.loc = v.loc();
      emit(std::move(in));
    }
    if (si && si->kind == SlotInfo::Kind::kDecl && si->type.is_scalar())
      return Operand::slot_data(v.sim_slot);
    // Arrays, buffer params and undeclared names make kVarGuard throw;
    // the operand is unreachable.
    return Operand::immediate(Value::of_int(0));
  }

  /// Load when `store` is null; store `*store` otherwise. Mirrors
  /// eval_index, with structural errors resolved statically into traps.
  Operand lower_index(const ArrayIndex& ai, const Operand* store) {
    if (ai.base->kind() != ExprKind::kVarRef) {
      emit_trap("array base must be a variable at " + ai.loc().str());
      return Operand::immediate(Value::of_int(0));
    }
    const auto& base = static_cast<const VarRef&>(*ai.base);
    const std::string& name = base.name;
    const SlotInfo* si = info(base.sim_slot);
    if (!si || si->kind == SlotInfo::Kind::kNone) {
      // Never declared (or geometry/unbound): slot_at raises the same
      // "use of undeclared variable" / internal error the AST would.
      emit_check_live(base.sim_slot, name, ai.loc());
      return Operand::immediate(Value::of_int(0));
    }
    if (si->kind == SlotInfo::Kind::kBufferParam) {
      if (ai.indices.size() != 1) {
        emit_trap("pointer '" + name + "' requires exactly one index");
        return Operand::immediate(Value::of_int(0));
      }
      Operand idx = lower_expr(*ai.indices[0]);
      Instr in;
      in.op = store ? Op::kBufStore : Op::kBufLoad;
      in.slot = base.sim_slot;
      in.name = intern(name);
      in.a = idx;
      in.loc = ai.loc();
      if (store) {
        in.b = *store;
        emit(std::move(in));
        return Operand::immediate(Value::of_int(0));
      }
      in.dst = alloc_reg();
      Operand r = Operand::reg(in.dst);
      emit(std::move(in));
      return r;
    }
    // Declared slots may not be live yet on this path; reproduce the
    // AST's slot_at-first ordering before any static trap or index eval.
    emit_check_live(base.sim_slot, name, ai.loc());
    if (si->kind == SlotInfo::Kind::kUniformParam || !si->type.is_array()) {
      emit_trap("'" + name + "' is not an array at " + ai.loc().str());
      return Operand::immediate(Value::of_int(0));
    }
    const auto& dims = si->type.array_dims;
    if (ai.indices.size() != dims.size()) {
      emit_trap("array '" + name + "' has " + std::to_string(dims.size()) +
                " dims, indexed with " + std::to_string(ai.indices.size()) +
                " at " + ai.loc().str());
      return Operand::immediate(Value::of_int(0));
    }
    const std::int32_t flat = alloc_reg();
    for (std::size_t d = 0; d < dims.size(); ++d) {
      Operand idx = lower_expr(*ai.indices[d]);
      if (d > 0) emit_charge();  // index math
      Instr in;
      in.op = Op::kFlatten;
      in.dst = flat;
      in.a = idx;
      in.imm = dims[d];
      in.aux = d == 0 ? 1 : 0;
      in.loc = ai.loc();
      emit(std::move(in));
    }
    Op op;
    switch (si->type.space) {
      case AddrSpace::kShared:
        op = store ? Op::kSharedStore : Op::kSharedLoad;
        break;
      case AddrSpace::kLocal:
      case AddrSpace::kRegister:
      case AddrSpace::kConstant:
        op = store ? Op::kLocalStore : Op::kLocalLoad;
        break;
      case AddrSpace::kGlobal:
      default:
        emit_trap("unsupported address space for array '" + name + "'");
        return Operand::immediate(Value::of_int(0));
    }
    Instr in;
    in.op = op;
    in.slot = base.sim_slot;
    in.name = intern(name);
    in.a = Operand::reg(flat);
    in.loc = ai.loc();
    if (store) {
      in.b = *store;
      emit(std::move(in));
      return Operand::immediate(Value::of_int(0));
    }
    in.dst = alloc_reg();
    Operand r = Operand::reg(in.dst);
    emit(std::move(in));
    return r;
  }

  void emit_check_live(std::int32_t slot, const std::string& name,
                       SourceLoc loc) {
    Instr in;
    in.op = Op::kCheckLive;
    in.slot = slot;
    in.name = intern(name);
    in.loc = loc;
    emit(std::move(in));
  }

  Operand lower_call(const CallExpr& c) {
    const std::string& f = c.callee;
    Builtin b = c.sim_builtin == kBuiltinUnset
                    ? resolve_builtin(f)
                    : static_cast<Builtin>(c.sim_builtin);
    auto unary_math = [&](MathFn fn) -> Operand {
      if (c.args.size() != 1) {
        emit_trap(f + " expects 1 argument at " + c.loc().str());
        return Operand::immediate(Value::of_int(0));
      }
      Operand a = lower_expr(*c.args[0]);
      Instr in;
      in.op = Op::kMath1;
      in.aux = static_cast<std::uint8_t>(fn);
      in.dst = alloc_reg();
      in.a = a;
      Operand r = Operand::reg(in.dst);
      emit(std::move(in));
      return r;
    };
    switch (b) {
      case Builtin::kSyncthreads:
        emit_loc(Op::kSync, c.loc());
        return Operand::immediate(Value::of_int(0));
      case Builtin::kShfl:
      case Builtin::kShflUp:
      case Builtin::kShflDown:
      case Builtin::kShflXor:
        return lower_shfl(c, b);
      case Builtin::kSqrt: return unary_math(MathFn::kSqrt);
      case Builtin::kFabs: return unary_math(MathFn::kFabs);
      case Builtin::kExp: return unary_math(MathFn::kExp);
      case Builtin::kLog: return unary_math(MathFn::kLog);
      case Builtin::kSin: return unary_math(MathFn::kSin);
      case Builtin::kCos: return unary_math(MathFn::kCos);
      case Builtin::kFloor: return unary_math(MathFn::kFloor);
      case Builtin::kRsqrt: return unary_math(MathFn::kRsqrt);
      case Builtin::kAbs: {
        if (c.args.size() != 1) {
          emit_trap("abs expects 1 argument at " + c.loc().str());
          return Operand::immediate(Value::of_int(0));
        }
        Operand a = lower_expr(*c.args[0]);
        Instr in;
        in.op = Op::kAbs;
        in.dst = alloc_reg();
        in.a = a;
        Operand r = Operand::reg(in.dst);
        emit(std::move(in));
        return r;
      }
      case Builtin::kMin:
      case Builtin::kMax:
      case Builtin::kFminf:
      case Builtin::kFmaxf:
      case Builtin::kPowf: {
        if (c.args.size() != 2) {
          emit_trap(f + " expects 2 arguments at " + c.loc().str());
          return Operand::immediate(Value::of_int(0));
        }
        Operand x = lower_expr(*c.args[0]);
        Operand y = lower_expr(*c.args[1]);
        Instr in;
        in.op = Op::kMath2;
        in.aux = static_cast<std::uint8_t>(b);
        in.dst = alloc_reg();
        in.a = x;
        in.b = y;
        Operand r = Operand::reg(in.dst);
        emit(std::move(in));
        return r;
      }
      case Builtin::kNotBuiltin:
        break;
    }
    emit_trap("unknown function '" + f + "' at " + c.loc().str());
    return Operand::immediate(Value::of_int(0));
  }

  Operand lower_shfl(const CallExpr& c, Builtin b) {
    emit(Op::kShflGuard);  // sm_30+ check (device version is runtime state)
    if (c.args.size() != 3) {
      emit_trap(c.callee + " expects (var, lane, width) at " + c.loc().str());
      return Operand::immediate(Value::of_int(0));
    }
    // The source variable is evaluated under a warp-broadened mask with
    // uninit reports suppressed; selected source lanes are re-checked
    // inside do_shfl.
    emit(Op::kShflArgBegin);
    enter_masks(1);
    Operand var = lower_expr(*c.args[0]);
    leave_masks(1);
    emit(Op::kShflArgEnd);
    Operand sel = lower_expr(*c.args[1]);
    Operand wid = lower_expr(*c.args[2]);
    Instr in;
    in.op = Op::kShfl;
    in.aux = static_cast<std::uint8_t>(b);
    in.dst = alloc_reg();
    in.a = var;
    in.b = sel;
    in.c = wid;
    in.name = intern(c.callee);
    in.slot = kSlotUnbound;
    in.imm = -1;
    in.loc = c.loc();
    if (c.args[0]->kind() == ExprKind::kVarRef) {
      const auto& vr = static_cast<const VarRef&>(*c.args[0]);
      in.slot = vr.sim_slot;
      in.imm = intern(vr.name);
    }
    Operand r = Operand::reg(in.dst);
    emit(std::move(in));
    return r;
  }

  const BoundKernel& bound_;
  Program prog_;
  std::vector<SlotInfo> info_;
  std::unordered_map<const DeclStmt*, std::int64_t> decl_index_;
  std::unordered_map<std::string, std::int32_t> name_ids_;
  std::int32_t next_reg_ = 0;
  std::int32_t max_regs_ = 0;
  int depth_ = 0;
  int max_depth_ = 0;
  int loops_ = 0;
  int max_loops_ = 0;
};

}  // namespace

std::shared_ptr<const Program> lower(const BoundKernel& bound) {
  return Lowerer(bound).run();
}

}  // namespace cudanp::sim::bytecode
