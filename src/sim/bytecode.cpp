// Lowering from the slot-bound kernel AST to the flat bytecode the VM
// executes (sim/vm.cpp). The pass emits every charge, watchdog step, mask
// operation and error site in the kernel's evaluation order: operands
// left to right, a statement's step before its body, a loop's back-edge
// step before its condition. See sim/bytecode.hpp for the instruction
// set.

#include "sim/bytecode.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "ir/kernel.hpp"
#include "sim/arith.hpp"

namespace cudanp::sim::bytecode {

using namespace cudanp::ir;

namespace {

/// Static classification of one frame slot: its parameter or its
/// declaration (BoundKernel::slots).
struct SlotInfo {
  enum class Kind : std::uint8_t { kBufferParam, kUniformParam, kDecl };
  Kind kind = Kind::kDecl;
  Type type;  // meaningful for kDecl
  /// Lane type of the slot's values (a buffer parameter's: its elements).
  LaneType lane = LaneType::kInt;
};

[[nodiscard]] LaneType lane_of(ScalarType t) {
  return t == ScalarType::kFloat ? LaneType::kFloat : LaneType::kInt;
}

[[nodiscard]] LaneType common(const Operand& a, const Operand& b) {
  return a.is_float() || b.is_float() ? LaneType::kFloat : LaneType::kInt;
}

class Lowerer {
 public:
  Lowerer(const BoundKernel& bound, std::span<const ScalarType> buffer_types)
      : bound_(bound), buffer_types_(buffer_types) {}

  std::shared_ptr<const Program> run() {
    const Kernel& k = *bound_.kernel;
    info_.resize(bound_.num_slots());
    for (std::size_t pi = 0; pi < k.params.size(); ++pi)
      prog_.buffer_types.push_back(
          k.params[pi].type.is_pointer && pi < buffer_types_.size()
              ? buffer_types_[pi]
              : k.params[pi].type.scalar);
    for (std::size_t i = 0; i < bound_.slots.size(); ++i) {
      const SlotDecl& sd = bound_.slots[i];
      SlotInfo& si = info_[i];
      if (!sd.is_param) {
        si.type = sd.decl->type;
        si.lane = lane_of(si.type.scalar);
        continue;
      }
      const Param& p = k.params[sd.param_index];
      si.kind = p.type.is_pointer ? SlotInfo::Kind::kBufferParam
                                  : SlotInfo::Kind::kUniformParam;
      si.type = p.type;
      si.lane = lane_of(prog_.buffer_types[sd.param_index]);
    }
    lower_block(*k.body);
    emit(Op::kHalt);
    prog_.num_regs = max_regs_;
    return std::make_shared<const Program>(std::move(prog_));
  }

 private:
  // ---------------- emission ----------------
  std::size_t emit(Instr in) {
    // A register operand is read once, here: its register is free again.
    for (const Operand* o : {&in.a, &in.b, &in.c})
      if (o->kind == Operand::Kind::kReg) free_regs_.push_back(o->id);
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
  /// Precomposed SimError, raised when execution reaches it.
  void emit_trap(std::string msg) {
    Instr in;
    in.op = Op::kTrap;
    in.name = intern(std::move(msg));
    emit(std::move(in));
  }
  /// The binder's structural error for `node`, as a trap where execution
  /// reaches this point; false if the node has none.
  template <class Node>
  bool trap_if_invalid(const Node& node) {
    std::optional<std::string> err = bound_.error(node);
    if (err) emit_trap(std::move(*err));
    return err.has_value();
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
    if (free_regs_.empty()) free_regs_.push_back(next_reg_++);
    max_regs_ = std::max(max_regs_, next_reg_);
    const std::int32_t r = free_regs_.back();
    free_regs_.pop_back();
    return r;
  }

  // ---------------- statements ----------------
  /// Every statement is preceded by a kGuard that clears returned lanes
  /// and skips the rest of the block when the mask empties.
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
    free_regs_.clear();
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
        (void)trap_if_invalid(s);
        return;
    }
  }

  void lower_decl(const DeclStmt& d) {
    emit(Op::kLeafBegin);
    if (trap_if_invalid(d)) return;  // unreachable past the trap
    {
      Instr in;
      in.op = Op::kDeclare;
      in.slot = d.sim_slot;
      emit(std::move(in));
    }
    if (!d.init_list.empty()) {
      // Brace initializer: each thread evaluates the elements and fills
      // its own copy.
      for (std::size_t e = 0; e < d.init_list.size(); ++e) {
        Operand v = lower_expr(*d.init_list[e]);
        Instr in;
        in.op = Op::kDeclFill;
        in.slot = d.sim_slot;
        in.dst = static_cast<std::int32_t>(e);
        in.a = v;
        emit(std::move(in));
      }
      Instr in;
      in.op = Op::kDeclTail;
      in.slot = d.sim_slot;
      in.dst = static_cast<std::int32_t>(d.init_list.size());
      emit(std::move(in));
      emit(Op::kLeafEnd);
      return;
    }
    if (d.init) {
      Operand v = lower_expr(*d.init);
      Instr in;
      in.op = Op::kDeclInit;
      in.slot = d.sim_slot;
      in.a = v;
      emit(std::move(in));
    }
    emit(Op::kLeafEnd);
  }

  void lower_assign(const AssignStmt& a) {
    Operand rhs = lower_expr(*a.rhs);
    if (a.op != AssignOp::kAssign) {
      // Compound assignment reads the target first (full re-evaluation,
      // charges included).
      Operand old = lower_expr(*a.lhs);
      const BinOp op = compound_op(a.op);
      Instr in;
      in.op = Op::kCompound;
      in.aux = static_cast<std::uint8_t>(op);
      in.dst = alloc_reg();
      in.a = old;
      in.b = rhs;
      in.loc = a.loc();
      rhs = Operand::reg(in.dst, binop_type(op, old, rhs));
      emit(std::move(in));
    }
    if (a.lhs->kind() == ExprKind::kArrayIndex) {
      (void)lower_index(static_cast<const ArrayIndex&>(*a.lhs), &rhs);
      return;
    }
    if (trap_if_invalid(a)) return;
    Instr in;
    in.op = Op::kStoreVar;
    in.slot = static_cast<const VarRef&>(*a.lhs).sim_slot;
    in.a = rhs;
    emit(std::move(in));
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
      lower_block(*i.then_body);
      std::size_t elsei = emit(Op::kIfElse);
      patch(split, elsei);
      lower_block(*i.else_body);
      std::size_t endi = emit(Op::kIfEnd);
      patch(elsei, endi + 1);
    } else {
      lower_block(*i.then_body);
      std::size_t endi = emit(Op::kIfEnd);
      patch(split, endi);  // empty then-mask still pops at kIfEnd
    }
  }

  void lower_for(const ForStmt& f) {
    if (f.init) lower_stmt(*f.init);
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
  }

  void lower_while(const WhileStmt& wl) {
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
      in.aux = 1;  // a while condition
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
    // The while latch clears returned lanes and loops back to the
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
        Operand r = Operand::reg(in.dst, binop_type(b.op, lhs, rhs));
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
        Operand r = Operand::reg(
            in.dst, u.op == UnOp::kNeg ? a.type : LaneType::kInt);
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
        Operand r = Operand::reg(in.dst, common(a, b));
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
        Operand r = Operand::reg(
            in.dst, cs.to == ScalarType::kVoid ? a.type : lane_of(cs.to));
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
    if (trap_if_invalid(v)) return Operand::immediate(Value::of_int(0));
    const SlotInfo& si = info_[static_cast<std::size_t>(v.sim_slot)];
    // Uniform kernel arguments carry no shadow state, so
    // var_read_check has no observable effect on them: pure view.
    if (si.kind == SlotInfo::Kind::kUniformParam)
      return Operand::uniform(v.sim_slot, si.lane);
    Instr in;
    in.op = Op::kVarGuard;
    in.slot = v.sim_slot;
    in.name = intern(v.name);
    in.loc = v.loc();
    emit(std::move(in));
    return Operand::slot_data(v.sim_slot, si.lane);
  }

  /// Load when `store` is null; store `*store` otherwise.
  Operand lower_index(const ArrayIndex& ai, const Operand* store) {
    if (trap_if_invalid(ai)) return Operand::immediate(Value::of_int(0));
    const auto& base = static_cast<const VarRef&>(*ai.base);
    const std::string& name = base.name;
    const SlotInfo& si = info_[static_cast<std::size_t>(base.sim_slot)];
    if (si.kind == SlotInfo::Kind::kBufferParam) {
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
      Operand r = Operand::reg(in.dst, si.lane);
      emit(std::move(in));
      return r;
    }
    const auto& dims = si.type.array_dims;
    const std::int32_t flat = alloc_reg();
    for (std::size_t d = 0; d < dims.size(); ++d) {
      Operand idx = lower_expr(*ai.indices[d]);
      if (d > 0) emit_charge();  // index math
      Instr in;
      in.op = Op::kFlatten;
      in.dst = flat;
      in.name = intern(name);
      in.a = idx;
      in.imm = dims[d];
      in.aux = d == 0 ? 1 : 0;
      in.loc = ai.loc();
      emit(std::move(in));
    }
    // Local, register and constant arrays are per-thread copies.
    const bool shared = si.type.space == AddrSpace::kShared;
    const Op op = shared ? (store ? Op::kSharedStore : Op::kSharedLoad)
                         : (store ? Op::kLocalStore : Op::kLocalLoad);
    Instr in;
    in.op = op;
    in.slot = base.sim_slot;
    in.name = intern(name);
    in.a = Operand::reg(flat, LaneType::kInt);
    in.loc = ai.loc();
    if (store) {
      in.b = *store;
      emit(std::move(in));
      return Operand::immediate(Value::of_int(0));
    }
    in.dst = alloc_reg();
    Operand r = Operand::reg(in.dst, si.lane);
    emit(std::move(in));
    return r;
  }

  Operand lower_call(const CallExpr& c) {
    const Builtin b = call_builtin(c);
    // sm_30+ check (device version is runtime state), before the call's
    // own structural error.
    if (is_shfl(b)) emit(Op::kShflGuard);
    if (trap_if_invalid(c)) return Operand::immediate(Value::of_int(0));
    if (b == Builtin::kSyncthreads) {
      emit_loc(Op::kSync, c.loc());
      return Operand::immediate(Value::of_int(0));
    }
    if (is_shfl(b)) return lower_shfl(c, b);
    const std::size_t arity = builtin_arity(b);
    Instr in;
    in.aux = static_cast<std::uint8_t>(b);
    in.a = lower_expr(*c.args[0]);
    LaneType type = LaneType::kFloat;
    if (b == Builtin::kAbs) {
      in.op = Op::kAbs;
      type = in.a.type;
    } else if (arity == 1) {
      in.op = Op::kMath1;
    } else {
      in.op = Op::kMath2;
      in.b = lower_expr(*c.args[1]);
      if (b == Builtin::kMin || b == Builtin::kMax) type = common(in.a, in.b);
    }
    in.dst = alloc_reg();
    Operand r = Operand::reg(in.dst, type);
    emit(std::move(in));
    return r;
  }

  Operand lower_shfl(const CallExpr& c, Builtin b) {
    // The source variable is evaluated under a warp-broadened mask with
    // uninit reports suppressed; selected source lanes are re-checked
    // inside do_shfl.
    emit(Op::kShflArgBegin);
    Operand var = lower_expr(*c.args[0]);
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
    Operand r = Operand::reg(in.dst, var.type);
    emit(std::move(in));
    return r;
  }

  [[nodiscard]] static LaneType binop_type(BinOp op, const Operand& a,
                                          const Operand& b) {
    return arith::binop_yields_float(op, a.is_float(), b.is_float())
               ? LaneType::kFloat
               : LaneType::kInt;
  }

  const BoundKernel& bound_;
  std::span<const ScalarType> buffer_types_;
  Program prog_;
  std::vector<SlotInfo> info_;
  std::unordered_map<std::string, std::int32_t> name_ids_;
  std::vector<std::int32_t> free_regs_;
  std::int32_t next_reg_ = 0;
  std::int32_t max_regs_ = 0;
};

}  // namespace

std::shared_ptr<const Program> lower(const BoundKernel& bound,
                                     std::span<const ScalarType> buffer_types) {
  return Lowerer(bound, buffer_types).run();
}

}  // namespace cudanp::sim::bytecode
