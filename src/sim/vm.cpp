#include "sim/vm.hpp"

#include <algorithm>
#include <string>

#include "sim/fault.hpp"
#include "sim/sanitizer.hpp"

namespace cudanp::sim::vm {

namespace {

using bytecode::Instr;
using bytecode::Op;
using bytecode::Operand;
using exec::LaneView;
using exec::Mask;
using exec::Slot;
using exec::TypedOut;

class VmExec : public exec::BlockCore {
 public:
  VmExec(const bytecode::Program& program, const DeviceSpec& spec,
         DeviceMemory& mem, const Interpreter::Options& opt,
         const BoundKernel& bound, const LaunchConfig& cfg, Dim3 block_idx,
         int resident_blocks, exec::BlockSanitizer* san,
         std::int64_t flat_block, std::int64_t max_steps)
      : BlockCore(spec, mem, opt, bound, cfg, block_idx, resident_blocks, san,
                  flat_block, max_steps),
        prog_(program),
        iregs_(static_cast<std::size_t>(program.num_regs) *
               static_cast<std::size_t>(lanes_.nlanes())),
        fregs_(iregs_.size()) {
    regions_ = exec::Regions(lanes_, opt.limits.max_loop_iterations);
  }

  KernelStats run() {
    if (opt_.fault && opt_.fault->should_stall(flat_block_)) stall();
    dispatch();
    return collect_stats();
  }

 private:
  /// The execution mask of the innermost active region.
  [[nodiscard]] Mask& cur() { return regions_.cur(); }

  [[nodiscard]] std::size_t reg_base(std::int32_t r) const {
    return static_cast<std::size_t>(r) *
           static_cast<std::size_t>(lanes_.nlanes());
  }
  /// Register r's lane array of type T (int and float registers live in
  /// separate pools; lowering fixed which one r uses).
  template <class T>
  [[nodiscard]] T* reg(std::int32_t r) {
    if constexpr (arith::kIsFloat<T>)
      return fregs_.data() + reg_base(r);
    else
      return iregs_.data() + reg_base(r);
  }
  [[nodiscard]] TypedOut out(std::int32_t r) {
    return {reg<std::int64_t>(r), reg<double>(r)};
  }

  /// Resolves an operand to a zero-copy lane view of its static type.
  template <class T>
  [[nodiscard]] LaneView<T> view(const Operand& o) {
    switch (o.kind) {
      case Operand::Kind::kReg:
        return {reg<T>(o.id), T{}};
      case Operand::Kind::kImm:
        if constexpr (arith::kIsFloat<T>)
          return {nullptr, o.imm.f};
        else
          return {nullptr, o.imm.i};
      case Operand::Kind::kGeom:
        if constexpr (!arith::kIsFloat<T>) return {geom_[o.id].data(), 0};
        break;
      case Operand::Kind::kUniform:
        return {nullptr, frame_[static_cast<std::size_t>(o.id)].cells<T>()[0]};
      case Operand::Kind::kSlotData:
        return {frame_[static_cast<std::size_t>(o.id)].cells<T>(), T{}};
      case Operand::Kind::kNone:
        break;
    }
    return {};
  }

  /// Calls fn with the operand's view, instantiated for its lane type.
  template <class Fn>
  void with_view(const Operand& o, Fn&& fn) {
    if (o.is_float())
      fn(view<double>(o));
    else
      fn(view<std::int64_t>(o));
  }
  template <class Fn>
  void with_views(const Operand& a, const Operand& b, Fn&& fn) {
    with_view(a, [&](auto va) { with_view(b, [&](auto vb) { fn(va, vb); }); });
  }
  template <class Fn>
  void with_views(const Operand& a, const Operand& b, const Operand& c,
                  Fn&& fn) {
    with_view(a, [&](auto va) {
      with_views(b, c, [&](auto vb, auto vc) { fn(va, vb, vc); });
    });
  }

  [[nodiscard]] const std::string& name_at(std::int32_t n) const {
    return prog_.names[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] Slot& slot_of(const Instr& ins) {
    return frame_[static_cast<std::size_t>(ins.slot)];
  }
  [[nodiscard]] const ir::DeclStmt& decl_of(const Instr& ins) const {
    return *bound_.slots[static_cast<std::size_t>(ins.slot)].decl;
  }

  void dispatch() {
    const Instr* code = prog_.code.data();
    std::size_t pc = 0;
    for (;;) {
      const Instr& ins = code[pc];
      bool jump = false;
      switch (ins.op) {
        case Op::kHalt:
          return;
        case Op::kGuard:
        case Op::kLoopLatchFor: jump = regions_.guard(); break;
        case Op::kStep:
          count_step(ins.loc);
          break;
        case Op::kLeafBegin:
          begin_leaf_stmt();
          break;
        case Op::kLeafEnd:
          end_leaf_stmt();
          break;
        case Op::kCharge:
          charge_issue(cur(), opt_.timing.weights.alu);
          break;
        case Op::kTrap:
          throw SimError(name_at(ins.name));
        case Op::kVarGuard:
          (void)var_read_check(ins.slot, name_at(ins.name), cur(), ins.loc);
          break;
        case Op::kStoreVar:
        case Op::kDeclInit:
          with_view(ins.a, [&](auto v) { store_var(slot_of(ins), cur(), v); });
          break;
        case Op::kDeclare:
          (void)declare(decl_of(ins));
          break;
        case Op::kDeclFill:
          with_view(ins.a, [&](auto v) {
            decl_fill(slot_of(ins), decl_of(ins).type,
                      static_cast<std::size_t>(ins.dst), cur(), v);
          });
          break;
        case Op::kDeclTail:
          decl_tail(slot_of(ins), decl_of(ins).type,
                    static_cast<std::size_t>(ins.dst), cur());
          break;
        case Op::kBin:
          with_views(ins.a, ins.b, [&](auto a, auto b) {
            do_binop(static_cast<ir::BinOp>(ins.aux), a, b, cur(),
                     out(ins.dst), ins.loc);
          });
          break;
        case Op::kCompound:
          with_views(ins.a, ins.b, [&](auto a, auto b) {
            do_compound(static_cast<ir::BinOp>(ins.aux), a, b, cur(),
                        out(ins.dst), ins.loc);
          });
          break;
        case Op::kUn:
          with_view(ins.a, [&](auto a) {
            do_unop(static_cast<ir::UnOp>(ins.aux), a, cur(), out(ins.dst));
          });
          break;
        case Op::kCast:
          with_view(ins.a, [&](auto a) {
            do_cast(static_cast<ir::ScalarType>(ins.aux), a, cur(),
                    out(ins.dst));
          });
          break;
        case Op::kSelect:
          with_views(ins.a, ins.b, ins.c, [&](auto c, auto a, auto b) {
            do_select(c, a, b, cur(), out(ins.dst));
          });
          break;
        case Op::kMath1: {
          const arith::MathFn1& m =
              arith::unary_math(static_cast<Builtin>(ins.aux));
          with_view(ins.a, [&](auto a) {
            do_unary_math(m.fn, m.sfu, a, cur(), out(ins.dst));
          });
          break;
        }
        case Op::kAbs:
          with_view(ins.a, [&](auto a) { do_abs(a, cur(), out(ins.dst)); });
          break;
        case Op::kMath2:
          with_views(ins.a, ins.b, [&](auto a, auto b) {
            do_binmath(static_cast<Builtin>(ins.aux), a, b, cur(),
                       out(ins.dst));
          });
          break;
        case Op::kSync:
          do_sync(cur(), ins.loc);
          break;
        case Op::kShflGuard:
          exec::check_shfl_device(spec_);
          break;
        case Op::kShflArgBegin: regions_.shfl_arg_begin(); break;
        case Op::kShflArgEnd: regions_.shfl_arg_end(); break;
        case Op::kShfl:
          with_views(ins.a, ins.b, ins.c, [&](auto var, auto sel, auto wid) {
            do_shfl(static_cast<Builtin>(ins.aux), name_at(ins.name), var, sel,
                    wid, cur(), out(ins.dst), ins.loc, ins.slot,
                    ins.imm >= 0 ? &name_at(static_cast<std::int32_t>(ins.imm))
                                 : nullptr);
          });
          break;
        case Op::kFlatten:
          with_view(ins.a, [&](auto idx) {
            flatten_dim(reg<std::int64_t>(ins.dst), name_at(ins.name), idx,
                        ins.imm, ins.aux != 0, cur(), ins.loc);
          });
          break;
        case Op::kBufLoad:
          with_view(ins.a, [&](auto idx) {
            buffer_load(slot_of(ins), name_at(ins.name), idx, cur(),
                        out(ins.dst), ins.loc);
          });
          break;
        case Op::kBufStore:
          with_views(ins.a, ins.b, [&](auto idx, auto v) {
            buffer_store(slot_of(ins), name_at(ins.name), idx, cur(), v,
                         ins.loc);
          });
          break;
        case Op::kSharedLoad:
          shared_load(slot_of(ins), name_at(ins.name), flat(ins.a), cur(),
                      out(ins.dst), ins.loc);
          break;
        case Op::kSharedStore:
          with_view(ins.b, [&](auto v) {
            shared_store(slot_of(ins), name_at(ins.name), flat(ins.a), cur(),
                         v, ins.loc);
          });
          break;
        case Op::kLocalLoad:
          local_load(slot_of(ins), name_at(ins.name), flat(ins.a), cur(),
                     out(ins.dst), ins.loc);
          break;
        case Op::kLocalStore:
          with_view(ins.b, [&](auto v) {
            local_store(slot_of(ins), flat(ins.a), cur(), v);
          });
          break;
        case Op::kIfSplit:
          jump = regions_.if_split(ins.aux, [&](auto& m, auto& tm, auto& em) {
            with_view(ins.a, [&](auto c) { split_mask(m, c, tm, em); });
          });
          break;
        case Op::kIfElse: jump = regions_.if_else(); break;
        case Op::kIfEnd: regions_.if_end(); break;
        case Op::kLoopEnter: regions_.loop_enter(ins.loc); break;
        case Op::kLoopBackedge:
          // Back-edges are budgeted so even empty or condition-only spins
          // trip the watchdog.
          count_step(ins.loc);
          regions_.backedge();
          break;
        case Op::kMaskAnd:
          with_view(ins.a, [&](auto c) { truth_mask(cur(), c, cur()); });
          break;
        case Op::kLoopCheck:
          jump = regions_.loop_check(ins.aux, ins.loc);
          break;
        case Op::kClearReturned: regions_.clear_returned(); break;
        case Op::kLoopExit: regions_.loop_exit(); break;
        case Op::kJump: jump = true; break;
        case Op::kReturn: regions_.ret(); break;
      }
      pc = jump ? static_cast<std::size_t>(ins.target) : pc + 1;
    }
  }

  /// The flattened-index register of an array access.
  [[nodiscard]] const std::int64_t* flat(const Operand& o) {
    return reg<std::int64_t>(o.id);
  }

  const bytecode::Program& prog_;
  /// Virtual registers, lane-major: reg r covers [r*nlanes, (r+1)*nlanes)
  /// of the pool its static type selects.
  std::vector<std::int64_t> iregs_;
  std::vector<double> fregs_;
};

/// Element type of the buffer bound to parameter i, or its declared type
/// where the parameter is no pointer or the argument no valid buffer (the
/// launch then fails before any access, with the parameter binding's
/// error).
ir::ScalarType buffer_type(const ir::Kernel& kernel, const LaunchConfig& cfg,
                           const DeviceMemory& mem, std::size_t i) {
  const ir::Param& p = kernel.params[i];
  const auto* id =
      p.type.is_pointer && i < cfg.args.size()
          ? std::get_if<BufferId>(&cfg.args[i])
          : nullptr;
  return id && *id < mem.buffer_count() ? mem.buffer(*id).type()
                                        : p.type.scalar;
}

}  // namespace

std::vector<ir::ScalarType> buffer_types(const ir::Kernel& kernel,
                                         const LaunchConfig& cfg,
                                         const DeviceMemory& mem) {
  std::vector<ir::ScalarType> out;
  out.reserve(kernel.params.size());
  for (std::size_t i = 0; i < kernel.params.size(); ++i)
    out.push_back(buffer_type(kernel, cfg, mem, i));
  return out;
}

KernelStats run_block(const bytecode::Program& program, const DeviceSpec& spec,
                      DeviceMemory& mem, const Interpreter::Options& opt,
                      const BoundKernel& bound, const LaunchConfig& cfg,
                      Dim3 block_idx, int resident_blocks,
                      exec::BlockSanitizer* san, std::int64_t flat_block,
                      std::int64_t max_steps) {
  // Buffer loads write the register pool of the element type the program
  // was lowered for; a different bound buffer would be read as zeros.
  const ir::Kernel& kernel = *bound.kernel;
  for (std::size_t i = 0; i < kernel.params.size(); ++i) {
    const ir::ScalarType want = i < program.buffer_types.size()
                                    ? program.buffer_types[i]
                                    : kernel.params[i].type.scalar;
    const ir::ScalarType got = buffer_type(kernel, cfg, mem, i);
    if (got != want)
      throw SimError("bytecode lowered for " +
                     std::string(ir::to_string(want)) +
                     " elements at parameter '" + kernel.params[i].name +
                     "', but the bound buffer holds " + ir::to_string(got));
  }
  VmExec block(program, spec, mem, opt, bound, cfg, block_idx,
               resident_blocks, san, flat_block, max_steps);
  return block.run();
}

}  // namespace cudanp::sim::vm
