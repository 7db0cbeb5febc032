#include "sim/interpreter.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "sim/exec_core.hpp"
#include "sim/exec_pool.hpp"
#include "sim/fault.hpp"
#include "sim/sanitizer.hpp"
#include "sim/vm.hpp"
#include "support/string_utils.hpp"

namespace cudanp::sim {

using namespace cudanp::ir;

namespace {

using exec::any;
using exec::BlockSanitizer;
using exec::LaneView;
using exec::Lanes;
using exec::Mask;
using exec::Slot;

/// The reference engine: a recursive walk over the slot-bound AST. All
/// semantics live in exec::BlockCore, shared with the bytecode VM; this
/// class only owns the tree traversal and the Lanes materialization the
/// recursive evaluation style needs.
class BlockExec : public exec::BlockCore {
 public:
  using BlockCore::BlockCore;

  KernelStats run() {
    if (opt_.fault && opt_.fault->should_stall(flat_block_)) stall();
    exec_block(*kernel_.body, full_);
    return collect_stats();
  }

 private:
  /// Tracks the enclosing loops' back-edge counts for watchdog reports.
  struct LoopScope {
    std::vector<std::pair<SourceLoc, std::int64_t>>& stack;
    explicit LoopScope(
        std::vector<std::pair<SourceLoc, std::int64_t>>& s, SourceLoc loc)
        : stack(s) {
      stack.emplace_back(loc, 0);
    }
    ~LoopScope() { stack.pop_back(); }
  };

  [[nodiscard]] static LaneView<Value> view(const Lanes& v) {
    return {v.data(), Value{}};
  }

  [[nodiscard]] Mask empty_mask() const {
    return Mask(static_cast<std::size_t>(nwarps_), 0);
  }

  /// Tagged copy of typed lane storage.
  template <class T>
  [[nodiscard]] Lanes boxed(const T* data) const {
    Lanes out(static_cast<std::size_t>(nlanes_));
    for (std::size_t l = 0; l < out.size(); ++l) out[l] = arith::box(data[l]);
    return out;
  }

  // ---------------- expression evaluation ----------------
  Lanes eval(const Expr& e, const Mask& mask) {
    switch (e.kind()) {
      case ExprKind::kIntLit:
        return Lanes(static_cast<std::size_t>(nlanes_),
                     Value::of_int(static_cast<const IntLit&>(e).value));
      case ExprKind::kFloatLit:
        return Lanes(
            static_cast<std::size_t>(nlanes_),
            Value::of_float(static_cast<const FloatLit&>(e).value).to_f32());
      case ExprKind::kVarRef:
        return eval_varref(static_cast<const VarRef&>(e), mask);
      case ExprKind::kArrayIndex:
        return eval_index(static_cast<const ArrayIndex&>(e), mask,
                          /*store=*/nullptr);
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        Lanes lhs = eval(*b.lhs, mask);
        Lanes rhs = eval(*b.rhs, mask);
        Lanes out(static_cast<std::size_t>(nlanes_));
        do_binop(b.op, view(lhs), view(rhs), mask, out.data(), b.loc());
        return out;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        Lanes v = eval(*u.operand, mask);
        do_unop(u.op, view(v), mask, v.data());
        return v;
      }
      case ExprKind::kCall:
        return eval_call(static_cast<const CallExpr&>(e), mask);
      case ExprKind::kTernary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        Lanes c = eval(*t.cond, mask);
        Lanes a = eval(*t.then_value, mask);
        Lanes b = eval(*t.else_value, mask);
        do_select(view(c), view(a), view(b), mask, a.data());
        return a;
      }
      case ExprKind::kCast: {
        const auto& c = static_cast<const CastExpr&>(e);
        Lanes v = eval(*c.operand, mask);
        do_cast(c.to, view(v), mask, v.data());
        return v;
      }
    }
    throw SimError("unreachable expression kind");
  }

  Lanes eval_varref(const VarRef& v, const Mask& mask) {
    if (slot_is_geometry(v.sim_slot))
      return boxed(geom_[slot_geometry_code(v.sim_slot)].data());
    Slot& slot = var_read_check(v.sim_slot, v.name, mask, v.loc());
    Lanes out;
    slot.with_cells([&](auto* data) {
      out = slot.is_uniform_param
                ? Lanes(static_cast<std::size_t>(nlanes_), arith::box(data[0]))
                : boxed(data);  // register scalar: copy per-lane values
    });
    return out;
  }

  /// Flattens a (possibly multi-dim) index list; bounds-checks each dim.
  std::vector<std::int64_t> flatten_index(const ArrayIndex& ai,
                                         const Slot& slot, const Mask& mask) {
    const auto& dims = slot.type.array_dims;
    if (ai.indices.size() != dims.size())
      throw SimError("array '" +
                     static_cast<const VarRef&>(*ai.base).name + "' has " +
                     std::to_string(dims.size()) + " dims, indexed with " +
                     std::to_string(ai.indices.size()) + " at " +
                     ai.loc().str());
    std::vector<std::int64_t> flat(static_cast<std::size_t>(nlanes_), 0);
    for (std::size_t d = 0; d < dims.size(); ++d) {
      Lanes idx = eval(*ai.indices[d], mask);
      if (d > 0) charge_issue(mask, opt_.timing.weights.alu);  // index math
      flatten_dim(flat.data(), view(idx), dims[d], /*first=*/d == 0, mask,
                  ai.loc());
    }
    return flat;
  }

  /// Load (store == nullptr) or store (store != nullptr provides values).
  Lanes eval_index(const ArrayIndex& ai, const Mask& mask,
                   const Lanes* store) {
    if (ai.base->kind() != ExprKind::kVarRef)
      throw SimError("array base must be a variable at " + ai.loc().str());
    const auto& base = static_cast<const VarRef&>(*ai.base);
    const std::string& name = base.name;
    Slot& slot = slot_at(base.sim_slot, name, ai.loc());

    if (slot.is_buffer_param) {
      if (ai.indices.size() != 1)
        throw SimError("pointer '" + name + "' requires exactly one index");
      Lanes idx = eval(*ai.indices[0], mask);
      Lanes out(static_cast<std::size_t>(nlanes_));
      if (store)
        buffer_store(slot, view(idx), mask, view(*store));
      else
        buffer_load(slot, name, view(idx), mask, out.data(), ai.loc());
      return out;
    }

    if (!slot.type.is_array())
      throw SimError("'" + name + "' is not an array at " + ai.loc().str());

    const auto flat = flatten_index(ai, slot, mask);
    Lanes out(static_cast<std::size_t>(nlanes_));
    switch (slot.type.space) {
      case AddrSpace::kShared:
        if (store)
          shared_store(slot, name, flat.data(), mask, view(*store), ai.loc());
        else
          shared_load(slot, name, flat.data(), mask, out.data(), ai.loc());
        return out;
      case AddrSpace::kLocal:
      case AddrSpace::kRegister:
      case AddrSpace::kConstant:
        if (store)
          local_store(slot, flat.data(), mask, view(*store));
        else
          local_load(slot, name, flat.data(), mask, out.data(), ai.loc());
        return out;
      case AddrSpace::kGlobal:
        break;
    }
    throw SimError("unsupported address space for array '" + name + "'");
  }

  Lanes eval_call(const CallExpr& c, const Mask& mask) {
    const std::string& f = c.callee;
    // Dispatch on the binder's integer annotation; the string resolution
    // only runs for nodes created after binding (mutated AST).
    Builtin b = c.sim_builtin == kBuiltinUnset
                    ? resolve_builtin(f)
                    : static_cast<Builtin>(c.sim_builtin);

    switch (b) {
      case Builtin::kSyncthreads: {
        do_sync(mask, c.loc());
        return Lanes(static_cast<std::size_t>(nlanes_), Value::of_int(0));
      }
      case Builtin::kShfl:
      case Builtin::kShflUp:
      case Builtin::kShflDown:
      case Builtin::kShflXor:
        return eval_shfl(c, b, mask);
      case Builtin::kSqrt:
      case Builtin::kFabs:
      case Builtin::kExp:
      case Builtin::kLog:
      case Builtin::kSin:
      case Builtin::kCos:
      case Builtin::kFloor:
      case Builtin::kRsqrt: {
        if (c.args.size() != 1)
          throw SimError(f + " expects 1 argument at " + c.loc().str());
        const arith::MathFn1& m = arith::unary_math(b);
        Lanes v = eval(*c.args[0], mask);
        do_unary_math(m.fn, m.sfu, view(v), mask, v.data());
        return v;
      }
      case Builtin::kAbs: {
        if (c.args.size() != 1)
          throw SimError("abs expects 1 argument at " + c.loc().str());
        Lanes v = eval(*c.args[0], mask);
        do_abs(view(v), mask, v.data());
        return v;
      }
      case Builtin::kMin:
      case Builtin::kMax:
      case Builtin::kFminf:
      case Builtin::kFmaxf:
      case Builtin::kPowf: {
        if (c.args.size() != 2)
          throw SimError(f + " expects 2 arguments at " + c.loc().str());
        Lanes av = eval(*c.args[0], mask);
        Lanes bv = eval(*c.args[1], mask);
        Lanes out(static_cast<std::size_t>(nlanes_));
        do_binmath(b, view(av), view(bv), mask, out.data());
        return out;
      }
      case Builtin::kNotBuiltin:
        break;
    }
    throw SimError("unknown function '" + f + "' at " + c.loc().str());
  }

  /// __shfl family. Per paper Sec. 2.1: a warp is partitioned into groups
  /// of `width`; reads source lanes' register values.
  Lanes eval_shfl(const CallExpr& c, Builtin b, const Mask& mask) {
    if (spec_.sm_version < 30)
      throw SimError("__shfl requires sm_30+ (device is sm_" +
                     std::to_string(spec_.sm_version) + ")");
    if (c.args.size() != 3)
      throw SimError(c.callee + " expects (var, lane, width) at " +
                     c.loc().str());
    // Source values must exist for all lanes in active warps, so evaluate
    // the variable under a warp-broadened mask.
    Mask broad = empty_mask();
    make_broad_mask(mask, broad);
    // Suppress uninit-read reports while evaluating under the broadened
    // mask: only the lanes actually *selected* as shfl sources matter, and
    // those are checked below once the source lanes are known.
    ++shfl_arg_depth_;
    Lanes var = eval(*c.args[0], broad);
    --shfl_arg_depth_;
    Lanes sel = eval(*c.args[1], mask);
    Lanes width = eval(*c.args[2], mask);
    std::int32_t var_slot = kSlotUnbound;
    const std::string* var_name = nullptr;
    if (c.args[0]->kind() == ExprKind::kVarRef) {
      const auto& vr = static_cast<const VarRef&>(*c.args[0]);
      var_slot = vr.sim_slot;
      var_name = &vr.name;
    }
    Lanes out(static_cast<std::size_t>(nlanes_));
    do_shfl(b, c.callee, view(var), view(sel), view(width), mask, out.data(),
            c.loc(), var_slot, var_name);
    return out;
  }

  // ---------------- statement execution ----------------
  void exec_block(const Block& b, Mask mask) {
    for (const auto& s : b.stmts) {
      // Returned lanes stay dead for the rest of the kernel.
      if (!clear_returned(mask)) return;
      exec(*s, mask);
    }
  }

  void exec(const Stmt& s, const Mask& mask) {
    count_step(s.loc());
    switch (s.kind()) {
      case StmtKind::kBlock:
        exec_block(static_cast<const Block&>(s), mask);
        return;
      case StmtKind::kDecl: {
        begin_leaf_stmt();
        const auto& d = static_cast<const DeclStmt&>(s);
        Slot& slot = declare(d);
        if (!d.init_list.empty()) {
          // Brace initializer: constant contents, identical for every
          // thread; evaluated once with lane-0 semantics.
          if (static_cast<std::int64_t>(d.init_list.size()) >
              d.type.element_count())
            throw SimError("too many initializers for '" + d.name + "'");
          Mask one = empty_mask();
          one[0] = 1;
          for (std::size_t e = 0; e < d.init_list.size(); ++e) {
            Lanes v = eval(*d.init_list[e], one);
            decl_fill(slot, d.type, e, v[0]);
          }
          decl_shadow_all(slot, d.type);
          end_leaf_stmt();
          return;
        }
        if (d.init) {
          if (d.type.is_array())
            throw SimError("array initializers are not supported at " +
                           d.loc().str());
          Lanes v = eval(*d.init, mask);
          decl_scalar_init(slot, mask, view(v));
        }
        end_leaf_stmt();
        return;
      }
      case StmtKind::kAssign: {
        begin_leaf_stmt();
        exec_assign(static_cast<const AssignStmt&>(s), mask);
        end_leaf_stmt();
        return;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        begin_leaf_stmt();
        Lanes c = eval(*i.cond, mask);
        charge_issue(mask, opt_.timing.weights.alu);  // branch
        end_leaf_stmt();
        Mask then_mask = empty_mask();
        Mask else_mask = empty_mask();
        split_mask(mask, view(c), then_mask, else_mask);
        if (any(then_mask)) exec_block(*i.then_body, then_mask);
        if (i.else_body && any(else_mask)) exec_block(*i.else_body, else_mask);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.init) exec(*f.init, mask);
        Mask active = mask;
        std::int64_t iters = 0;
        LoopScope loop(loop_stack_, f.loc());
        while (true) {
          // Back-edges are budgeted so even empty or condition-only spins
          // (e.g. a dropped increment) trip the watchdog.
          count_step(f.loc());
          ++loop_stack_.back().second;
          if (f.cond) {
            begin_leaf_stmt();
            Lanes c = eval(*f.cond, active);
            charge_issue(active, opt_.timing.weights.alu);
            end_leaf_stmt();
            truth_mask(active, view(c), active);
          }
          if (!any(active)) break;
          if (++iters > opt_.limits.max_loop_iterations)
            throw SimError("loop exceeded max iterations at " +
                           f.loc().str());
          exec_block(*f.body, active);
          // Lanes that returned inside the body stop iterating.
          if (!clear_returned(active)) break;
          if (f.inc) exec(*f.inc, active);
        }
        return;
      }
      case StmtKind::kWhile: {
        const auto& wl = static_cast<const WhileStmt&>(s);
        Mask active = mask;
        std::int64_t iters = 0;
        LoopScope loop(loop_stack_, wl.loc());
        while (true) {
          count_step(wl.loc());
          ++loop_stack_.back().second;
          begin_leaf_stmt();
          Lanes c = eval(*wl.cond, active);
          charge_issue(active, opt_.timing.weights.alu);
          end_leaf_stmt();
          truth_mask(active, view(c), active);
          if (!any(active)) break;
          if (++iters > opt_.limits.max_loop_iterations)
            throw SimError("while loop exceeded max iterations at " +
                           wl.loc().str());
          exec_block(*wl.body, active);
          (void)clear_returned(active);
        }
        return;
      }
      case StmtKind::kExpr: {
        begin_leaf_stmt();
        (void)eval(*static_cast<const ExprStmt&>(s).expr, mask);
        end_leaf_stmt();
        return;
      }
      case StmtKind::kReturn:
        mark_returned(mask);
        return;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        throw SimError(
            "break/continue are not supported by the simulator; use a "
            "guarding if (paper Sec. 3.7 padding uses `if (i < n)`)");
    }
  }

  void exec_assign(const AssignStmt& a, const Mask& mask) {
    Lanes rhs = eval(*a.rhs, mask);
    // Compound assignment reads the target first.
    if (a.op != AssignOp::kAssign) {
      Lanes old = eval(*a.lhs, mask);
      BinOp op = a.op == AssignOp::kAdd   ? BinOp::kAdd
                 : a.op == AssignOp::kSub ? BinOp::kSub
                 : a.op == AssignOp::kMul ? BinOp::kMul
                                          : BinOp::kDiv;
      do_compound(op, view(old), view(rhs), mask, rhs.data(), a.loc());
    }
    if (a.lhs->kind() == ExprKind::kVarRef) {
      const auto& v = static_cast<const VarRef&>(*a.lhs);
      store_var(v.sim_slot, v.name, mask, view(rhs), v.loc());
      return;
    }
    if (a.lhs->kind() == ExprKind::kArrayIndex) {
      (void)eval_index(static_cast<const ArrayIndex&>(*a.lhs), mask, &rhs);
      return;
    }
    throw SimError("invalid assignment target at " + a.loc().str());
  }
};

/// Everything one block produced, staged for the deterministic merge.
struct BlockOutcome {
  KernelStats stats;
  bool done = false;          // executed (possibly faulting); false when
                              // cooperative cancellation skipped the block
  bool ok = false;
  bool faulted = false;       // sanitized SimError, contained to the block
  bool tripped = false;       // sanitized watchdog trip; cancels the launch
  std::string fault_message;
  SourceLoc trip_loc;
  std::vector<HazardReport> reports;  // hazard stream, in execution order
  std::exception_ptr error;   // unsanitized failure, rethrown by the merge
};

}  // namespace

std::int64_t ExecutionLimits::resolve() const {
  std::int64_t steps = Interpreter::resolve_max_steps(max_steps_per_block);
  if (deadline_steps > 0) steps = std::min(steps, deadline_steps);
  return steps;
}

std::int64_t Interpreter::resolve_max_steps(std::int64_t requested) {
  if (requested > 0) return requested;
  if (requested < 0) return std::numeric_limits<std::int64_t>::max();
  if (const char* env = std::getenv("CUDANP_MAX_STEPS")) {
    // Checked parse: partial ("10x") or out-of-range values are ignored
    // (fall through to the default) instead of strtoll's prefix parse.
    if (auto v = parse_i64(env, 1, std::numeric_limits<std::int64_t>::max()))
      return *v;
  }
  return kDefaultMaxStepsPerBlock;
}

void validate_launch(const DeviceSpec& spec, const LaunchConfig& cfg,
                     std::int64_t shared_mem_per_block) {
  auto bad_dim = [](const char* what, const Dim3& d) {
    return std::string("invalid launch: ") + what + " dimensions (" +
           std::to_string(d.x) + "," + std::to_string(d.y) + "," +
           std::to_string(d.z) + ") must all be positive";
  };
  if (cfg.grid.x <= 0 || cfg.grid.y <= 0 || cfg.grid.z <= 0)
    throw SimError(bad_dim("grid", cfg.grid));
  if (cfg.block.x <= 0 || cfg.block.y <= 0 || cfg.block.z <= 0)
    throw SimError(bad_dim("block", cfg.block));
  if (cfg.block.count() > spec.max_threads_per_block)
    throw SimError("invalid launch: block size " +
                   std::to_string(cfg.block.count()) +
                   " exceeds the device limit of " +
                   std::to_string(spec.max_threads_per_block) + " threads");
  if (shared_mem_per_block > spec.shared_mem_per_smx)
    throw SimError("invalid launch: " +
                   std::to_string(shared_mem_per_block) +
                   " bytes of shared memory per block exceed the SMX "
                   "capacity of " +
                   std::to_string(spec.shared_mem_per_smx) + " bytes");
}

KernelStats Interpreter::run(const Kernel& kernel, const LaunchConfig& cfg,
                             int resident_blocks_per_smx) {
  validate_launch(spec_, cfg);

  const auto bound = bind_kernel(kernel);
  // Lowered once per launch (after any fault-injected AST corruption);
  // only the test-facing reference mode runs the AST walk instead.
  std::shared_ptr<const bytecode::Program> program;
  if (!opt_.ast_reference)
    program = bytecode::lower(*bound, vm::buffer_types(kernel, cfg, mem_));
  const std::int64_t nblocks = cfg.grid.count();
  const int jobs = ExecPool::resolve_jobs(opt_.jobs);
  const std::int64_t max_steps = opt_.limits.resolve();
  // One tripped (or erroring) block cooperatively cancels the blocks that
  // have not started yet; the ordered merge below re-runs any cancelled
  // block that precedes the first trip, so the outcome is bit-identical
  // to serial execution at every job count.
  std::atomic<bool> cancel{false};

  // Blocks are independent (they communicate only through __syncthreads
  // within themselves), so the grid runs on `jobs` host threads. Each
  // block writes its outcome to its own slot; nothing below touches the
  // shared SanitizerEngine until the ordered merge.
  std::vector<BlockOutcome> outcomes(static_cast<std::size_t>(nblocks));
  auto run_block = [&](std::int64_t i) {
    BlockOutcome& out = outcomes[static_cast<std::size_t>(i)];
    const Dim3 bidx{static_cast<int>(i % cfg.grid.x),
                    static_cast<int>((i / cfg.grid.x) % cfg.grid.y),
                    static_cast<int>(i / (cfg.grid.x * cfg.grid.y))};
    BlockSanitizer bs{opt_.sanitizer, {}};
    BlockSanitizer* bsp = opt_.sanitizer ? &bs : nullptr;
    try {
      if (program) {
        out.stats =
            vm::run_block(*program, spec_, mem_, opt_, *bound, cfg, bidx,
                          resident_blocks_per_smx, bsp, i, max_steps);
      } else {
        BlockExec block(spec_, mem_, opt_, *bound, cfg, bidx,
                        resident_blocks_per_smx, bsp, i, max_steps);
        out.stats = block.run();
      }
      out.ok = true;
    } catch (const WatchdogError& e) {
      if (opt_.sanitizer) {
        // A trip is not containable like a kSimFault: the same runaway
        // loop would burn the full budget in every remaining block, so
        // the launch is cancelled instead of kept going.
        out.tripped = true;
        out.fault_message = e.what();
        out.trip_loc = e.loc();
      } else {
        out.error = std::current_exception();
      }
      cancel.store(true, std::memory_order_relaxed);
    } catch (const SimError& e) {
      if (opt_.sanitizer) {
        // Keep-going mode: contain the fault to this block; the merge
        // records it after the block's earlier hazards, like the serial
        // engine did.
        out.faulted = true;
        out.fault_message = e.what();
      } else {
        out.error = std::current_exception();
        cancel.store(true, std::memory_order_relaxed);
      }
    } catch (...) {
      out.error = std::current_exception();
      cancel.store(true, std::memory_order_relaxed);
    }
    out.reports = std::move(bs.reports);
    out.done = true;
  };

  if (jobs <= 1 || nblocks <= 1) {
    for (std::int64_t i = 0; i < nblocks; ++i) {
      run_block(i);
      // Serial unsanitized runs abort at the first failing block, exactly
      // like the original grid loop; a sanitized trip likewise cancels
      // the remaining blocks (the merge discards everything after it).
      if (outcomes[static_cast<std::size_t>(i)].error)
        std::rethrow_exception(outcomes[static_cast<std::size_t>(i)].error);
      if (outcomes[static_cast<std::size_t>(i)].tripped) break;
    }
  } else {
    ExecPool::instance().parallel_for(nblocks, jobs, run_block, &cancel);
  }

  // Deterministic merge, in block-index order (== the old serial order):
  // replay each block's hazard stream through the shared engine so
  // dedupe, total counts and the error limit behave identically at every
  // job count, then fold stats of blocks that count.
  KernelStats total;
  bool stop = false;
  for (std::int64_t i = 0; i < nblocks && !stop; ++i) {
    BlockOutcome& out = outcomes[static_cast<std::size_t>(i)];
    // A block cancelled before it started may precede the first trip in
    // index order (a higher-index block can trip first under parallel
    // scheduling); run it inline now so the merge sees exactly the serial
    // prefix. Blocks at or past the first processed trip are never
    // reached — the merge stops there.
    if (!out.done) run_block(i);
    for (auto& r : out.reports) {
      try {
        opt_.sanitizer->report(std::move(r));
      } catch (const HazardLimitReached&) {
        stop = true;  // engine kept the triggering report
        break;
      }
    }
    if (stop) break;  // this block's stats are discarded, like serial
    if (out.error) std::rethrow_exception(out.error);
    if (out.ok) {
      total.add_block(out.stats);
    } else if (out.tripped) {
      HazardReport r;
      r.kind = HazardKind::kWatchdogTrip;
      r.kernel = kernel.name;
      r.block = Dim3{static_cast<int>(i % cfg.grid.x),
                     static_cast<int>((i / cfg.grid.x) % cfg.grid.y),
                     static_cast<int>(i / (cfg.grid.x * cfg.grid.y))};
      r.loc = out.trip_loc;
      r.message = out.fault_message;
      try {
        opt_.sanitizer->report(std::move(r));
      } catch (const HazardLimitReached&) {
      }
      // The launch is cancelled at the first (lowest-index) trip; later
      // blocks' outcomes are discarded, exactly like serial execution.
      stop = true;
    } else if (out.faulted) {
      HazardReport r;
      r.kind = HazardKind::kSimFault;
      r.kernel = kernel.name;
      r.block = Dim3{static_cast<int>(i % cfg.grid.x),
                     static_cast<int>((i / cfg.grid.x) % cfg.grid.y),
                     static_cast<int>(i / (cfg.grid.x * cfg.grid.y))};
      r.message = out.fault_message;
      try {
        opt_.sanitizer->report(std::move(r));
      } catch (const HazardLimitReached&) {
        stop = true;
      }
    }
  }
  // crit_path_cycles was summed per block; convert to the average block's
  // slowest-warp path.
  if (total.blocks > 0)
    total.crit_path_cycles /= static_cast<double>(total.blocks);
  return total;
}

RunResult run_and_time(const DeviceSpec& spec, DeviceMemory& mem,
                       const ir::Kernel& kernel, const LaunchConfig& cfg,
                       const ResourceUsage& resources,
                       Interpreter::Options opt) {
  RunResult r;
  validate_launch(spec, cfg, resources.shared_mem_per_block);
  r.occupancy = compute_occupancy(
      spec, static_cast<int>(cfg.block.count()), resources);
  if (r.occupancy.blocks_per_smx == 0)
    throw SimError("kernel '" + kernel.name +
                   "' cannot launch: occupancy zero (" +
                   r.occupancy.limiting_factor + ")");
  Interpreter interp(spec, mem, opt);
  r.stats = interp.run(kernel, cfg, r.occupancy.blocks_per_smx);
  TimingModel model(spec, opt.timing.weights);
  r.timing = model.estimate(r.stats, r.occupancy);
  return r;
}

}  // namespace cudanp::sim
