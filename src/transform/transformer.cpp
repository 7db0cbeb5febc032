#include "transform/transformer.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/liveness.hpp"
#include "analysis/loop_info.hpp"
#include "analysis/uniformity.hpp"
#include "ir/printer.hpp"
#include "sim/binder.hpp"
#include "transform/comm_codegen.hpp"
#include "transform/rewrite.hpp"

namespace cudanp::transform {

using namespace cudanp::ir;
using analysis::UniformityTracker;

namespace {

constexpr int kMaxThreadsPerBlock = 1024;
constexpr int kMaxSlaveSize = 32;
/// Paper Sec. 3.3: shared-memory replacement threshold for local arrays.
constexpr std::int64_t kSharedPlacementThresholdBytes = 384;
constexpr std::int64_t kSharedMemPerSmx = 48 * 1024;

[[nodiscard]] ExprPtr slave_id() { return make_var("slave_id"); }

[[nodiscard]] StmtPtr master_guard(std::vector<StmtPtr> stmts) {
  auto body = make_block();
  body->stmts = std::move(stmts);
  return std::make_unique<IfStmt>(
      make_bin(BinOp::kEq, slave_id(), make_int(0)), std::move(body));
}

[[nodiscard]] bool subtree_contains(const Stmt& s,
                                    const std::function<bool(const Stmt&)>& p) {
  bool found = false;
  for_each_stmt(s, [&](const Stmt& c) { found = found || p(c); });
  return found;
}

[[nodiscard]] bool contains_parallel_loop(const Stmt& s) {
  return subtree_contains(s, [](const Stmt& c) {
    return c.kind() == StmtKind::kFor &&
           static_cast<const ForStmt&>(c).pragma.has_value();
  });
}

[[nodiscard]] bool contains_return(const Stmt& s) {
  return subtree_contains(
      s, [](const Stmt& c) { return c.kind() == StmtKind::kReturn; });
}

/// Per-local-array placement bookkeeping (paper Sec. 3.3).
struct ArrayInfo {
  DeclStmt* decl = nullptr;
  std::int64_t elems = 0;
  ScalarType scalar = ScalarType::kFloat;
  bool partitionable = true;
  bool accessed = false;
  std::int64_t trip = -1;  // common const trip count of accessing loops
  LocalPlacement resolved = LocalPlacement::kAuto;
};

class Transformer {
 public:
  Transformer(const Kernel& kernel, const NpConfig& config,
              cudanp::DiagnosticEngine& diags)
      : orig_(kernel), cfg_(config), diags_(diags), comm_(cfg_) {}

  TransformResult run() {
    validate();
    result_.config = cfg_;
    np_ = orig_.clone();
    np_->name += cfg_.name_suffix;

    rewrite_geometry();
    chunk_mode_ = kernel_has_scan();
    decide_placements();
    apply_nonregister_placements();

    symbols_ = analysis::build_symbol_table(*np_);
    std::set<std::string> seed = {"master_id"};
    tracker_ =
        std::make_unique<UniformityTracker>(symbols_, std::move(seed));
    // Scalar parameters are uniform across the whole grid.
    for (const auto& p : np_->params)
      if (!p.type.is_pointer) tracker_->mark_uniform(p.name);

    auto out = make_block();
    transform_region(*np_->body, *out, {});
    flush_guard(*out);

    // Assemble: prologue + comm shared buffers + transformed body.
    auto body = make_block();
    bool inter = !cfg_.intra_warp();
    body->push(std::make_unique<DeclStmt>(
        Type::scalar_of(ScalarType::kInt), "master_id",
        make_var(inter ? "threadIdx.x" : "threadIdx.y")));
    body->push(std::make_unique<DeclStmt>(
        Type::scalar_of(ScalarType::kInt), "slave_id",
        make_var(inter ? "threadIdx.y" : "threadIdx.x")));
    for (auto& d : comm_.take_shared_decls()) body->push(std::move(d));
    for (auto& s : out->stmts) body->push(std::move(s));
    np_->body = std::move(body);

    result_.kernel = std::move(np_);
    result_.block_dims = inter
                             ? sim::Dim3{cfg_.master_count, cfg_.slave_size, 1}
                             : sim::Dim3{cfg_.slave_size, cfg_.master_count, 1};
    return std::move(result_);
  }

 private:
  // ------------------------------------------------ validation & setup
  void validate() {
    if (cfg_.master_count <= 0)
      throw cudanp::CompileError("NpConfig.master_count must be set to the "
                                 "baseline thread-block size");
    if (cfg_.slave_size < 2)
      throw cudanp::CompileError("slave_size must be >= 2");
    if (cfg_.slave_size > kMaxSlaveSize)
      throw cudanp::CompileError("slave_size must be <= 32");
    if (cfg_.block_threads() > kMaxThreadsPerBlock)
      throw cudanp::CompileError(
          "transformed block would have " +
          std::to_string(cfg_.block_threads()) + " threads (max " +
          std::to_string(kMaxThreadsPerBlock) + ")");
    if (cfg_.intra_warp() &&
        (cfg_.slave_size & (cfg_.slave_size - 1)) != 0)
      throw cudanp::CompileError(
          "intra-warp NP requires a power-of-two slave_size so groups do "
          "not straddle warps (paper Sec. 3.4)");
    if (orig_.parallel_loop_count() == 0)
      throw cudanp::CompileError("kernel '" + orig_.name +
                                 "' has no #pragma np parallel loops");
    if (const CallExpr* c = cfg_.intra_warp() ? first_shfl_call(orig_)
                                              : nullptr)
      throw cudanp::CompileError(
          c->loc(), "intra-warp NP remaps lanes (master_id = threadIdx.y), "
                    "so the kernel's own " + c->callee +
                    " would read another master's thread; use inter-warp NP");
    // Reserved names.
    auto symbols = analysis::build_symbol_table(orig_);
    for (const auto& [name, type] : symbols) {
      (void)type;
      if (name == "master_id" || name == "slave_id" ||
          name.rfind("__np_", 0) == 0)
        throw cudanp::CompileError("kernel uses reserved identifier '" +
                                   name + "'");
    }
  }

  /// threadIdx.x -> master_id; blockDim.x -> master_count literal. The
  /// preprocessor guarantees 1-D input blocks, so .y/.z must be absent.
  void rewrite_geometry() {
    bool bad_dim = false;
    rewrite_exprs(*np_->body, [&](ExprPtr& e) {
      if (e->kind() != ExprKind::kVarRef) return;
      const std::string& n = static_cast<const VarRef&>(*e).name;
      if (n == "threadIdx.x")
        e = make_var("master_id");
      else if (n == "blockDim.x")
        e = make_int(cfg_.master_count);
      else if (n == "threadIdx.y" || n == "threadIdx.z" ||
               n == "blockDim.y" || n == "blockDim.z")
        bad_dim = true;
    });
    if (bad_dim)
      throw cudanp::CompileError(
          "kernel uses multi-dimensional thread ids; run the "
          "flatten_thread_dims preprocessor first (paper Sec. 3.7)");
  }

  [[nodiscard]] bool kernel_has_scan() const {
    bool scan = false;
    for_each_stmt(*np_->body, [&](const Stmt& s) {
      if (s.kind() == StmtKind::kFor) {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.pragma && !f.pragma->scans.empty()) scan = true;
      }
    });
    return scan;
  }

  // ------------------------------------------------ local-array placement
  void decide_placements() {
    // Find local-array declarations.
    for_each_stmt_mut(*np_->body, [&](Stmt& s) {
      if (s.kind() != StmtKind::kDecl) return;
      auto& d = static_cast<DeclStmt&>(s);
      if (d.type.is_array() && d.type.space == AddrSpace::kLocal) {
        ArrayInfo info;
        info.decl = &d;
        info.elems = d.type.element_count();
        info.scalar = d.type.scalar;
        arrays_[d.name] = info;
      }
    });
    if (arrays_.empty()) return;

    // Classify accesses: an array is register-partitionable iff every
    // access is `arr[iter]` inside a canonical `#pragma np` loop starting
    // at 0 with step 1 and a compile-time trip count (paper Sec. 3.3,
    // option 3's "no interleaving" condition).
    classify_accesses(*np_->body, /*iter=*/"", /*trip=*/-1);

    std::int64_t existing_smem = 0;
    for_each_stmt(*np_->body, [&](const Stmt& s) {
      if (s.kind() == StmtKind::kDecl) {
        const auto& d = static_cast<const DeclStmt&>(s);
        if (d.type.space == AddrSpace::kShared)
          existing_smem += d.type.size_bytes();
      }
    });

    // Shared-memory budget: whatever one SMX has left after the kernel's
    // own shared arrays. Arrays are re-homed in declaration order until
    // the budget runs out; later arrays fall back (to global under
    // kAuto, to staying in local memory under a forced kShared — the
    // paper's LIB keeps one of its arrays in local memory for exactly
    // this reason, Table 1's OPT LM = 640 B).
    std::int64_t smem_left = kSharedMemPerSmx - existing_smem;
    for (auto& [name, info] : arrays_) {
      std::int64_t bytes =
          info.elems * Type::scalar_size_bytes(info.scalar);
      std::int64_t smem_need = bytes * cfg_.master_count;
      LocalPlacement p = cfg_.placement;
      if (p == LocalPlacement::kAuto) {
        std::int64_t per_thread_budget = kSharedPlacementThresholdBytes -
                                         existing_smem / cfg_.master_count;
        if (info.partitionable && info.trip > 0)
          p = LocalPlacement::kRegister;
        else if (bytes <= per_thread_budget && smem_need <= smem_left)
          p = LocalPlacement::kShared;
        else
          p = LocalPlacement::kGlobal;
      }
      if (p == LocalPlacement::kRegister &&
          (!info.partitionable || info.trip <= 0))
        throw cudanp::CompileError(
            "local array '" + name +
            "' cannot be register-partitioned (accesses are not "
            "iterator-indexed inside canonical parallel loops)");
      if (p == LocalPlacement::kShared) {
        if (smem_need <= smem_left) {
          smem_left -= smem_need;
        } else if (info.partitionable) {
          // Keeping it per-thread is safe only when every access is
          // slave-private (the partitionable condition).
          p = LocalPlacement::kKeep;
        } else {
          p = LocalPlacement::kGlobal;
        }
      }
      // Re-homing replaces the per-thread declaration, and a brace
      // initializer has no per-master form there.
      if (p != LocalPlacement::kKeep && !info.decl->init_list.empty())
        throw cudanp::CompileError(
            info.decl->loc(),
            "local array '" + name + "' has a brace initializer, so it " +
                "cannot be re-homed (placement " + to_string(p) + ")");
      info.resolved = p;
      result_.placements.emplace_back(name, p);
      result_.notes.push_back("local array '" + name + "' (" +
                              std::to_string(bytes) + " B) -> " +
                              to_string(p));
    }
  }

  void classify_accesses(const Stmt& s, const std::string& iter,
                         std::int64_t trip) {
    switch (s.kind()) {
      case StmtKind::kBlock:
        for (const auto& c : static_cast<const Block&>(s).stmts)
          classify_accesses(*c, iter, trip);
        return;
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        std::string inner_iter = iter;
        std::int64_t inner_trip = trip;
        if (f.pragma) {
          auto info = analysis::analyze_loop(f);
          if (info && info->const_trip_count &&
              info->init->kind() == ExprKind::kIntLit &&
              static_cast<const IntLit&>(*info->init).value == 0 &&
              info->step == 1) {
            inner_iter = info->iterator;
            inner_trip = *info->const_trip_count;
          } else {
            inner_iter = "";
            inner_trip = -1;
          }
        }
        if (f.init) check_exprs_in_stmt(*f.init, iter, trip);
        if (f.cond) check_expr(*f.cond, iter, trip);
        if (f.inc) check_exprs_in_stmt(*f.inc, iter, trip);
        classify_accesses(*f.body, inner_iter, inner_trip);
        return;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        check_expr(*i.cond, iter, trip);
        classify_accesses(*i.then_body, iter, trip);
        if (i.else_body) classify_accesses(*i.else_body, iter, trip);
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        check_expr(*w.cond, iter, trip);
        classify_accesses(*w.body, iter, trip);
        return;
      }
      default:
        check_exprs_in_stmt(s, iter, trip);
        return;
    }
  }

  void check_exprs_in_stmt(const Stmt& s, const std::string& iter,
                           std::int64_t trip) {
    if (s.kind() == StmtKind::kDecl) {
      const auto& d = static_cast<const DeclStmt&>(s);
      if (d.init) check_expr(*d.init, iter, trip);
    } else if (s.kind() == StmtKind::kAssign) {
      const auto& a = static_cast<const AssignStmt&>(s);
      check_expr(*a.lhs, iter, trip);
      check_expr(*a.rhs, iter, trip);
    } else if (s.kind() == StmtKind::kExpr) {
      check_expr(*static_cast<const ExprStmt&>(s).expr, iter, trip);
    }
  }

  void check_expr(const Expr& e, const std::string& iter, std::int64_t trip) {
    for_each_expr(e, [&](const Expr& sub) {
      if (sub.kind() != ExprKind::kArrayIndex) return;
      const auto& ai = static_cast<const ArrayIndex&>(sub);
      if (ai.base->kind() != ExprKind::kVarRef) return;
      const std::string& name = static_cast<const VarRef&>(*ai.base).name;
      auto it = arrays_.find(name);
      if (it == arrays_.end()) return;
      ArrayInfo& info = it->second;
      info.accessed = true;
      bool ok = !iter.empty() && ai.indices.size() == 1 &&
                ai.indices[0]->kind() == ExprKind::kVarRef &&
                static_cast<const VarRef&>(*ai.indices[0]).name == iter;
      if (!ok) {
        info.partitionable = false;
        return;
      }
      if (info.trip < 0)
        info.trip = trip;
      else if (info.trip != trip)
        info.partitionable = false;  // inconsistent element->slave mapping
    });
  }

  void apply_nonregister_placements() {
    for (auto& [name, info] : arrays_) {
      switch (info.resolved) {
        case LocalPlacement::kShared: {
          info.decl->type = Type::array_of(
              info.scalar, {info.elems, cfg_.master_count},
              AddrSpace::kShared);
          const std::string n = name;
          rewrite_exprs(*np_->body, [&](ExprPtr& e) {
            if (e->kind() != ExprKind::kArrayIndex) return;
            auto& ai = static_cast<ArrayIndex&>(*e);
            if (ai.base->kind() != ExprKind::kVarRef ||
                static_cast<const VarRef&>(*ai.base).name != n)
              return;
            if (ai.indices.size() == 1)
              ai.indices.push_back(make_var("master_id"));
          });
          break;
        }
        case LocalPlacement::kGlobal: {
          // Remove the declaration, append a pointer parameter, and
          // rewrite accesses to the interleaved-by-master layout of the
          // paper's Fig. 6a: elem e of master m in block b lives at
          // ((b * N) + e) * M + m.
          std::string pname = "__np_" + name + "_g";
          np_->params.push_back({Type::pointer_to(info.scalar), pname});
          result_.extra_buffers.push_back(
              {pname, info.scalar, info.elems * cfg_.master_count});
          const std::string n = name;
          const std::int64_t elems = info.elems;
          // Drop the decl: replace with an empty block.
          replace_decl_with_empty(n);
          rewrite_exprs(*np_->body, [&](ExprPtr& e) {
            if (e->kind() != ExprKind::kArrayIndex) return;
            auto& ai = static_cast<ArrayIndex&>(*e);
            if (ai.base->kind() != ExprKind::kVarRef ||
                static_cast<const VarRef&>(*ai.base).name != n)
              return;
            if (ai.indices.size() != 1) return;
            ExprPtr idx = std::move(ai.indices[0]);
            ExprPtr flat = make_bin(
                BinOp::kAdd,
                make_bin(BinOp::kMul,
                         make_bin(BinOp::kAdd,
                                  make_bin(BinOp::kMul,
                                           make_var("blockIdx.x"),
                                           make_int(elems)),
                                  std::move(idx)),
                         make_int(cfg_.master_count)),
                make_var("master_id"));
            std::vector<ExprPtr> iv;
            iv.push_back(std::move(flat));
            e = make_index(make_var(pname), std::move(iv));
          });
          break;
        }
        case LocalPlacement::kRegister: {
          std::int64_t per_slave =
              (info.trip + cfg_.slave_size - 1) / cfg_.slave_size;
          info.decl->type = Type::array_of(info.scalar, {per_slave},
                                           AddrSpace::kRegister);
          register_arrays_.insert(name);
          break;  // access rewriting happens at loop emission
        }
        case LocalPlacement::kKeep:
          break;  // stays a per-thread local-memory array
        case LocalPlacement::kAuto:
          break;  // unreachable: kAuto is resolved in decide_placements
      }
    }
  }

  void replace_decl_with_empty(const std::string& name) {
    for_each_stmt_mut(*np_->body, [&](Stmt& s) {
      if (s.kind() != StmtKind::kBlock) return;
      auto& b = static_cast<Block&>(s);
      for (auto& st : b.stmts) {
        if (st->kind() == StmtKind::kDecl &&
            static_cast<const DeclStmt&>(*st).name == name)
          st = make_block();
      }
    });
  }

  // ------------------------------------------------ region transformation
  void flush_guard(Block& out) {
    if (guard_.empty()) return;
    out.push(master_guard(std::move(guard_)));
    guard_.clear();
  }

  void transform_region(const Block& in, Block& out,
                        const std::set<std::string>& used_after) {
    // Suffix use-sets for live-out analysis.
    std::vector<std::set<std::string>> suffix(in.stmts.size() + 1);
    suffix[in.stmts.size()] = used_after;
    for (std::size_t k = in.stmts.size(); k-- > 0;) {
      suffix[k] = suffix[k + 1];
      analysis::VarSets vs = analysis::collect_vars(*in.stmts[k]);
      suffix[k].insert(vs.uses.begin(), vs.uses.end());
    }

    for (std::size_t k = 0; k < in.stmts.size(); ++k) {
      const Stmt& s = *in.stmts[k];
      const std::set<std::string>& after = suffix[k + 1];

      if (s.kind() == StmtKind::kBlock) {
        // Nested statement lists (e.g. from the preprocessors) splice
        // into the current region so declarations stay in scope.
        transform_region(static_cast<const Block&>(s), out, after);
        continue;
      }

      if (s.kind() == StmtKind::kFor &&
          static_cast<const ForStmt&>(s).pragma) {
        flush_guard(out);
        emit_parallel_loop(static_cast<const ForStmt&>(s), out, after);
        continue;
      }

      if (contains_parallel_loop(s) || contains_return(s)) {
        flush_guard(out);
        emit_structured(s, out, after);
        continue;
      }

      emit_sequential(s, out);
    }
  }

  /// Control flow that encloses parallel loops (or returns) executes in
  /// every thread of the group: its controlling scalars are broadcast
  /// first so all group threads take the same path.
  void emit_structured(const Stmt& s, Block& out,
                       const std::set<std::string>& used_after) {
    switch (s.kind()) {
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        broadcast_controlling_vars(*i.cond, out);
        auto then_out = make_block();
        transform_region(*i.then_body, *then_out, used_after);
        flush_guard(*then_out);
        BlockPtr else_out;
        if (i.else_body) {
          else_out = make_block();
          transform_region(*i.else_body, *else_out, used_after);
          flush_guard(*else_out);
        }
        out.push(std::make_unique<IfStmt>(i.cond->clone(),
                                          std::move(then_out),
                                          std::move(else_out)));
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        std::set<std::string> control_uses;
        if (f.cond) analysis::collect_expr_uses(*f.cond, control_uses);
        if (f.init) {
          analysis::VarSets vs = analysis::collect_vars(*f.init);
          control_uses.insert(vs.uses.begin(), vs.uses.end());
          // The iterator itself is established by the init clause, which
          // every group thread executes; it needs no broadcast.
          for (const auto& d : vs.decls) control_uses.erase(d);
          for (const auto& d : vs.defs) control_uses.erase(d);
        }
        for (const auto& v : control_uses) broadcast_if_needed(v, out);
        // All group threads execute init/inc, so the uniformity tracker
        // sees them (a literal-initialized iterator stays uniform).
        if (f.init) tracker_->step(*f.init);

        // Loop-carried values: anything the body uses may come from a
        // previous iteration of the body itself.
        std::set<std::string> body_after = used_after;
        analysis::VarSets body_vs = analysis::collect_vars(*f.body);
        body_after.insert(body_vs.uses.begin(), body_vs.uses.end());
        body_after.insert(control_uses.begin(), control_uses.end());

        auto body_out = make_block();
        transform_region(*f.body, *body_out, body_after);
        flush_guard(*body_out);
        // Values feeding the loop condition may have been recomputed by
        // masters inside the body; re-broadcast before re-testing.
        for (const auto& v : control_uses)
          if (!tracker_->is_uniform_var(v)) broadcast_if_needed(v, *body_out);

        out.push(std::make_unique<ForStmt>(
            f.init ? f.init->clone() : nullptr,
            f.cond ? f.cond->clone() : nullptr,
            f.inc ? f.inc->clone() : nullptr, std::move(body_out)));
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        broadcast_controlling_vars(*w.cond, out);
        std::set<std::string> control_uses;
        analysis::collect_expr_uses(*w.cond, control_uses);

        std::set<std::string> body_after = used_after;
        analysis::VarSets body_vs = analysis::collect_vars(*w.body);
        body_after.insert(body_vs.uses.begin(), body_vs.uses.end());

        auto body_out = make_block();
        transform_region(*w.body, *body_out, body_after);
        flush_guard(*body_out);
        for (const auto& v : control_uses)
          if (!tracker_->is_uniform_var(v)) broadcast_if_needed(v, *body_out);
        out.push(std::make_unique<WhileStmt>(w.cond->clone(),
                                             std::move(body_out)));
        return;
      }
      case StmtKind::kReturn:
        out.push(s.clone());
        return;
      case StmtKind::kBlock: {
        transform_region(static_cast<const Block&>(s), out, used_after);
        flush_guard(out);
        return;
      }
      default:
        // A lone statement containing neither loops nor returns cannot
        // reach here; fall back to sequential handling.
        emit_sequential(s, out);
        flush_guard(out);
        return;
    }
  }

  /// A plain sequential statement: redundantly computed when
  /// group-uniform (Sec. 3.1), otherwise master-guarded.
  void emit_sequential(const Stmt& s, Block& out) {
    switch (s.kind()) {
      case StmtKind::kDecl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        if (!d.type.is_scalar() || !d.init) {
          // Allocations (arrays) and bare decls are guard-neutral.
          tracker_->step(s);
          out.push(s.clone());
          return;
        }
        bool uniform = tracker_->step(s);
        if (uniform) {
          flush_guard(out);
          out.push(s.clone());
        } else {
          // Split: hoist the declaration, guard the initialization so the
          // variable stays in scope for later broadcasts (Fig. 3b).
          out.push(std::make_unique<DeclStmt>(d.type, d.name));
          guard_.push_back(
              make_assign(make_var(d.name), d.init->clone()));
        }
        return;
      }
      case StmtKind::kExpr: {
        const auto& e = static_cast<const ExprStmt&>(s);
        if (e.expr->kind() == ExprKind::kCall &&
            static_cast<const CallExpr&>(*e.expr).callee ==
                "__syncthreads") {
          flush_guard(out);
          out.push(s.clone());
          return;
        }
        guard_.push_back(s.clone());
        return;
      }
      case StmtKind::kAssign: {
        bool uniform = tracker_->step(s);
        if (uniform) {
          flush_guard(out);
          out.push(s.clone());
        } else {
          guard_.push_back(s.clone());
        }
        return;
      }
      default: {
        // Sequential control flow without parallel loops: master-only.
        analysis::VarSets vs = analysis::collect_vars(s);
        for (const auto& d : vs.defs) tracker_->mark_nonuniform(d);
        guard_.push_back(s.clone());
        return;
      }
    }
  }

  // ------------------------------------------------ broadcasts
  void broadcast_controlling_vars(const Expr& cond, Block& out) {
    std::set<std::string> uses;
    analysis::collect_expr_uses(cond, uses);
    for (const auto& v : uses) broadcast_if_needed(v, out);
  }

  void broadcast_if_needed(const std::string& name, Block& out) {
    if (tracker_->is_uniform_var(name)) return;
    auto it = symbols_.find(name);
    if (it == symbols_.end()) return;
    const Type& t = it->second;
    if (!t.is_scalar() || t.space != AddrSpace::kRegister) return;
    if (orig_.find_param(name)) return;
    flush_guard(out);
    comm_.emit_broadcast(out, name, t.scalar);
    tracker_->mark_uniform(name);
    result_.notes.push_back("broadcast '" + name + "'");
  }

  [[nodiscard]] ScalarType scalar_type_of(const std::string& name) const {
    auto it = symbols_.find(name);
    if (it == symbols_.end() || !it->second.is_scalar())
      throw cudanp::CompileError("'" + name +
                                 "' is not a known scalar variable");
    return it->second.scalar;
  }

  /// Recognizes an unannotated reduction: every write to `var` inside
  /// `body` is an associative self-update (`v += e`, `v = v * e`,
  /// `v = fminf(v, e)`, ...) whose other operand does not read `var`,
  /// and `var` is not read anywhere else. Returns the operator, or
  /// nullopt when the variable does not follow a reduction pattern.
  static std::optional<ReduceOp> detect_reduction(const Block& body,
                                                  const std::string& var) {
    auto uses_var = [&](const Expr& e) {
      bool found = false;
      for_each_expr(e, [&](const Expr& sub) {
        if (sub.kind() == ExprKind::kVarRef &&
            static_cast<const VarRef&>(sub).name == var)
          found = true;
      });
      return found;
    };

    std::optional<ReduceOp> op;
    int expected_refs = 0;
    bool bad = false;
    int writes = 0;
    for_each_stmt(body, [&](const Stmt& s) {
      if (bad || s.kind() != StmtKind::kAssign) return;
      const auto& a = static_cast<const AssignStmt&>(s);
      if (a.lhs->kind() != ExprKind::kVarRef ||
          static_cast<const VarRef&>(*a.lhs).name != var)
        return;
      ++writes;
      std::optional<ReduceOp> this_op;
      if ((a.op == AssignOp::kAdd || a.op == AssignOp::kMul) &&
          !uses_var(*a.rhs)) {
        this_op = a.op == AssignOp::kAdd ? ReduceOp::kAdd : ReduceOp::kMul;
        expected_refs += 1;  // the LHS reference
      } else if (a.op == AssignOp::kAssign &&
                 a.rhs->kind() == ExprKind::kBinary) {
        const auto& b = static_cast<const BinaryExpr&>(*a.rhs);
        bool lhs_is_var = b.lhs->kind() == ExprKind::kVarRef &&
                          static_cast<const VarRef&>(*b.lhs).name == var;
        bool rhs_is_var = b.rhs->kind() == ExprKind::kVarRef &&
                          static_cast<const VarRef&>(*b.rhs).name == var;
        const Expr& other = lhs_is_var ? *b.rhs : *b.lhs;
        if ((lhs_is_var != rhs_is_var) && !uses_var(other) &&
            (b.op == BinOp::kAdd || b.op == BinOp::kMul)) {
          this_op = b.op == BinOp::kAdd ? ReduceOp::kAdd : ReduceOp::kMul;
          expected_refs += 2;  // LHS + the self-operand
        }
      } else if (a.op == AssignOp::kAssign &&
                 a.rhs->kind() == ExprKind::kCall) {
        const auto& c = static_cast<const CallExpr&>(*a.rhs);
        bool is_min = c.callee == "fminf" || c.callee == "min";
        bool is_max = c.callee == "fmaxf" || c.callee == "max";
        if ((is_min || is_max) && c.args.size() == 2) {
          bool a0 = c.args[0]->kind() == ExprKind::kVarRef &&
                    static_cast<const VarRef&>(*c.args[0]).name == var;
          bool a1 = c.args[1]->kind() == ExprKind::kVarRef &&
                    static_cast<const VarRef&>(*c.args[1]).name == var;
          const Expr& other = a0 ? *c.args[1] : *c.args[0];
          if ((a0 != a1) && !uses_var(other)) {
            this_op = is_min ? ReduceOp::kMin : ReduceOp::kMax;
            expected_refs += 2;
          }
        }
      }
      if (!this_op || (op && *op != *this_op)) {
        bad = true;
        return;
      }
      op = this_op;
    });
    if (bad || writes == 0 || !op) return std::nullopt;

    // No other reads of var anywhere in the body.
    int total_refs = 0;
    for_each_expr_in(body, [&](const Expr& e) {
      if (e.kind() == ExprKind::kVarRef &&
          static_cast<const VarRef&>(e).name == var)
        ++total_refs;
    });
    if (total_refs != expected_refs) return std::nullopt;
    return op;
  }

  // ------------------------------------------------ parallel loops
  void emit_parallel_loop(const ForStmt& loop, Block& out,
                          const std::set<std::string>& used_after) {
    std::string why;
    auto info = analysis::analyze_loop(loop, &why);
    if (!info)
      throw cudanp::CompileError(loop.loc(),
                                 "cannot parallelize loop: " + why);
    const NpPragma& pragma = *loop.pragma;
    auto live = analysis::analyze_parallel_loop(*np_, loop, used_after);

    // Categorize live-outs.
    std::map<std::string, ReduceOp> reductions;
    for (const auto& c : pragma.reductions)
      for (const auto& v : c.vars) reductions[v] = c.op;
    std::map<std::string, ReduceOp> scans;
    for (const auto& c : pragma.scans)
      for (const auto& v : c.vars) scans[v] = c.op;
    std::set<std::string> selects;
    for (const auto& v : live.live_out) {
      if (reductions.count(v) || scans.count(v)) continue;
      // The compiler recognizes unannotated reduction patterns itself
      // (the paper's compiler "can also handle the reduction and scan
      // variables"); only non-reduction live-outs need the zero-init +
      // add-reduce select transformation.
      if (auto op = detect_reduction(*loop.body, v)) {
        reductions[v] = *op;
        diags_.note(loop.loc(), "live-out '" + v +
                                    "' recognized as an unannotated " +
                                    std::string(to_string(*op)) +
                                    "-reduction");
        result_.notes.push_back("auto-detected reduction on '" + v + "'");
        continue;
      }
      selects.insert(v);
    }

    // Broadcast live-ins (scan bases included; reduction/select excluded
    // because their slave copies start from the identity / zero).
    std::set<std::string> bcast(live.live_in.begin(), live.live_in.end());
    for (const auto& v : pragma.copy_in) bcast.insert(v);
    for (const auto& [v, op] : reductions) {
      (void)op;
      bcast.erase(v);
    }
    for (const auto& v : selects) bcast.erase(v);
    for (const auto& v : bcast) broadcast_if_needed(v, out);

    // Reduction slaves start from the identity; the master keeps its
    // running value (Sec. 3.2).
    for (const auto& [v, op] : reductions) {
      ScalarType t = scalar_type_of(v);
      auto init = make_block();
      init->push(make_assign(make_var(v), CommCodegen::identity_expr(op, t)));
      out.push(std::make_unique<IfStmt>(
          make_bin(BinOp::kNe, slave_id(), make_int(0)), std::move(init)));
      tracker_->mark_nonuniform(v);
    }
    // Select live-outs ("if (i==3) x = a[i]" pattern): zero-init all
    // copies and add-reduce afterwards (Sec. 3.2).
    for (const auto& v : selects) {
      ScalarType t = scalar_type_of(v);
      out.push(make_assign(make_var(v), t == ScalarType::kFloat
                                            ? make_float(0.0)
                                            : make_int(0)));
      tracker_->mark_nonuniform(v);
      diags_.warning(loop.loc(),
                     "live-out '" + v +
                         "' is not a reduction/scan variable; applying the "
                         "zero-init + add-reduce select transformation");
    }

    if (scans.empty()) {
      if (chunk_mode_)
        emit_chunk_loop(loop, *info, out);
      else
        emit_cyclic_loop(loop, *info, out);
    } else {
      if (scans.size() != 1)
        throw cudanp::CompileError(loop.loc(),
                                   "only one scan variable per loop is "
                                   "supported");
      if (!selects.empty() || !reductions.empty())
        throw cudanp::CompileError(loop.loc(),
                                   "scan loops cannot mix reduction/select "
                                   "live-outs");
      emit_scan_loop(loop, *info, scans.begin()->first,
                     scans.begin()->second, out);
    }

    // Combine results back; every group thread receives the value.
    for (const auto& [v, op] : reductions) {
      comm_.emit_reduction(out, v, scalar_type_of(v), op);
      tracker_->mark_uniform(v);
    }
    for (const auto& v : selects) {
      comm_.emit_reduction(out, v, scalar_type_of(v), ReduceOp::kAdd);
      tracker_->mark_uniform(v);
    }
  }

  /// Register-partitioned arrays referenced in this loop body.
  [[nodiscard]] std::set<std::string> reg_arrays_in(const Block& body) const {
    std::set<std::string> out;
    for_each_expr_in(body, [&](const Expr& e) {
      if (e.kind() == ExprKind::kArrayIndex) {
        const auto& ai = static_cast<const ArrayIndex&>(e);
        if (ai.base->kind() == ExprKind::kVarRef) {
          const std::string& n = static_cast<const VarRef&>(*ai.base).name;
          if (register_arrays_.count(n)) out.insert(n);
        }
      }
    });
    return out;
  }

  /// Rewrites `arr[<idx>]` into `arr[<new_idx(idx)>]` for register arrays.
  static void rewrite_reg_accesses(
      Block& body, const std::set<std::string>& arrays,
      const std::function<ExprPtr(ExprPtr)>& new_index) {
    rewrite_exprs(body, [&](ExprPtr& e) {
      if (e->kind() != ExprKind::kArrayIndex) return;
      auto& ai = static_cast<ArrayIndex&>(*e);
      if (ai.base->kind() != ExprKind::kVarRef) return;
      if (!arrays.count(static_cast<const VarRef&>(*ai.base).name)) return;
      ai.indices[0] = new_index(std::move(ai.indices[0]));
    });
  }

  /// Cyclic distribution (Fig. 3b): i = init + slave_id*step, i += S*step.
  void emit_cyclic_loop(const ForStmt& loop, const analysis::LoopInfo& info,
                        Block& out) {
    const int S = cfg_.slave_size;
    auto reg = reg_arrays_in(*loop.body);

    // Padding (Sec. 3.7 item 3): round a constant trip count up to a
    // multiple of slave_size and guard the body with `if (i < n)`.
    bool padded = false;
    std::int64_t pad_bound = 0;
    if (cfg_.pad_loops && info.const_trip_count &&
        info.init->kind() == ExprKind::kIntLit &&
        static_cast<const IntLit&>(*info.init).value == 0 &&
        info.step == 1 && *info.const_trip_count % S != 0) {
      padded = true;
      pad_bound = (*info.const_trip_count + S - 1) / S * S;
      result_.notes.push_back("padded loop at " + loop.loc().str() +
                              " from " +
                              std::to_string(*info.const_trip_count) +
                              " to " + std::to_string(pad_bound));
    }

    ExprPtr start = make_bin(
        BinOp::kAdd, info.init->clone(),
        info.step == 1
            ? slave_id()
            : make_bin(BinOp::kMul, slave_id(), make_int(info.step)));
    StmtPtr init_stmt;
    if (info.declares_iterator) {
      init_stmt = std::make_unique<DeclStmt>(
          Type::scalar_of(ScalarType::kInt), info.iterator,
          std::move(start));
    } else {
      init_stmt = make_assign(make_var(info.iterator), std::move(start));
    }

    StmtPtr inc_stmt = std::make_unique<AssignStmt>(
        make_var(info.iterator), AssignOp::kAdd,
        make_int(static_cast<std::int64_t>(S) * info.step));

    BlockPtr body = loop.body->clone_block();
    if (!reg.empty()) {
      // Maintain a per-slave element counter so arr[i] becomes
      // arr[__np_k] without a division (the Fig. 6 "ni" form).
      rewrite_reg_accesses(*body, reg, [&](ExprPtr) -> ExprPtr {
        return make_var("__np_k");
      });
      auto init_pair = make_block();
      init_pair->push(std::move(init_stmt));
      init_pair->push(make_decl_int("__np_k", make_int(0)));
      init_stmt = std::move(init_pair);
      auto inc_pair = make_block();
      inc_pair->push(std::move(inc_stmt));
      inc_pair->push(std::make_unique<AssignStmt>(
          make_var("__np_k"), AssignOp::kAdd, make_int(1)));
      inc_stmt = std::move(inc_pair);
    }
    if (padded) {
      auto guarded = make_block();
      auto guard_body = std::move(body);
      guarded->push(std::make_unique<IfStmt>(
          make_bin(BinOp::kLt, make_var(info.iterator), info.bound->clone()),
          std::move(guard_body)));
      body = std::move(guarded);
    }
    ExprPtr cond = padded ? make_bin(BinOp::kLt, make_var(info.iterator),
                                     make_int(pad_bound))
                          : loop.cond->clone();
    out.push(std::make_unique<ForStmt>(std::move(init_stmt), std::move(cond),
                                       std::move(inc_stmt),
                                       std::move(body)));
  }

  /// Contiguous-chunk distribution (used in kernels with scan loops so
  /// the element -> slave mapping is prefix-compatible).
  struct ChunkBounds {
    std::string lo;
    std::string hi;
  };
  ChunkBounds emit_chunk_bounds(const analysis::LoopInfo& info, Block& out) {
    const int S = cfg_.slave_size;
    if (info.step != 1)
      throw cudanp::CompileError(
          "chunk distribution requires unit-stride loops");
    int id = loop_counter_++;
    ChunkBounds b{"__np_lo" + std::to_string(id),
                  "__np_hi" + std::to_string(id)};
    ExprPtr chunk;
    if (info.const_trip_count) {
      chunk = make_int((*info.const_trip_count + S - 1) / S);
    } else {
      // (bound - init + S - 1) / S computed at run time.
      chunk = make_bin(
          BinOp::kDiv,
          make_bin(BinOp::kAdd,
                   make_bin(BinOp::kSub, info.bound->clone(),
                            info.init->clone()),
                   make_int(S - 1)),
          make_int(S));
    }
    auto chunk_name = "__np_chunk" + std::to_string(id);
    out.push(make_decl_int(chunk_name, std::move(chunk)));
    out.push(make_decl_int(
        b.lo, make_bin(BinOp::kAdd, info.init->clone(),
                       make_bin(BinOp::kMul, slave_id(),
                                make_var(chunk_name)))));
    {
      std::vector<ExprPtr> args;
      args.push_back(info.bound->clone());
      args.push_back(make_bin(BinOp::kAdd, make_var(b.lo),
                              make_var(chunk_name)));
      out.push(make_decl_int(b.hi, make_call("min", std::move(args))));
    }
    return b;
  }

  StmtPtr chunk_for(const analysis::LoopInfo& info, const ChunkBounds& b,
                    BlockPtr body) {
    StmtPtr init_stmt;
    if (info.declares_iterator)
      init_stmt = std::make_unique<DeclStmt>(
          Type::scalar_of(ScalarType::kInt), info.iterator, make_var(b.lo));
    else
      init_stmt = make_assign(make_var(info.iterator), make_var(b.lo));
    return std::make_unique<ForStmt>(
        std::move(init_stmt),
        make_bin(BinOp::kLt, make_var(info.iterator), make_var(b.hi)),
        std::make_unique<AssignStmt>(make_var(info.iterator), AssignOp::kAdd,
                                     make_int(1)),
        std::move(body));
  }

  void emit_chunk_loop(const ForStmt& loop, const analysis::LoopInfo& info,
                       Block& out) {
    auto reg = reg_arrays_in(*loop.body);
    ChunkBounds b = emit_chunk_bounds(info, out);
    BlockPtr body = loop.body->clone_block();
    if (!reg.empty()) {
      std::string lo = b.lo;
      rewrite_reg_accesses(*body, reg, [lo](ExprPtr idx) -> ExprPtr {
        return make_bin(BinOp::kSub, std::move(idx), make_var(lo));
      });
    }
    out.push(chunk_for(info, b, std::move(body)));
  }

  /// Scan loops (Sec. 3.2): two-pass chunk scan. Pass 1 accumulates each
  /// slave's chunk locally with stores stripped; an exclusive scan across
  /// the group yields each slave's prefix; pass 2 re-runs the body with
  /// the scan variable seeded to base (op) prefix. The group's final
  /// value is read back from the last slave.
  void emit_scan_loop(const ForStmt& loop, const analysis::LoopInfo& info,
                      const std::string& var, ReduceOp op, Block& out) {
    ScalarType t = scalar_type_of(var);
    const int S = cfg_.slave_size;
    int id = loop_counter_;  // emit_chunk_bounds will consume this id
    std::string base = "__np_base" + std::to_string(id);
    std::string local = "__np_local" + std::to_string(id);
    std::string prefix = "__np_prefix" + std::to_string(id);

    out.push(std::make_unique<DeclStmt>(Type::scalar_of(t), base,
                                        make_var(var)));
    out.push(std::make_unique<DeclStmt>(Type::scalar_of(t), local,
                                        CommCodegen::identity_expr(op, t)));
    ChunkBounds b = emit_chunk_bounds(info, out);

    auto reg = reg_arrays_in(*loop.body);
    auto chunk_rewrite = [&](Block& body) {
      if (reg.empty()) return;
      std::string lo = b.lo;
      rewrite_reg_accesses(body, reg, [lo](ExprPtr idx) -> ExprPtr {
        return make_bin(BinOp::kSub, std::move(idx), make_var(lo));
      });
    };

    // Pass 1: local accumulation, memory stores stripped.
    BlockPtr pass1 = loop.body->clone_block();
    strip_array_stores(*pass1);
    rename_var(*pass1, var, local);
    chunk_rewrite(*pass1);
    out.push(chunk_for(info, b, std::move(pass1)));

    // Exclusive scan of the local partials.
    out.push(std::make_unique<DeclStmt>(Type::scalar_of(t), prefix,
                                        CommCodegen::identity_expr(op, t)));
    comm_.emit_exclusive_scan(out, local, prefix, t, op);
    out.push(make_assign(make_var(var),
                         CommCodegen::combine(op, make_var(base),
                                              make_var(prefix), t)));

    // Pass 2: full body with the seeded prefix.
    BlockPtr pass2 = loop.body->clone_block();
    chunk_rewrite(*pass2);
    out.push(chunk_for(info, b, std::move(pass2)));

    // Final value lives in the last slave; publish it to the group.
    emit_broadcast_from(out, var, t, S - 1);
    tracker_->mark_uniform(var);
  }

  static void strip_array_stores(Block& b) {
    for (auto& s : b.stmts) {
      if (s->kind() == StmtKind::kAssign) {
        const auto& a = static_cast<const AssignStmt&>(*s);
        if (a.lhs->kind() == ExprKind::kArrayIndex) s = make_block();
      } else if (s->kind() == StmtKind::kBlock) {
        strip_array_stores(static_cast<Block&>(*s));
      } else if (s->kind() == StmtKind::kIf) {
        auto& i = static_cast<IfStmt&>(*s);
        strip_array_stores(*i.then_body);
        if (i.else_body) strip_array_stores(*i.else_body);
      } else if (s->kind() == StmtKind::kFor) {
        strip_array_stores(*static_cast<ForStmt&>(*s).body);
      } else if (s->kind() == StmtKind::kWhile) {
        strip_array_stores(*static_cast<WhileStmt&>(*s).body);
      }
    }
  }

  /// var = value held by the group thread with slave_id == src.
  void emit_broadcast_from(Block& out, const std::string& var, ScalarType t,
                           int src) {
    if (cfg_.shfl_available()) {
      std::vector<ExprPtr> args;
      args.push_back(make_var(var));
      args.push_back(make_int(src));
      args.push_back(make_int(cfg_.slave_size));
      out.push(make_assign(make_var(var),
                           make_call("__shfl", std::move(args))));
      return;
    }
    // Shared-memory path via the reduction buffer.
    comm_.emit_reduction_buffer_broadcast(out, var, t, src);
  }

  // ------------------------------------------------ members
  const Kernel& orig_;
  NpConfig cfg_;
  cudanp::DiagnosticEngine& diags_;
  CommCodegen comm_;
  std::unique_ptr<Kernel> np_;
  TransformResult result_;
  std::unordered_map<std::string, Type> symbols_;
  std::unique_ptr<UniformityTracker> tracker_;
  std::vector<StmtPtr> guard_;
  std::map<std::string, ArrayInfo> arrays_;
  std::set<std::string> register_arrays_;
  bool chunk_mode_ = false;
  int loop_counter_ = 0;
};

}  // namespace

const CallExpr* first_shfl_call(const Kernel& kernel) {
  const CallExpr* first = nullptr;
  for_each_expr_in(*kernel.body, [&](const Expr& e) {
    if (first || e.kind() != ExprKind::kCall) return;
    const auto& c = static_cast<const CallExpr&>(e);
    if (sim::is_shfl(sim::resolve_builtin(c.callee))) first = &c;
  });
  return first;
}

TransformResult apply_np_transform(const Kernel& kernel,
                                   const NpConfig& config,
                                   cudanp::DiagnosticEngine& diags) {
  return Transformer(kernel, config, diags).run();
}

}  // namespace cudanp::transform
