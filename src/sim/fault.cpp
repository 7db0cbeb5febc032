#include "sim/fault.hpp"

#include <csignal>
#include <cstring>

#include "ir/expr.hpp"
#include "ir/stmt.hpp"
#include "support/rng.hpp"

namespace cudanp::sim {

namespace {

using namespace cudanp::ir;

/// Removes the first `__syncthreads();` statement under `b`, depth-first
/// in source order. Hand-rolled recursion (not for_each_stmt_mut) so the
/// erase never invalidates a live walker iterator.
bool drop_first_barrier(Block& b, SourceLoc* where) {
  for (auto it = b.stmts.begin(); it != b.stmts.end(); ++it) {
    Stmt& s = **it;
    if (s.kind() == StmtKind::kExpr) {
      const auto& e = static_cast<const ExprStmt&>(s);
      if (e.expr->kind() == ExprKind::kCall &&
          static_cast<const CallExpr&>(*e.expr).callee == "__syncthreads") {
        *where = s.loc();
        b.stmts.erase(it);
        return true;
      }
    }
    switch (s.kind()) {
      case StmtKind::kBlock:
        if (drop_first_barrier(static_cast<Block&>(s), where)) return true;
        break;
      case StmtKind::kIf: {
        auto& i = static_cast<IfStmt&>(s);
        if (drop_first_barrier(*i.then_body, where)) return true;
        if (i.else_body && drop_first_barrier(*i.else_body, where))
          return true;
        break;
      }
      case StmtKind::kFor:
        if (drop_first_barrier(*static_cast<ForStmt&>(s).body, where))
          return true;
        break;
      case StmtKind::kWhile:
        if (drop_first_barrier(*static_cast<WhileStmt&>(s).body, where))
          return true;
        break;
      default:
        break;
    }
  }
  return false;
}

/// Skews the first indexed store's innermost index by `offset`,
/// modelling a transform bug in slot arithmetic.
bool skew_first_store(Block& b, std::int64_t offset, SourceLoc* where) {
  for (auto& sp : b.stmts) {
    Stmt& s = *sp;
    switch (s.kind()) {
      case StmtKind::kAssign: {
        auto& a = static_cast<AssignStmt&>(s);
        if (a.lhs->kind() == ExprKind::kArrayIndex) {
          auto& idx = static_cast<ArrayIndex&>(*a.lhs);
          ExprPtr& inner = idx.indices.back();
          inner = make_bin(BinOp::kAdd, std::move(inner), make_int(offset));
          *where = s.loc();
          return true;
        }
        break;
      }
      case StmtKind::kBlock:
        if (skew_first_store(static_cast<Block&>(s), offset, where))
          return true;
        break;
      case StmtKind::kIf: {
        auto& i = static_cast<IfStmt&>(s);
        if (skew_first_store(*i.then_body, offset, where)) return true;
        if (i.else_body && skew_first_store(*i.else_body, offset, where))
          return true;
        break;
      }
      case StmtKind::kFor:
        if (skew_first_store(*static_cast<ForStmt&>(s).body, offset, where))
          return true;
        break;
      case StmtKind::kWhile:
        if (skew_first_store(*static_cast<WhileStmt&>(s).body, offset,
                             where))
          return true;
        break;
      default:
        break;
    }
  }
  return false;
}

}  // namespace

int FaultInjector::corrupt_memory(DeviceMemory& mem) {
  if (plan_.bit_flips <= 0 || mem.buffer_count() == 0) return 0;
  SplitMix64 rng(plan_.seed);
  int flipped = 0;
  for (int k = 0; k < plan_.bit_flips; ++k) {
    // Up to a few retries per flip in case the chosen buffer is empty.
    for (int attempt = 0; attempt < 8; ++attempt) {
      auto id = static_cast<BufferId>(rng.next_below(mem.buffer_count()));
      DeviceBuffer& buf = mem.buffer(id);
      if (buf.size() == 0) continue;
      std::size_t elem = rng.next_below(buf.size());
      int bit = static_cast<int>(rng.next_below(32));
      std::uint32_t word = 0;
      if (buf.type() == ir::ScalarType::kFloat)
        std::memcpy(&word, &buf.f32()[elem], sizeof(word));
      else
        std::memcpy(&word, &buf.i32()[elem], sizeof(word));
      word ^= 1u << bit;
      if (buf.type() == ir::ScalarType::kFloat)
        std::memcpy(&buf.f32()[elem], &word, sizeof(word));
      else
        std::memcpy(&buf.i32()[elem], &word, sizeof(word));
      log_.push_back("bit-flip: buffer " + std::to_string(id) + " element " +
                     std::to_string(elem) + " bit " + std::to_string(bit));
      ++flipped;
      break;
    }
  }
  return flipped;
}

bool FaultInjector::corrupt_kernel(ir::Kernel& kernel) {
  bool mutated = false;
  SourceLoc where;
  if (plan_.drop_barrier && drop_first_barrier(*kernel.body, &where)) {
    log_.push_back("ast-corruption: dropped __syncthreads() at " +
                   where.str() + " in kernel '" + kernel.name + "'");
    mutated = true;
  }
  if (plan_.skew_index) {
    SplitMix64 rng(plan_.seed ^ 0x51e3ULL);
    auto offset = static_cast<std::int64_t>(1 + rng.next_below(3));
    if (skew_first_store(*kernel.body, offset, &where)) {
      log_.push_back("ast-corruption: skewed store index by +" +
                     std::to_string(offset) + " at " + where.str() +
                     " in kernel '" + kernel.name + "'");
      mutated = true;
    }
  }
  // The binder caches slot annotations on the AST; a mutated tree must
  // rebind from scratch or new nodes would execute as kSlotUnbound.
  if (mutated) kernel.sim_binding = nullptr;
  return mutated;
}

void FaultInjector::maybe_fault(std::int64_t flat_block, std::int64_t step,
                                const SourceLoc& loc) const {
  if (plan_.crash_at_step > 0 && step == plan_.crash_at_step &&
      (plan_.fault_block < 0 || flat_block == plan_.fault_block)) {
    // A genuine native crash, not an exception: nothing up-stack can
    // contain this. Only a process-isolated worker survives it.
    std::raise(SIGSEGV);
  }
  if (plan_.sim_error_at_step <= 0 || step != plan_.sim_error_at_step)
    return;
  if (plan_.fault_block >= 0 && flat_block != plan_.fault_block) return;
  throw SimError("injected fault: SimError at interpreted statement " +
                 std::to_string(step) + " of block " +
                 std::to_string(flat_block) + " at " + loc.str() +
                 " (fault plan seed " + std::to_string(plan_.seed) + ")");
}

}  // namespace cudanp::sim
