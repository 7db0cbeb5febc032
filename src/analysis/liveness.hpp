// Use/def collection and live-in / live-out analysis for parallel sections.
//
// CUDA-NP needs to know, for each `#pragma np` loop (paper Secs. 3.1/3.2):
//   - live-in scalars: defined before the loop, used inside it -> must be
//     broadcast master -> slaves (unless group-uniform);
//   - live-out scalars: assigned inside, used after -> must be combined
//     back (reduction/scan/select);
//   - referenced local arrays -> must be re-homed (Sec. 3.3).
#pragma once

#include <set>
#include <string>
#include <unordered_map>

#include "ir/kernel.hpp"

namespace cudanp::analysis {

struct VarSets {
  std::set<std::string> uses;   // names read (incl. array bases)
  std::set<std::string> defs;   // names written (scalars & array bases)
  std::set<std::string> decls;  // names declared inside
};

/// Adds every variable name `e` reads to `uses`. Builtin geometry names
/// (threadIdx.x, ...) are excluded.
void collect_expr_uses(const ir::Expr& e, std::set<std::string>& uses);

/// Collects uses/defs/decls for one statement subtree. Builtin geometry
/// names (threadIdx.x, ...) are excluded.
[[nodiscard]] VarSets collect_vars(const ir::Stmt& s);

/// Symbol table mapping every name declared anywhere in the kernel
/// (including parameters) to its declared type.
[[nodiscard]] std::unordered_map<std::string, ir::Type> build_symbol_table(
    const ir::Kernel& k);

struct ParallelLoopLiveness {
  /// Register/local scalars live into the loop (used inside, not declared
  /// inside, not the iterator, not a parameter).
  std::set<std::string> live_in;
  /// Scalars assigned inside and used after the loop.
  std::set<std::string> live_out;
  /// Local-memory arrays referenced in the loop.
  std::set<std::string> local_arrays;
};

/// Analyzes liveness of `loop`, which must appear somewhere inside
/// `kernel`'s body; `after` contains every statement that can execute
/// after the loop (the caller, which knows the region structure, supplies
/// the conservative "rest of the kernel" set).
[[nodiscard]] ParallelLoopLiveness analyze_parallel_loop(
    const ir::Kernel& kernel, const ir::ForStmt& loop,
    const std::set<std::string>& used_after);

/// Names used by any statement at or after `from_index` in `body`,
/// recursing into nested statements. Helper for building `used_after`.
[[nodiscard]] std::set<std::string> uses_from(const ir::Block& body,
                                              std::size_t from_index);

}  // namespace cudanp::analysis
