// The memory-hazard rulebook of the VM's sanitizer (sim/exec_core.hpp)
// and the symbolic executor (sim/symexec.hpp). Both shadow a tracked
// word (a shared-array element; in symexec also a global-buffer element)
// with one Cell, step it with on_write / on_read, and word every hazard
// here. They differ only in what a cell holds (a value or a node id), in
// the epoch an access carries (the VM's per-warp barrier generation,
// symexec's block epoch) and in what they do with a conflict: the
// sanitizer reports it by race mode, the certifier aborts or notes it.
#pragma once

#include <cstdint>
#include <string>

#include "support/source_location.hpp"

namespace cudanp::sim::hazard {

/// Every memory-hazard rule. on_write / on_read decide those of a
/// tracked cell; the engines check the last four where they index or
/// read a variable.
enum class Rule : std::uint8_t {
  kNone,
  kSameAccessWrite,  ///< two lanes of one access store different values
  kWriteWrite,       ///< another warp stored another value this epoch
  kReadWrite,        ///< a store to a word another warp read this epoch
  kWriteRead,        ///< a load of a word another warp stored this epoch
  kCrossBlockWrite,  ///< another block stored another value (global)
  kCrossBlockRead,   ///< a load of a word another block stored (global)
  kUninitShared,     ///< a load of a word nothing stored
  kUninitGlobal,
  kUninitVariable,
  kUninitArray,
  kOutOfBounds,       ///< a global-buffer index outside [0, size)
  kIndexOutOfBounds,  ///< an array index outside [0, dim) in one dimension
};

/// One access. `seq` numbers access instructions; `block` is the
/// accessing block for a global cell, -1 for a block-scoped one.
struct Access {
  int lane, warp;
  std::int64_t epoch, seq, block = -1;
};

/// The shadow state of one tracked word. reader_warp is the warp that
/// read it in read_epoch, or -2 for several.
struct Cell {
  std::int64_t write_epoch = -1, read_epoch = -1, write_seq = -1;
  std::int64_t block = -1;  ///< the last block that stored (global)
  int writer_lane = -1, writer_warp = -1, reader_warp = -1;
  bool init = false;
};

/// A store's conflicts: at most one write rule, and the read/write rule.
struct Write {
  Rule rule = Rule::kNone;
  bool after_read = false;
  int other_lane = -1;  ///< the earlier writer
};

/// `differs`: the store changes the word. Inline: it runs per lane of
/// every tracked store.
[[gnu::always_inline]] inline Write on_write(Cell& c, const Access& a,
                                             bool differs) {
  Write w{Rule::kNone, false, c.writer_lane};
  if (a.block >= 0 && c.block >= 0 && c.block != a.block && differs)
    w.rule = Rule::kCrossBlockWrite;
  else if (c.write_seq == a.seq && c.writer_lane != a.lane && differs)
    w.rule = Rule::kSameAccessWrite;
  else if (c.write_epoch == a.epoch && c.writer_warp != a.warp && differs)
    w.rule = Rule::kWriteWrite;
  w.after_read = c.read_epoch == a.epoch && c.reader_warp != -1 &&
                 c.reader_warp != a.warp;
  c.write_epoch = a.epoch;
  c.write_seq = a.seq;
  if (a.block >= 0) c.block = a.block;
  c.writer_lane = a.lane;
  c.writer_warp = a.warp;
  c.init = true;
  return w;
}

/// Inline: symexec runs it per cell of every gather.
[[gnu::always_inline]] inline Rule on_read(Cell& c, const Access& a) {
  Rule r = Rule::kNone;
  if (a.block >= 0 && c.block >= 0 && c.block != a.block)
    r = Rule::kCrossBlockRead;
  else if (!c.init)
    r = a.block >= 0 ? Rule::kUninitGlobal : Rule::kUninitShared;
  else if (c.write_epoch == a.epoch && c.writer_warp != a.warp)
    r = Rule::kWriteRead;
  if (c.read_epoch != a.epoch)
    c.reader_warp = a.warp;
  else if (c.reader_warp != a.warp)
    c.reader_warp = -2;
  c.read_epoch = a.epoch;
  return r;
}

/// The text of rule `r` on name[i]. `n` is the size of kOutOfBounds, the
/// dimension of kIndexOutOfBounds, or with `m` the two lanes (this one,
/// the earlier writer) of kSameAccessWrite.
[[nodiscard]] inline std::string text(Rule r, const std::string& name,
                                      std::int64_t i = 0, std::int64_t n = 0,
                                      std::int64_t m = 0) {
  const auto num = [](std::int64_t x) { return std::to_string(x); };
  const std::string cell = "'" + name + "[" + num(i) + "]'";
  switch (r) {
    case Rule::kSameAccessWrite:
      return "same-instruction write/write race on " + cell + ": lanes " +
             num(m) + " and " + num(n) + " store different values";
    case Rule::kWriteWrite: return "cross-warp write/write race on " + cell;
    case Rule::kReadWrite: return "cross-warp read/write race on " + cell;
    case Rule::kWriteRead: return "cross-warp write/read race on " + cell;
    case Rule::kCrossBlockWrite: return "cross-block write conflict on " + cell;
    case Rule::kCrossBlockRead: return "cross-block read of " + cell;
    case Rule::kUninitShared:
      return "read of uninitialized shared memory " + cell;
    case Rule::kUninitGlobal:
      return "read of uninitialized global buffer " + cell;
    case Rule::kUninitVariable:
      return "read of uninitialized variable '" + name + "'";
    case Rule::kUninitArray:
      return "read of uninitialized array element " + cell;
    case Rule::kOutOfBounds:
      return "out-of-bounds access to " + cell + " (size " + num(n) + ")";
    case Rule::kIndexOutOfBounds:
      return "index " + num(i) + " out of bounds [0," + num(n) +
             ") for array '" + name + "'";
    case Rule::kNone: break;
  }
  return {};
}

/// A __shfl lane whose source, lane `src_lane` of the warp, holds no
/// value; `var` names the source variable, if it is one.
[[nodiscard]] inline std::string shfl_uninit_source(const std::string& callee,
                                                    const std::string* var,
                                                    int src_lane) {
  return callee + " reads " +
         (var ? "uninitialized variable '" + *var + "'"
              : std::string("an uninitialized value")) +
         " from lane " + std::to_string(src_lane);
}

inline constexpr const char* kDivisionByZero = "integer division by zero";
inline constexpr const char* kModuloByZero = "modulo by zero";

/// The source location an engine may append to a text.
[[nodiscard]] inline std::string at(const SourceLoc& loc) {
  return " at " + loc.str();
}

}  // namespace cudanp::sim::hazard
