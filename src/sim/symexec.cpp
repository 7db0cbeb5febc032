// Symbolic executor implementation — model documented in sim/symexec.hpp.
//
// Layout of this file:
//   1. concrete-arithmetic helpers (the interpreter's sim/arith.hpp
//      semantics, reused by constant folding and SymEvaluator)
//   2. SymArena: hash-consing, eager folding builders, normalization
//   3. the executor: the lowered bytecode on node ids (`Exec`)
//   4. SymEvaluator
#include "sim/symexec.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "sim/arith.hpp"
#include "sim/bytecode.hpp"
#include "sim/hazards.hpp"
#include "sim/interpreter.hpp"
#include "sim/lanes.hpp"
#include "support/rng.hpp"

namespace cudanp::sim {

namespace {

using ir::BinOp;
using ir::ScalarType;
using ir::UnOp;

/// The interpreter's operator semantics (sim/arith.hpp); throws SymFault
/// where the interpreter would throw SimError.
Value eval_bin_value(BinOp op, Value a, Value b) {
  return arith::binop(op, a, b, [](const char* what) { throw SymFault{what}; });
}

Value eval_un_value(UnOp op, Value x) {
  if (op == UnOp::kNeg)
    return arith::visit([](auto v) { return arith::neg(v); }, x);
  return Value::of_int(x.truthy() ? 0 : 1);
}

/// The interpreter's math builtins (sim/arith.hpp) on tagged values.
Value eval_call_value(SymFn fn, const std::array<Value, 2>& xs) {
  const Builtin b = builtin_of(fn);
  if (arith::is_unary_math(b))
    return Value::of_float(arith::f32(arith::unary_math(b).fn(xs[0].as_f())));
  if (b == Builtin::kAbs)
    return arith::visit([](auto v) { return arith::abs(v); }, xs[0]);
  return arith::with_binary_math(b, [&]<Builtin kFn>() {
    return arith::visit(
        [](auto x, auto y) { return arith::binary_math<kFn>(x, y); }, xs[0],
        xs[1]);
  });
}

Value coerce_value(Value v, ScalarType to) {
  switch (to) {
    case ScalarType::kFloat: return v.to_f32();
    case ScalarType::kInt: return Value::of_int(v.as_i());
    case ScalarType::kBool: return Value::of_int(arith::to_bool(v));
    case ScalarType::kVoid: return v;
  }
  return v;
}

/// A node whose value is 0 or 1: a comparison, && or ||, ! or a
/// conversion to bool.
bool is_truth(const SymNode& n) {
  return (n.kind == SymKind::kBin && static_cast<BinOp>(n.op) >= BinOp::kLt &&
          static_cast<BinOp>(n.op) <= BinOp::kLOr) ||
         (n.kind == SymKind::kUnary && static_cast<UnOp>(n.op) == UnOp::kLNot) ||
         (n.kind == SymKind::kCast &&
          static_cast<ScalarType>(n.op) == ScalarType::kBool);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Structural hash of a node and its operands, never 0 (the hash of a
/// node kept in a dense table instead of the index). The final avalanche
/// matters: the intern index probes on the low bits, and f32 constants
/// differ only in the high bits of their double pattern.
std::uint64_t hash_node(const SymNode& n, std::span<const std::uint32_t> kids) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(n.kind) |
      static_cast<std::uint64_t>(n.type) << 8 |
      static_cast<std::uint64_t>(n.op) << 16 |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(n.param)) << 32);
  mix(static_cast<std::uint64_t>(n.ival));
  mix(bits_of(n.fval));
  for (auto k : kids) mix(k);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h ? h : 1;
}

/// Bit-equality on fval so NaN / -0.0 intern consistently. Operands are
/// compared by the caller.
bool header_eq(const SymNode& a, const SymNode& b) {
  return a.kind == b.kind && a.type == b.type && a.op == b.op &&
         a.param == b.param && a.ival == b.ival &&
         std::memcmp(&a.fval, &b.fval, sizeof a.fval) == 0;
}

std::uint64_t mix_pe(int param, std::int64_t elem) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(param)) + 1) *
             0x9e3779b97f4a7c15ULL ^
         static_cast<std::uint64_t>(elem) * 0xbf58476d1ce4e5b9ULL;
}

}  // namespace

float sym_float_input(std::uint64_t seed, int param, std::int64_t elem) {
  SplitMix64 rng(seed * 0x94d049bb133111ebULL ^ mix_pe(param, elem));
  return rng.next_float(-1.0f, 1.0f);
}

// ---------------------------------------------------------------------------
// SymArena
// ---------------------------------------------------------------------------

namespace {

/// Keys of the input-leaf table: a leaf outside it is interned.
constexpr std::int32_t kTableParams = 1024;
constexpr std::int64_t kTableElems = std::int64_t{1} << 24;
constexpr std::size_t kTypeCount =
    static_cast<std::size_t>(ScalarType::kFloat) + 1;

bool tabled_input(std::int32_t param, std::int64_t elem) {
  return param >= 0 && param < kTableParams && elem >= -1 &&
         elem < kTableElems;
}
bool in_int_window(std::int64_t v) {
  return v >= SymArena::kIntWindowLo && v < SymArena::kIntWindowHi;
}
std::size_t float_slot(std::uint64_t bits, std::size_t slots) {
  return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ULL) >> 40) &
         (slots - 1);
}

/// Storage a destroyed arena leaves to the next one on its thread. An
/// arena whose storage grew past kRecycleBytes (a job near its node
/// budget; the serve pool's largest proof ends at 181,193 nodes, about
/// 7 MiB of nodes and hashes) frees it instead of pinning it to the
/// thread.
constexpr std::size_t kRecycleBytes = std::size_t{64} << 20;
struct Recycled {
  std::vector<SymNode> nodes;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> kids;
  std::vector<std::uint32_t> norm_memo;
};
thread_local Recycled recycled;

template <class T>
void take(std::vector<T>& to, std::vector<T>& from) {
  to = std::move(from);
  to.clear();
}
template <class T>
void give(std::vector<T>& to, std::vector<T>& from) {
  if (from.capacity() > to.capacity()) to = std::move(from);
}

}  // namespace

SymArena::SymArena() {
  take(nodes_, recycled.nodes);
  take(hashes_, recycled.hashes);
  take(kids_, recycled.kids);
  take(norm_memo_, recycled.norm_memo);
}

SymArena::~SymArena() {
  const std::size_t bytes =
      nodes_.capacity() * sizeof(SymNode) +
      hashes_.capacity() * sizeof(std::uint64_t) +
      (kids_.capacity() + norm_memo_.capacity()) * sizeof(std::uint32_t);
  if (bytes > kRecycleBytes) return;
  give(recycled.nodes, nodes_);
  give(recycled.hashes, hashes_);
  give(recycled.kids, kids_);
  give(recycled.norm_memo, norm_memo_);
}

std::uint32_t SymArena::append(const SymNode& n,
                               std::span<const std::uint32_t> kids,
                               std::uint64_t hash) {
  if (nodes_.size() >= kInvalid || kids_.size() + kids.size() > kInvalid)
    throw std::length_error("symbolic expression arena exhausted");
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  SymNode& stored = nodes_.emplace_back(n);
  stored.kid_begin = static_cast<std::uint32_t>(kids_.size());
  stored.kid_count = static_cast<std::uint32_t>(kids.size());
  kids_.insert(kids_.end(), kids.begin(), kids.end());
  hashes_.push_back(hash);
  return id;
}

std::uint32_t SymArena::intern(const SymNode& n,
                               std::span<const std::uint32_t> kids) {
  if (index_.empty()) index_.assign(1024, kInvalid);
  const std::uint64_t h = hash_node(n, kids);
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = h & mask;
  for (; index_[slot] != kInvalid; slot = (slot + 1) & mask) {
    const std::uint32_t id = index_[slot];
    if (hashes_[id] == h && header_eq(nodes_[id], n) &&
        std::ranges::equal(kids, this->kids(id)))
      return id;
  }
  const std::uint32_t id = append(n, kids, h);
  index_[slot] = id;
  ++indexed_;
  if (marked_) filled_.push_back(slot);
  if (indexed_ * 2 > index_.size()) rehash(index_.size() * 2);
  return id;
}

void SymArena::rehash(std::size_t slots) {
  // Inserting in id order places every node made before the mark as if
  // the nodes made since had never been, so filled_ stays exact.
  index_.assign(slots, kInvalid);
  filled_.clear();
  const std::size_t mask = index_.size() - 1;
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    if (hashes_[id] == 0) continue;  // a tabled leaf or constant
    std::size_t slot = hashes_[id] & mask;
    while (index_[slot] != kInvalid) slot = (slot + 1) & mask;
    index_[slot] = id;
    if (marked_ && id >= mark_nodes_) filled_.push_back(slot);
  }
}

std::uint32_t SymArena::cint(std::int64_t v) {
  SymNode n;
  n.kind = SymKind::kConstInt;
  n.type = ScalarType::kInt;
  n.ival = v;
  if (!in_int_window(v)) return intern(n, {});
  const auto w = static_cast<std::size_t>(v - kIntWindowLo);
  if (w >= ints_.size()) ints_.resize(w + 1, kInvalid);
  if (ints_[w] == kInvalid) {
    ints_[w] = append(n, {}, 0);
    if (marked_) tabled_.push_back(ints_[w]);
  }
  return ints_[w];
}

std::uint32_t SymArena::cfloat(double v) {
  SymNode n;
  n.kind = SymKind::kConstFloat;
  n.type = ScalarType::kFloat;
  n.fval = Value::of_float(v).to_f32().f;
  const std::uint64_t bits = bits_of(n.fval);
  if (floats_.empty()) floats_.resize(kFloatSlots);
  FloatSlot& slot = floats_[float_slot(bits, floats_.size())];
  if (slot.id != kInvalid && slot.bits == bits) return slot.id;
  slot = {bits, intern(n, {})};
  if (marked_ && slot.id >= mark_nodes_) tabled_.push_back(slot.id);
  return slot.id;
}

std::uint32_t* SymArena::input_slot(std::int32_t param, std::int64_t elem,
                                    ScalarType type) {
  if (!tabled_input(param, elem)) return nullptr;
  const std::size_t t = static_cast<std::size_t>(param) * kTypeCount +
                        static_cast<std::size_t>(type);
  const auto e = static_cast<std::size_t>(elem + 1);
  if (inputs_.size() <= t) inputs_.resize(t + 1);
  if (inputs_[t].size() <= e) inputs_[t].resize(e + 1, kInvalid);
  return &inputs_[t][e];
}

std::uint32_t SymArena::input(std::int32_t param, std::int64_t elem,
                              ScalarType type) {
  SymNode n;
  n.kind = SymKind::kInput;
  n.type = type;
  n.param = param;
  n.ival = elem;
  std::uint32_t* slot = input_slot(param, elem, type);
  if (!slot) return intern(n, {});
  if (*slot == kInvalid) {
    *slot = append(n, {}, 0);
    if (marked_) tabled_.push_back(*slot);
  }
  return *slot;
}

void SymArena::untable(std::uint32_t id) {
  const SymNode& n = nodes_[id];
  if (n.kind == SymKind::kInput) {
    *input_slot(n.param, n.ival, n.type) = kInvalid;
  } else if (n.kind == SymKind::kConstInt) {
    ints_[static_cast<std::size_t>(n.ival - kIntWindowLo)] = kInvalid;
  } else {
    FloatSlot& slot = floats_[float_slot(bits_of(n.fval), floats_.size())];
    if (slot.id == id) slot = {};
  }
}

bool SymArena::constant(std::uint32_t id, Value* out) const {
  const SymNode& n = nodes_[id];
  if (n.kind == SymKind::kConstInt) {
    *out = Value::of_int(n.ival);
    return true;
  }
  if (n.kind == SymKind::kConstFloat) {
    *out = Value::of_float(n.fval);
    return true;
  }
  return false;
}

std::uint32_t SymArena::fold_bin(BinOp op, Value a, Value b) {
  Value r = eval_bin_value(op, a, b);
  return r.is_float() ? cfloat(r.f) : cint(r.i);
}

std::uint32_t SymArena::bin(BinOp op, std::uint32_t a, std::uint32_t b) {
  Value va, vb;
  if (constant(a, &va) && constant(b, &vb)) return fold_bin(op, va, vb);
  SymNode n;
  n.kind = SymKind::kBin;
  n.op = static_cast<std::uint8_t>(op);
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
      n.type = (nodes_[a].type == ScalarType::kFloat ||
                nodes_[b].type == ScalarType::kFloat)
                   ? ScalarType::kFloat
                   : ScalarType::kInt;
      break;
    default: n.type = ScalarType::kInt; break;
  }
  const std::uint32_t kids[] = {a, b};
  return intern(n, kids);
}

std::uint32_t SymArena::un(UnOp op, std::uint32_t a) {
  Value v;
  if (constant(a, &v)) {
    Value r = eval_un_value(op, v);
    return r.is_float() ? cfloat(r.f) : cint(r.i);
  }
  SymNode n;
  n.kind = SymKind::kUnary;
  n.op = static_cast<std::uint8_t>(op);
  n.type = op == UnOp::kNeg ? nodes_[a].type : ScalarType::kInt;
  return intern(n, {&a, 1});
}

std::uint32_t SymArena::call(SymFn fn, std::span<const std::uint32_t> kids) {
  std::array<Value, 2> vals{};
  bool all_const = true;
  bool any_float = false;
  for (std::size_t i = 0; i < kids.size(); ++i) {
    all_const = all_const && constant(kids[i], &vals[i]);
    any_float = any_float || nodes_[kids[i]].type == ScalarType::kFloat;
  }
  if (all_const) {
    Value r = eval_call_value(fn, vals);
    return r.is_float() ? cfloat(r.f) : cint(r.i);
  }
  SymNode n;
  n.kind = SymKind::kCall;
  n.op = static_cast<std::uint8_t>(fn);
  n.type = (fn == SymFn::kAbs || fn == SymFn::kMin || fn == SymFn::kMax)
               ? (any_float ? ScalarType::kFloat : ScalarType::kInt)
               : ScalarType::kFloat;
  return intern(n, kids);
}

std::uint32_t SymArena::cast(ScalarType to, std::uint32_t a) {
  if (to == ScalarType::kVoid) return a;
  ScalarType target =
      to == ScalarType::kFloat ? ScalarType::kFloat : ScalarType::kInt;
  // Symbolic float expressions are f32-rounded by construction and int
  // expressions are exact int64, so a same-type cast is the identity, and
  // so is a cast to bool of a value that is 0 or 1 already.
  if (nodes_[a].type == target &&
      (to != ScalarType::kBool || is_truth(nodes_[a])))
    return a;
  Value v;
  if (constant(a, &v)) {
    Value r = coerce_value(v, to);
    return r.is_float() ? cfloat(r.f) : cint(r.i);
  }
  SymNode n;
  n.kind = SymKind::kCast;
  n.op = static_cast<std::uint8_t>(to);
  n.type = target;
  return intern(n, {&a, 1});
}

std::uint32_t SymArena::select(std::uint32_t c, std::uint32_t a,
                               std::uint32_t b) {
  Value cv;
  if (constant(c, &cv)) return cv.truthy() ? a : b;
  if (a == b) return a;
  SymNode n;
  n.kind = SymKind::kSelect;
  n.type = (nodes_[a].type == ScalarType::kFloat ||
            nodes_[b].type == ScalarType::kFloat)
               ? ScalarType::kFloat
               : ScalarType::kInt;
  const std::uint32_t kids[] = {c, a, b};
  return intern(n, kids);
}

std::uint32_t SymArena::gather(std::uint32_t idx,
                               std::span<const std::uint32_t> cells,
                               ScalarType type) {
  Value iv;
  if (constant(idx, &iv)) {
    std::int64_t i = iv.as_i();
    if (i < 0 || i >= static_cast<std::int64_t>(cells.size()))
      throw SymFault{"gather index " + std::to_string(i) +
                     " out of range [0," + std::to_string(cells.size()) + ")"};
    return cells[static_cast<std::size_t>(i)];
  }
  bool uniform = true;
  for (auto c : cells)
    if (c != cells[0]) {
      uniform = false;
      break;
    }
  if (uniform && !cells.empty()) return cells[0];
  SymNode n;
  n.kind = SymKind::kGather;
  n.type = type;
  gather_kids_.assign(1, idx);
  gather_kids_.insert(gather_kids_.end(), cells.begin(), cells.end());
  return intern(n, gather_kids_);
}

namespace {

Value combine_nary(SymNaryOp op, Value a, Value b) {
  switch (op) {
    case SymNaryOp::kAdd: return eval_bin_value(BinOp::kAdd, a, b);
    case SymNaryOp::kMul: return eval_bin_value(BinOp::kMul, a, b);
    case SymNaryOp::kMin: return eval_call_value(SymFn::kMin, {a, b});
    case SymNaryOp::kMax: return eval_call_value(SymFn::kMax, {a, b});
  }
  return a;
}

/// The neutral element of + (0) and * (1); min/max have none.
bool is_neutral(SymNaryOp op, Value v) {
  if (op == SymNaryOp::kAdd) return v.is_float() ? v.f == 0.0 : v.i == 0;
  if (op == SymNaryOp::kMul) return v.is_float() ? v.f == 1.0 : v.i == 1;
  return false;
}

/// The AC chain a raw node continues under normalization, if any: + and
/// - extend a + chain, * a * chain, min/fminf and max/fmaxf their
/// min/max chains.
bool chain_op(const SymNode& n, SymNaryOp* op) {
  if (n.kind == SymKind::kBin) {
    switch (static_cast<BinOp>(n.op)) {
      case BinOp::kAdd:
      case BinOp::kSub: *op = SymNaryOp::kAdd; return true;
      case BinOp::kMul: *op = SymNaryOp::kMul; return true;
      default: return false;
    }
  }
  if (n.kind == SymKind::kCall) {
    switch (static_cast<SymFn>(n.op)) {
      case SymFn::kMin:
      case SymFn::kFminf: *op = SymNaryOp::kMin; return true;
      case SymFn::kMax:
      case SymFn::kFmaxf: *op = SymNaryOp::kMax; return true;
      default: return false;
    }
  }
  return false;
}

void fold(SymNaryOp op, Value v, bool* have, Value* acc) {
  *acc = *have ? combine_nary(op, *acc, v) : v;
  *have = true;
}

}  // namespace

void SymArena::absorb(SymNaryOp op, std::uint32_t operand, Folded& c) {
  // A canonical same-op chain contributes its operands (AC flattening);
  // its kids are never same-op chains themselves.
  const SymNode& on = nodes_[operand];
  std::span<const std::uint32_t> parts{&operand, 1};
  if (on.kind == SymKind::kNary && static_cast<SymNaryOp>(on.op) == op)
    parts = kids(operand);
  for (auto o : parts) {
    Value v;
    if (constant(o, &v))
      fold(op, v, &c.have, &c.value);
    else
      chain_rest_.push_back(o);
  }
}

std::uint32_t SymArena::finish_chain(SymNaryOp op, ScalarType type,
                                     std::size_t begin, Folded c) {
  // The chain's non-constant operands are chain_rest_[begin, end). Keep
  // the folded constant unless it is the neutral element, dedupe
  // idempotent min/max operands, sort by interned id.
  bool any_float = type == ScalarType::kFloat;
  for (std::size_t i = begin; i < chain_rest_.size(); ++i)
    any_float = any_float || nodes_[chain_rest_[i]].type == ScalarType::kFloat;
  if (c.have) {
    any_float = any_float || c.value.is_float();
    if (!is_neutral(op, c.value) || chain_rest_.size() == begin) {
      const std::uint32_t k =
          c.value.is_float() ? cfloat(c.value.f) : cint(c.value.i);
      chain_rest_.push_back(k);
    }
  }
  auto first = chain_rest_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, chain_rest_.end());
  if (op == SymNaryOp::kMin || op == SymNaryOp::kMax)
    chain_rest_.erase(std::unique(first, chain_rest_.end()),
                      chain_rest_.end());
  std::uint32_t r = chain_rest_[begin];
  if (chain_rest_.size() - begin > 1) {
    SymNode n;
    n.kind = SymKind::kNary;
    n.op = static_cast<std::uint8_t>(op);
    n.type = any_float ? ScalarType::kFloat : ScalarType::kInt;
    r = intern(n, std::span(chain_rest_).subspan(begin));
  }
  chain_rest_.resize(begin);
  return r;
}

std::uint32_t SymArena::make_nary(
    SymNaryOp op, ScalarType type,
    std::initializer_list<std::uint32_t> operands) {
  const std::size_t begin = chain_rest_.size();
  Folded c;
  for (auto o : operands) absorb(op, o, c);
  return finish_chain(op, type, begin, c);
}

std::uint32_t SymArena::memo(std::uint32_t id) const {
  return id < norm_memo_.size() ? norm_memo_[id] : kInvalid;
}

void SymArena::push_normalize(std::uint32_t id) {
  NormFrame f;
  f.id = id;
  if (chain_op(nodes_[id], &f.op)) {
    // The root of a maximal chain: one collect walk under it gathers
    // the chain's operands above chain_rest_[mark].
    f.chain_root = true;
    f.mark = chain_rest_.size();
    f.seen_begin = chain_seen_.size();
  } else {
    f.mark = norm_args_.size();
  }
  norm_stack_.push_back(f);
}

void SymArena::push_collect(std::uint32_t id, SymNaryOp op,
                            std::size_t seen_begin) {
  NormFrame f;
  f.id = id;
  f.collect = true;
  f.op = op;
  f.seen_begin = seen_begin;
  norm_stack_.push_back(f);
}

void SymArena::clear_norm_scratch() {
  for (std::size_t i = chain_seen_.size(); i-- > 0;)
    chain_slot_[chain_seen_[i].id] = chain_seen_[i].prev_slot;
  chain_seen_.clear();
  chain_rest_.clear();
  norm_stack_.clear();
  norm_args_.clear();
}

std::uint32_t SymArena::normalize(std::uint32_t id, std::int64_t max_nodes) {
  if (id == kInvalid) return id;
  if (const std::uint32_t m = memo(id); m != kInvalid) return m;
  try {
    const std::uint32_t r = normalize_walk(id, max_nodes);
    if (r == kInvalid) clear_norm_scratch();
    return r;
  } catch (...) {
    clear_norm_scratch();
    throw;
  }
}

std::uint32_t SymArena::normalize_walk(std::uint32_t root,
                                       std::int64_t max_nodes) {
  // The recursion of a bottom-up normalize, on an explicit stack: a
  // 100000-link reduction chain is 100000 frames deep.
  std::uint32_t ret = kInvalid;  // result of the last finished normalize frame
  Folded ret_c;                  // result of the last finished collect frame
  push_normalize(root);
  while (!norm_stack_.empty()) {
    // Chain scratch counts like nodes: a + chain that reuses a sub-chain
    // has one operand per path, which doubles with every reuse.
    if (static_cast<std::int64_t>(nodes_.size() + chain_rest_.size()) >
        max_nodes)
      return kInvalid;
    NormFrame& f = norm_stack_.back();
    const SymNode n = nodes_[f.id];  // copy: builders below may grow nodes_
    if (f.collect) {
      if (collect_step(f, n, ret, ret_c)) continue;
      ret_c = f.c;
      norm_stack_.pop_back();
      continue;
    }
    if (f.chain_root) {
      if (!f.awaiting) {
        f.awaiting = true;
        push_collect(f.id, f.op, f.seen_begin);
        continue;
      }
      for (std::size_t i = chain_seen_.size(); i-- > f.seen_begin;)
        chain_slot_[chain_seen_[i].id] = chain_seen_[i].prev_slot;
      chain_seen_.resize(f.seen_begin);
      ret = finish_chain(f.op, n.type, f.mark, ret_c);
    } else {
      if (f.awaiting) {
        norm_args_.push_back(ret);
        f.awaiting = false;
      }
      // A kNary is already canonical: its operands are not revisited.
      if (n.kind != SymKind::kNary && f.next < n.kid_count) {
        const std::uint32_t k = kids_[n.kid_begin + f.next++];
        if (const std::uint32_t m = memo(k); m != kInvalid) {
          norm_args_.push_back(m);
        } else {
          f.awaiting = true;
          push_normalize(k);
        }
        continue;
      }
      ret = rebuild(f.id, n, f.mark);
      norm_args_.resize(f.mark);
    }
    if (norm_memo_.size() <= f.id) norm_memo_.resize(nodes_.size(), kInvalid);
    norm_memo_[f.id] = ret;
    if (f.id < mark_nodes_) memoized_.push_back(f.id);
    norm_stack_.pop_back();
  }
  return ret;
}

bool SymArena::collect_step(NormFrame& f, const SymNode& n, std::uint32_t ret,
                            const Folded& ret_c) {
  // One walk over the maximal `op` chain under a chain root, collecting
  // its operands into one list. The result equals normalizing every
  // chain node bottom-up into its own kNary (which costs one node per
  // prefix, O(k^2) operands for a length-k chain): each node's
  // constants fold before its parent's, and a neutral constant is
  // dropped wherever that node's own normalization would drop it, so
  // folding order and node types are unchanged. Nodes normalized
  // earlier end the walk and contribute their canonical form.
  const bool idempotent = f.op == SymNaryOp::kMin || f.op == SymNaryOp::kMax;
  // a - b continues the + chain with the operand (-1 * b).
  auto negated = [&](std::uint32_t i) {
    return n.kind == SymKind::kBin &&
           static_cast<BinOp>(n.op) == BinOp::kSub && i == 1;
  };
  auto absorb_kid = [&](std::uint32_t i, std::uint32_t x) {
    if (negated(i))
      x = make_nary(SymNaryOp::kMul, nodes_[x].type, {cint(-1), x});
    absorb(f.op, x, f.c);
  };
  // A chain kid's own normalization keeps its constant only when it is
  // not neutral or the kid has no other operand.
  auto fold_kid = [&](const Folded& kc, std::size_t kid_rest) {
    if (kc.have &&
        (!is_neutral(f.op, kc.value) || chain_rest_.size() == kid_rest))
      fold(f.op, kc.value, &f.c.have, &f.c.value);
  };
  if (f.awaiting) {
    f.awaiting = false;
    const std::uint32_t i = f.next - 1;
    if (!f.sub) {
      absorb_kid(i, ret);
    } else {
      if (idempotent) {
        const std::uint32_t k = kids_[n.kid_begin + i];
        if (chain_slot_.size() <= k) chain_slot_.resize(nodes_.size(), kInvalid);
        chain_seen_.push_back(SeenChain{k, chain_slot_[k], ret_c});
        chain_slot_[k] = static_cast<std::uint32_t>(chain_seen_.size() - 1);
      }
      fold_kid(ret_c, f.mark);
    }
  }
  while (f.next < n.kid_count) {
    const std::uint32_t i = f.next++;
    const std::uint32_t k = kids_[n.kid_begin + i];
    SymNaryOp kop{};
    if (!negated(i) && chain_op(nodes_[k], &kop) && kop == f.op &&
        memo(k) == kInvalid) {
      // A min/max node reached again adds only operands that are
      // already collected (finish_chain dedupes them), so it contributes
      // just its folded constant. That still folds here: the first path
      // may have lost it under a NaN. A + or * node counts once per path.
      const std::uint32_t slot =
          k < chain_slot_.size() ? chain_slot_[k] : kInvalid;
      if (idempotent && slot != kInvalid && slot >= f.seen_begin &&
          slot < chain_seen_.size() && chain_seen_[slot].id == k) {
        fold_kid(chain_seen_[slot].c, chain_rest_.size());
        continue;
      }
      f.awaiting = f.sub = true;
      f.mark = chain_rest_.size();
      push_collect(k, f.op, f.seen_begin);
      return true;
    }
    if (const std::uint32_t x = memo(k); x != kInvalid) {
      absorb_kid(i, x);
      continue;
    }
    f.awaiting = true;
    f.sub = false;
    push_normalize(k);
    return true;
  }
  return false;
}

std::uint32_t SymArena::rebuild(std::uint32_t id, const SymNode& n,
                                std::size_t args) {
  // The node over its operands' normal forms, norm_args_[args, +kids).
  auto kid = [&](std::size_t i) { return norm_args_[args + i]; };
  switch (n.kind) {
    case SymKind::kConstInt:
    case SymKind::kConstFloat:
    case SymKind::kInput:
    case SymKind::kNary:  // only the normalizer creates these, canonically
      return id;
    case SymKind::kBin: {
      std::uint32_t a = kid(0);
      std::uint32_t b = kid(1);
      auto op = static_cast<BinOp>(n.op);
      switch (op) {
        case BinOp::kGt: return bin(BinOp::kLt, b, a);
        case BinOp::kGe: return bin(BinOp::kLe, b, a);
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLAnd:
        case BinOp::kLOr:
        case BinOp::kBitAnd:
        case BinOp::kBitOr:
        case BinOp::kBitXor:
          if (a > b) std::swap(a, b);
          return bin(op, a, b);
        default: return bin(op, a, b);
      }
    }
    case SymKind::kUnary: {
      const std::uint32_t a = kid(0);
      if (static_cast<UnOp>(n.op) == UnOp::kNeg)
        return make_nary(SymNaryOp::kMul, nodes_[a].type, {cint(-1), a});
      return un(UnOp::kLNot, a);
    }
    case SymKind::kCall:
      return call(static_cast<SymFn>(n.op),
                  std::span(norm_args_).subspan(args));
    case SymKind::kCast: return cast(static_cast<ScalarType>(n.op), kid(0));
    case SymKind::kSelect: {
      const std::uint32_t c = kid(0);
      const std::uint32_t t = kid(1);
      const std::uint32_t e = kid(2);
      Value cv;
      if (constant(c, &cv)) return cv.truthy() ? t : e;
      if (t == e) return t;
      const SymNode& cn = nodes_[c];
      if (cn.kind == SymKind::kBin) {
        auto cop = static_cast<BinOp>(cn.op);
        if (cop == BinOp::kLt || cop == BinOp::kLe) {
          std::uint32_t x = kids(c)[0], y = kids(c)[1];
          ScalarType ty = (nodes_[t].type == ScalarType::kFloat ||
                           nodes_[e].type == ScalarType::kFloat)
                              ? ScalarType::kFloat
                              : ScalarType::kInt;
          if (t == x && e == y) return make_nary(SymNaryOp::kMin, ty, {x, y});
          if (t == y && e == x) return make_nary(SymNaryOp::kMax, ty, {x, y});
        }
      }
      return select(c, t, e);
    }
    case SymKind::kGather:
      return gather(kid(0), std::span(norm_args_).subspan(args + 1), n.type);
  }
  return id;
}

void SymArena::mark() {
  marked_ = true;
  mark_nodes_ = nodes_.size();
  mark_indexed_ = indexed_;
  filled_.clear();
  tabled_.clear();
  memoized_.clear();
}

void SymArena::rollback() {
  const std::size_t size = mark_nodes_;
  for (const std::uint32_t id : memoized_) norm_memo_[id] = kInvalid;
  if (norm_memo_.size() > size) norm_memo_.resize(size);
  if (chain_slot_.size() > size) chain_slot_.resize(size);
  // The leaves and constants made since the mark leave their tables (a
  // float's cache entry only if no other constant has replaced it).
  for (const std::uint32_t id : tabled_) untable(id);
  if (size < nodes_.size()) {
    kids_.resize(nodes_[size].kid_begin);
    nodes_.resize(size);
    hashes_.resize(size);
  }
  indexed_ = mark_indexed_;
  // Linear probing never moves an entry, so emptying the slots filled
  // since the mark restores the index exactly (at its current size).
  for (const std::size_t slot : filled_) index_[slot] = kInvalid;
  filled_.clear();
  tabled_.clear();
  memoized_.clear();
}

std::string SymArena::str(std::uint32_t id, int max_depth) const {
  if (id == kInvalid) return "<uninit>";
  const SymNode& n = nodes_[id];
  const auto ks = kids(id);
  if (max_depth <= 0) return "...";
  std::ostringstream os;
  auto kid = [&](std::size_t i) { return str(ks[i], max_depth - 1); };
  switch (n.kind) {
    case SymKind::kConstInt: os << n.ival; break;
    case SymKind::kConstFloat: os << n.fval << "f"; break;
    case SymKind::kInput:
      if (n.ival < 0)
        os << "arg" << n.param;
      else
        os << "in" << n.param << "[" << n.ival << "]";
      break;
    case SymKind::kBin:
      os << "(" << kid(0) << " " << ir::to_string(static_cast<BinOp>(n.op))
         << " " << kid(1) << ")";
      break;
    case SymKind::kUnary:
      os << ir::to_string(static_cast<UnOp>(n.op)) << kid(0);
      break;
    case SymKind::kCall: {
      static const char* kNames[] = {"sqrtf", "fabsf", "expf",  "logf",
                                     "sinf",  "cosf",  "floorf", "rsqrtf",
                                     "abs",   "min",   "max",   "fminf",
                                     "fmaxf", "powf"};
      os << kNames[n.op] << "(";
      for (std::size_t i = 0; i < ks.size(); ++i)
        os << (i ? ", " : "") << kid(i);
      os << ")";
      break;
    }
    case SymKind::kCast:
      os << "(" << ir::to_string(static_cast<ScalarType>(n.op)) << ")"
         << kid(0);
      break;
    case SymKind::kSelect:
      os << "(" << kid(0) << " ? " << kid(1) << " : " << kid(2) << ")";
      break;
    case SymKind::kGather:
      os << "gather[" << (ks.size() - 1) << "](" << kid(0) << ")";
      break;
    case SymKind::kNary: {
      static const char* kOps[] = {" + ", " * ", " min ", " max "};
      os << "(";
      for (std::size_t i = 0; i < ks.size(); ++i)
        os << (i ? kOps[n.op] : "") << kid(i);
      os << ")";
      break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Executor: the lowered bytecode, run on node ids
// ---------------------------------------------------------------------------

namespace {

using bytecode::Instr;
using bytecode::Op;
using bytecode::Operand;
using exec::any;
using exec::Mask;
using IdVec = std::vector<std::uint32_t>;

constexpr std::uint32_t kInv = SymArena::kInvalid;
/// A kFlatten register lane whose index is still concrete (in flat_);
/// other lanes hold an index node, or kInv (a shfl-broadened lane).
constexpr std::uint32_t kConcreteFlat = kInv - 1;

/// Non-SymFault abort: unsupported construct (fault = false) or a
/// deterministic interpreter fault (fault = true).
struct Abort {
  std::string reason;
  bool fault = false;
};

/// A variable, or a global buffer (its cells and meta).
struct Var {
  ir::Type type;
  bool block_scoped = false;  // shared array: one copy per block
  IdVec scalar;               // per-lane scalar ids
  IdVec cells;                // block_scoped: [elems]; else [lane*elems+e]
  std::vector<hazard::Cell> meta;  // shared arrays and buffers

  /// Back to a default Var, keeping the vectors' storage.
  void reset() {
    type = {};
    block_scoped = false;
    scalar.clear();
    cells.clear();
    meta.clear();
  }
};

/// An operand's node ids: a lane vector, or one id for every lane.
struct Ids {
  const std::uint32_t* vec = nullptr;
  std::uint32_t splat = 0;
  [[nodiscard]] std::uint32_t at(std::size_t l) const {
    return vec ? vec[l] : splat;
  }
};

/// An if statement between its kIfSplit and its kIfEnd. A condition
/// symbolic on some lanes (sm) runs both arms there, each on its own copy
/// of the frame, and kIfEnd merges the two with select nodes.
struct Split {
  bool symbolic = false;
  bool in_else = false;
  /// The frame the split began with; from kIfElse on, the then arm's.
  std::vector<Var> frame;
  IdVec cond, else_pred;  // per lane; else_pred = !cond on sm
  Mask tm, sm;            // lanes whose condition is true / symbolic
};

class Exec {
 public:
  Exec(const DeviceSpec& spec, const ir::Kernel& k, Dim3 grid, Dim3 block,
       const std::vector<SymArg>& args, SymArena& arena,
       const SymExecOptions& opt)
      : spec_(spec), kernel_(k), bound_(bind_kernel(k)),
        // No bound buffer types: every load is typed with its
        // parameter's declared type, which setup() gives the buffer.
        prog_(bytecode::lower(*bound_)), grid_(grid),
        block_(block), args_(args), ar_(arena), opt_(opt) {}

  SymExecResult run() {
    SymExecResult res;
    try {
      setup();
      for (int bz = 0; bz < grid_.z; ++bz)
        for (int by = 0; by < grid_.y; ++by)
          for (int bx = 0; bx < grid_.x; ++bx) {
            begin_block(bx, by, bz);
            const Instr* code = prog_->code.data();
            for (std::size_t pc = 0; code[pc].op != Op::kHalt;)
              pc = step(code[pc]) ? static_cast<std::size_t>(code[pc].target)
                                  : pc + 1;
          }
      res.ok = true;
      res.buffers.resize(args_.size());
      for (std::size_t i = 0; i < args_.size(); ++i)
        if (!globals_[i].cells.empty()) res.buffers[i] = globals_[i].cells;
    } catch (const Abort& a) {
      res.reason = a.reason;
      res.fault = a.fault;
    } catch (const SymFault& f) {
      res.reason = f.message;
      res.fault = true;
    } catch (const SimError& e) {
      // A binder trap or a lane-model check (sim/lanes.hpp): the VM
      // fails the same way.
      res.reason = e.what();
      res.fault = true;
    }
    res.races = std::move(races_);
    res.steps = steps_;
    return res;
  }

 private:
  // ---------------- setup ----------------
  void setup() {
    exec::check_launch_shape(spec_, grid_, block_);
    lanes_ = exec::Lanes(spec_.warp_size, block_);
    exec::check_arg_count(kernel_, args_.size());
    regs_.assign(reg_base(prog_->num_regs), kInv);
    flat_.assign(regs_.size(), 0);
    globals_.resize(args_.size());
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const ir::Param& p = kernel_.params[i];
      const SymArg& a = args_[i];
      exec::check_arg_kind(kernel_, i,
                           a.kind != SymArg::Kind::kScalarConcrete &&
                               a.kind != SymArg::Kind::kScalarSymbolic);
      if (!p.type.is_pointer) continue;
      Var& g = globals_[i];
      g.type = p.type;
      g.cells.resize(static_cast<std::size_t>(a.elems), kInv);
      g.meta.assign(static_cast<std::size_t>(a.elems),
                    {.init = a.kind != SymArg::Kind::kBufferScratch});
      auto pi = static_cast<std::int32_t>(i);
      switch (a.kind) {
        case SymArg::Kind::kBufferSymbolic:
          if (g.type.scalar != ScalarType::kFloat)
            throw Abort{"arg " + std::to_string(i) + " ('" + p.name +
                            "'): symbolic buffers must be float",
                        false};
          for (std::int64_t e = 0; e < a.elems; ++e)
            g.cells[static_cast<std::size_t>(e)] =
                ar_.input(pi, e, ScalarType::kFloat);
          break;
        case SymArg::Kind::kBufferConcrete:
          if (static_cast<std::int64_t>(a.ints.size()) != a.elems)
            throw Abort{"arg " + std::to_string(i) + " ('" + p.name +
                            "'): concrete buffer contents missing",
                        false};
          for (std::int64_t e = 0; e < a.elems; ++e) {
            auto ci = a.ints[static_cast<std::size_t>(e)];
            g.cells[static_cast<std::size_t>(e)] =
                g.type.scalar == ScalarType::kFloat
                    ? ar_.cfloat(static_cast<double>(ci))
                    : ar_.cint(ci);
          }
          break;
        default: break;  // kBufferScratch: uninitialized
      }
    }
  }

  void begin_block(int bx, int by, int bz) {
    blk_ = static_cast<std::int64_t>(bz) * grid_.x * grid_.y +
           static_cast<std::int64_t>(by) * grid_.x + bx;
    frame_.resize(bound_->num_slots());
    for (Var& v : frame_) v.reset();
    regions_ = exec::Regions(lanes_, ExecutionLimits{}.max_loop_iterations);
    open_ = symbolic_open_ = 0;
    epoch_ = 0;
    seq_ = 0;
    for (auto& g : globals_)  // a new block: keep what outlives the last
      for (auto& m : g.meta) m = hazard::Cell{.block = m.block, .init = m.init};
    // Geometry lane vectors, then the parameters: this interning order
    // fixes every node id a certificate depends on.
    for (int g = kGeomThreadIdxX; g <= kGeomThreadIdxZ; ++g)
      geom_[g].resize(static_cast<std::size_t>(lanes_.nlanes()));
    lanes_.for_each_geometry(
        grid_, Dim3{bx, by, bz},
        [&](int g, int l, int v) {
          geom_[g][static_cast<std::size_t>(l)] = ar_.cint(v);
        },
        [&](int g, int v) { splat(geom_[g], ar_.cint(v)); });
    // Parameters occupy the binder's first slots, in order.
    for (std::size_t i = 0; i < kernel_.params.size(); ++i) {
      const ir::Param& p = kernel_.params[i];
      const SymArg& a = args_[i];
      Var& v = frame_[i];
      v.type = p.type;
      if (p.type.is_pointer) continue;  // globals_[i]
      std::uint32_t id;
      if (a.kind == SymArg::Kind::kScalarSymbolic) {
        id = ar_.input(static_cast<std::int32_t>(i), -1, ScalarType::kFloat);
      } else if (p.type.scalar == ScalarType::kFloat) {
        id = ar_.cfloat(a.scalar.as_f());
      } else {
        id = ar_.cint(a.scalar.as_i());
      }
      splat(v.scalar, id);
    }
  }

  // ---------------- instructions ----------------
  /// Runs one instruction; true when it jumps to its target.
  bool step(const Instr& ins) {
    switch (ins.op) {
      case Op::kGuard:
      case Op::kLoopLatchFor: return regions_.guard();
      case Op::kClearReturned: regions_.clear_returned(); break;
      case Op::kStep:
      case Op::kLoopBackedge: count_step(); break;
      case Op::kTrap: throw SimError(text(ins.name));
      case Op::kVarGuard:
        if (!regions_.in_shfl_arg())
          each_lane([&, &v = slot_of(ins).scalar](std::size_t l) {
            if (v[l] == kInv)
              throw Abort{
                  hazard::text(hazard::Rule::kUninitVariable, text(ins.name))};
          });
        break;
      case Op::kStoreVar:
      case Op::kDeclInit:
        each_lane([&, &v = slot_of(ins), x = src(ins.a)](std::size_t l) {
          v.scalar[l] = coerce_id(x.at(l), v.type.scalar);
        });
        break;
      case Op::kDeclare: declare(ins); break;
      case Op::kDeclFill:
      case Op::kDeclTail: decl_fill(ins); break;
      case Op::kBin:
      case Op::kCompound:
      case Op::kUn:
      case Op::kCast:
      case Op::kSelect:
      case Op::kMath1:
      case Op::kAbs:
      case Op::kMath2: lane_op(ins); break;
      case Op::kSync:
        if (divergent())
          throw Abort{"__syncthreads under a symbolically divergent branch"};
        // A live warp that never arrives deadlocks on real hardware (and
        // is a deterministic kBarrierDivergence hazard in the sanitizer).
        if (lanes_.absent_lane(cur(), regions_.returned()) >= 0)
          throw Abort{"__syncthreads not reached by a live warp", true};
        ++epoch_;
        break;
      case Op::kShflGuard: exec::check_shfl_device(spec_); break;
      case Op::kShflArgBegin:
        if (divergent())
          throw Abort{"__shfl under a symbolically divergent branch"};
        regions_.shfl_arg_begin();
        break;
      case Op::kShflArgEnd: regions_.shfl_arg_end(); break;
      case Op::kShfl: shfl(ins); break;
      case Op::kFlatten: flatten(ins); break;
      case Op::kBufLoad:
      case Op::kBufStore: access(ins, true, ins.op == Op::kBufStore); break;
      case Op::kSharedLoad:
      case Op::kSharedStore:
      case Op::kLocalLoad:
      case Op::kLocalStore:
        access(ins, false,
               ins.op == Op::kSharedStore || ins.op == Op::kLocalStore);
        break;
      case Op::kIfSplit:
        return regions_.if_split(ins.aux, [&](auto&... m) { split(ins, m...); });
      case Op::kIfElse:
        return regions_.if_else([&] { else_arm(); }, [&] { end_if(); });
      case Op::kIfEnd: regions_.if_end([&] { end_if(); }); break;
      case Op::kLoopEnter: regions_.loop_enter(ins.loc); break;
      case Op::kMaskAnd: prune(ins); break;
      case Op::kLoopCheck: return regions_.loop_check(ins.aux, ins.loc);
      case Op::kLoopExit: regions_.loop_exit(); break;
      case Op::kJump: return true;
      case Op::kReturn:
        if (divergent())
          throw Abort{"return under a symbolically divergent branch"};
        regions_.ret();
        break;
      case Op::kHalt:
      case Op::kLeafBegin:
      case Op::kLeafEnd:
      case Op::kCharge: break;
    }
    return false;
  }

  // ---------------- bookkeeping ----------------
  void count_step() {
    if (++steps_ > opt_.max_steps)
      throw Abort{"step budget of " + std::to_string(opt_.max_steps) +
                  " exhausted"};
    if (static_cast<std::int64_t>(ar_.size()) > opt_.max_nodes)
      throw Abort{"expression budget of " + std::to_string(opt_.max_nodes) +
                  " nodes exhausted"};
  }

  /// The mask of the innermost active region.
  [[nodiscard]] Mask& cur() { return regions_.cur(); }
  /// Inside an arm of a symbolic split.
  [[nodiscard]] bool divergent() const { return symbolic_open_ > 0; }
  template <class Fn>
  void each_lane(Fn&& fn) {
    lanes_.for_each_lane(cur(), fn);
  }

  [[nodiscard]] const std::string& text(std::int32_t n) const {
    return prog_->names[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] Var& slot_of(const Instr& ins) {
    return frame_[static_cast<std::size_t>(ins.slot)];
  }
  /// `id` on every lane of `v`.
  void splat(IdVec& v, std::uint32_t id) const {
    v.assign(static_cast<std::size_t>(lanes_.nlanes()), id);
  }
  /// No lane in `m`.
  void clear(Mask& m) const {
    m.assign(static_cast<std::size_t>(lanes_.nwarps()), 0u);
  }
  [[nodiscard]] std::size_t reg_base(std::int32_t r) const {
    return static_cast<std::size_t>(r) *
           static_cast<std::size_t>(lanes_.nlanes());
  }
  [[nodiscard]] std::uint32_t* reg(std::int32_t r) {
    return regs_.data() + reg_base(r);
  }

  /// An operand's node ids; an immediate is interned where the
  /// instruction reading it runs, and an absent operand reads as node 0.
  [[nodiscard]] Ids src(const Operand& o) {
    const auto id = static_cast<std::size_t>(o.id);
    switch (o.kind) {
      case Operand::Kind::kReg: return {reg(o.id)};
      case Operand::Kind::kImm:
        return {nullptr, o.imm.is_float() ? ar_.cfloat(o.imm.f)
                                          : ar_.cint(o.imm.i)};
      case Operand::Kind::kGeom: return {geom_[id].data()};
      case Operand::Kind::kUniform:
      case Operand::Kind::kSlotData: return {frame_[id].scalar.data()};
      case Operand::Kind::kNone: break;
    }
    return {};
  }

  std::uint32_t coerce_id(std::uint32_t id, ScalarType to) {
    if (id == kInv) throw Abort{"store of an uninitialized value"};
    return ar_.cast(to, id);
  }

  /// The operators, each with a lane loop of its own.
  void lane_op(const Instr& ins) {
    const SymFn fn = sym_fn_of(static_cast<Builtin>(ins.aux));
    switch (ins.op) {
      case Op::kUn:
        return lanes(ins, [&](auto x, auto, auto) {
          return ar_.un(static_cast<UnOp>(ins.aux), x);
        });
      case Op::kCast:
        return lanes(ins, [&](auto x, auto, auto) {
          return ar_.cast(static_cast<ScalarType>(ins.aux), x);
        });
      case Op::kSelect:
        return lanes(ins, [&](auto c, auto x, auto y) {
          // Both arms convert to their common type, as in the VM: float
          // if either arm is float (bool and int arms are both int).
          if ((ar_.node(x).type == ScalarType::kFloat) !=
              (ar_.node(y).type == ScalarType::kFloat)) {
            x = ar_.cast(ScalarType::kFloat, x);
            y = ar_.cast(ScalarType::kFloat, y);
          }
          return ar_.select(c, x, y);
        });
      case Op::kMath1:
      case Op::kAbs:
        return lanes(ins, [&](auto x, auto, auto) {
          return ar_.call(fn, std::array{x});
        });
      case Op::kMath2:
        return lanes(ins,
                     [&](auto x, auto y, auto) {
                       return ar_.call(fn, std::array{x, y});
                     });
      default:  // kBin, kCompound
        return lanes(ins, [&](auto x, auto y, auto) {
          return ar_.bin(static_cast<BinOp>(ins.aux), x, y);
        });
    }
  }

  /// dst = fn(a, b, c) on each active lane. A lane where an operand has
  /// no value gets none; a compound assignment aborts.
  template <class Fn>
  void lanes(const Instr& ins, Fn&& fn) {
    const Ids a = src(ins.a), b = src(ins.b), c = src(ins.c);
    std::uint32_t* out = reg(ins.dst);
    each_lane([&](std::size_t l) {
      const std::uint32_t x = a.at(l), y = b.at(l), z = c.at(l);
      if (x != kInv && y != kInv && z != kInv)
        out[l] = fn(x, y, z);
      else if (ins.op == Op::kCompound)
        throw Abort{"compound assignment reads an uninitialized value"};
      else
        out[l] = kInv;
    });
  }

  // ---------------- declarations ----------------
  void declare(const Instr& ins) {
    const ir::Type& type =
        bound_->slots[static_cast<std::size_t>(ins.slot)].decl->type;
    // Installed before the initializer runs, as BlockCore::declare does:
    // the initializer of `int x = x + 1;` reads the new, unset x.
    Var& v = slot_of(ins);
    v.reset();
    v.type = type;
    const auto elems = static_cast<std::size_t>(type.element_count());
    v.block_scoped = type.space == ir::AddrSpace::kShared;  // an array
    if (!type.is_array())
      splat(v.scalar, kInv);
    else
      v.cells.assign(v.block_scoped ? elems : elems * lanes_.nlanes(), kInv);
    if (v.block_scoped) v.meta.assign(elems, hazard::Cell{});
  }

  /// A brace initializer runs per thread, into the thread's own copy:
  /// kDeclFill stores element dst, kDeclTail zero-fills from dst on.
  void decl_fill(const Instr& ins) {
    Var& v = slot_of(ins);
    const ScalarType scalar = v.type.scalar;
    const auto elems = static_cast<std::size_t>(v.type.element_count());
    const bool tail = ins.op == Op::kDeclTail;
    const auto first = static_cast<std::size_t>(ins.dst);
    for (std::size_t e = first; e < (tail ? elems : first + 1); ++e) {
      const Ids x = tail ? Ids{nullptr, scalar == ScalarType::kFloat
                                            ? ar_.cfloat(0.0)
                                            : ar_.cint(0)}
                         : src(ins.a);
      each_lane([&](std::size_t l) {
        v.cells[l * elems + e] = coerce_id(x.at(l), scalar);
      });
    }
  }

  /// The source argument was evaluated under the warp-broadened mask
  /// (kShflArgBegin), so every source lane holds its value.
  void shfl(const Instr& ins) {
    const Ids var = src(ins.a), sel = src(ins.b), wid = src(ins.c);
    std::uint32_t* out = reg(ins.dst);
    const std::string& callee = text(ins.name);
    each_lane([&](std::size_t l) {
      Value sv, wv;
      const std::uint32_t s = sel.at(l), w = wid.at(l);
      if (s == kInv || w == kInv || !ar_.constant(s, &sv) ||
          !ar_.constant(w, &wv))
        throw Abort{callee + " with a symbolic selector or width"};
      if (!lanes_.valid_shfl_width(wv.as_i())) exec::Lanes::shfl_width_fail();
      const int li = static_cast<int>(l);
      const int lane = li % lanes_.warp_size();
      const exec::ShflRead r =
          lanes_.shfl_read(static_cast<Builtin>(ins.aux), li - lane, lane,
                           sv.as_i(), wv.as_i());
      out[l] = var.at(static_cast<std::size_t>(r.src));
      if (out[l] == kInv)
        throw Abort{hazard::shfl_uninit_source(
            callee,
            ins.imm >= 0 ? &text(static_cast<std::int32_t>(ins.imm))
                         : nullptr,
            r.src % lanes_.warp_size())};
    });
  }

  // ---------------- memory ----------------
  /// The hazard steps of a tracked cell (sim/hazards.hpp). A cross-block
  /// or same-access conflict aborts; a cross-warp race is lockstep-ordered
  /// and only noted, the first 64 of them.
  [[nodiscard]] hazard::Access access_of(int lane, bool is_global) const {
    return {lane, lanes_.warp_of(lane), epoch_, seq_, is_global ? blk_ : -1};
  }
  void note_race(hazard::Rule r, const std::string& name, std::size_t i) {
    if (races_.size() < 64)
      races_.push_back(hazard::text(r, name, static_cast<std::int64_t>(i)));
  }

  void note_write(hazard::Cell& meta, IdVec& cells, std::size_t i, int lane,
                  std::uint32_t vid, bool is_global, const std::string& name) {
    if (divergent()) {
      // Guarded store: fold the branch predicates into the stored value
      // (select(pred, new, old)). Globals are not snapshot-merged, so
      // the wrapped value is immediately final; shared cells would need
      // a cross-lane merge and stay banned.
      if (!is_global)
        throw Abort{"store to shared '" + name +
                    "' under a symbolically divergent branch"};
      std::uint32_t old = cells[i];
      if (old == kInv)
        throw Abort{"guarded store to uninitialized '" + name + "[" +
                    std::to_string(i) + "]'"};
      // The arm's predicate at each symbolic level, innermost first
      // (kInv: the lane is unconditional at that level).
      auto li = static_cast<std::size_t>(lane);
      for (std::size_t k = open_; k-- > 0;) {
        const Split& s = splits_[k];
        if (!s.symbolic) continue;
        const std::uint32_t p = (s.in_else ? s.else_pred : s.cond)[li];
        if (p != kInv) vid = ar_.select(p, vid, old);
      }
    }
    const hazard::Write hit =
        hazard::on_write(meta, access_of(lane, is_global), cells[i] != vid);
    if (hit.rule == hazard::Rule::kCrossBlockWrite ||
        hit.rule == hazard::Rule::kSameAccessWrite)
      throw Abort{hazard::text(hit.rule, name, static_cast<std::int64_t>(i),
                               lane, hit.other_lane)};
    if (hit.rule == hazard::Rule::kWriteWrite) note_race(hit.rule, name, i);
    if (hit.after_read) note_race(hazard::Rule::kReadWrite, name, i);
    cells[i] = vid;
  }

  /// Inlined: a gather calls it once per cell of every lane.
  [[gnu::always_inline]]
  std::uint32_t note_read(hazard::Cell& meta, const IdVec& cells,
                          std::size_t i, int lane, bool is_global,
                          const std::string& name) {
    const hazard::Rule hit = hazard::on_read(meta, access_of(lane, is_global));
    if (hit == hazard::Rule::kWriteRead)
      note_race(hit, name, i);
    else if (hit == hazard::Rule::kCrossBlockRead ||
             (hit != hazard::Rule::kNone && !regions_.in_shfl_arg()))  // uninit
      throw Abort{hazard::text(hit, name, static_cast<std::int64_t>(i))};
    return cells[i];
  }

  /// One dimension of an array index: bounds-checked while the index is
  /// concrete, a node once any dimension is symbolic.
  void flatten(const Instr& ins) {
    const Ids idx = src(ins.a);
    std::uint32_t* state = reg(ins.dst);
    std::int64_t* flat = flat_.data() + reg_base(ins.dst);
    const std::int64_t dim = ins.imm;
    each_lane([&](std::size_t l) {
      if (ins.aux) {  // the first dimension
        state[l] = kConcreteFlat;
        flat[l] = 0;
      }
      Value iv;
      const std::uint32_t id = idx.at(l);
      if (state[l] == kInv || id == kInv) {
        state[l] = kInv;  // shfl-broadened lane with no value; skip quietly
      } else if (state[l] == kConcreteFlat && ar_.constant(id, &iv)) {
        if (iv.as_i() < 0 || iv.as_i() >= dim)
          throw Abort{hazard::text(hazard::Rule::kIndexOutOfBounds,
                                   text(ins.name), iv.as_i(), dim),
                      true};
        flat[l] = flat[l] * dim + iv.as_i();
      } else {
        const std::uint32_t sym =
            state[l] == kConcreteFlat ? ar_.cint(flat[l]) : state[l];
        const std::uint32_t extent = ar_.cint(dim);
        state[l] =
            ar_.bin(BinOp::kAdd, ar_.bin(BinOp::kMul, sym, extent), id);
      }
    });
  }

  /// Loads and stores: of a global buffer at the index in operand a, or
  /// of an array at the index kFlatten left in register a. Global and
  /// shared cells track races; a per-thread array holds a copy per lane.
  void access(const Instr& ins, bool buffer, bool store) {
    const std::string& name = text(ins.name);
    // A pointer parameter's slot is its argument index.
    Var& v = buffer ? globals_[static_cast<std::size_t>(ins.slot)]
                    : slot_of(ins);
    IdVec& cells = v.cells;
    const ScalarType type = v.type.scalar;
    const bool tracked = buffer || v.block_scoped;
    const auto elems = static_cast<std::int64_t>(
        buffer ? cells.size() : v.type.element_count());
    ++seq_;
    const Ids idx = src(ins.a);
    const std::int64_t* flat =
        buffer ? nullptr : flat_.data() + reg_base(ins.a.id);
    const Ids val = store ? src(ins.b) : Ids{};
    std::uint32_t* out = store ? nullptr : reg(ins.dst);
    each_lane([&](std::size_t li) {
      const int l = static_cast<int>(li);
      const std::uint32_t id = idx.at(li);
      if (!store) out[li] = kInv;
      if (id == kInv) return;  // shfl-broadened lane, unused
      Value iv;
      const bool concrete =
          buffer ? ar_.constant(id, &iv) : id == kConcreteFlat;
      const std::int64_t i = buffer ? iv.as_i() : flat[li];
      if (buffer && concrete && (i < 0 || i >= elems))
        throw Abort{hazard::text(hazard::Rule::kOutOfBounds, name, i, elems),
                    true};
      const std::size_t cell0 =
          tracked ? 0 : li * static_cast<std::size_t>(elems);
      if (concrete) {
        const auto ci = cell0 + static_cast<std::size_t>(i);
        if (store) {
          std::uint32_t vid = coerce_id(val.at(li), type);
          if (tracked) {
            note_write(v.meta[ci], cells, ci, l, vid, buffer, name);
          } else {
            cells[ci] = vid;  // per-lane storage: divergence-safe
          }
        } else if (tracked) {
          out[li] = note_read(v.meta[ci], cells, ci, l, buffer, name);
        } else {
          if (cells[ci] == kInv && !regions_.in_shfl_arg())
            throw Abort{hazard::text(hazard::Rule::kUninitArray, name, i)};
          out[li] = cells[ci];
        }
        return;
      }
      if (store) throw Abort{"store to '" + name + "' at a symbolic index"};
      if (elems > opt_.max_gather_cells)
        throw Abort{(tracked ? "load from '" + name + "' at a symbolic index"
                             : std::string("symbolic-index load")) +
                    " over " + std::to_string(elems) +
                    " cells exceeds the gather limit"};
      snap_.resize(static_cast<std::size_t>(elems));
      for (std::size_t e = 0; e < snap_.size(); ++e) {
        const std::size_t c = cell0 + e;
        snap_[e] = tracked ? note_read(v.meta[c], cells, c, l, buffer, name)
                           : cells[c];
        if (snap_[e] == kInv)
          throw Abort{"load from '" + name +
                      "' at a symbolic index over uninitialized cells"};
      }
      out[li] = ar_.gather(id, snap_, type);
    });
  }

  // ---------------- control flow ----------------
  /// kIfSplit's split of m into tm and em: lanes whose condition is
  /// symbolic run both arms. Side effects that could leak across lanes
  /// (shared stores, barriers, shfl, return) abort in either arm of a
  /// symbolic split; global stores fold the branch predicates in.
  void split(const Instr& ins, const Mask& m, Mask& tm, Mask& em) {
    const Ids c = src(ins.a);
    if (open_ == splits_.size()) splits_.emplace_back();
    Split& s = splits_[open_++];
    s.symbolic = s.in_else = false;
    clear(s.tm);
    clear(s.sm);
    clear(em);
    lanes_.for_each_lane(m, [&](std::size_t l) {
      Value cv;
      if (c.at(l) == kInv) throw Abort{"branch on an uninitialized value"};
      if (!ar_.constant(c.at(l), &cv))
        lanes_.set_lane(s.sm, l);
      else
        lanes_.set_lane(cv.truthy() ? s.tm : em, l);
    });
    tm = s.tm;
    if (!any(s.sm)) return;
    s.symbolic = true;
    ++symbolic_open_;
    s.frame = frame_;
    splat(s.cond, kInv);
    splat(s.else_pred, kInv);
    lanes_.for_each_lane(s.sm, [&](std::size_t l) {
      s.cond[l] = c.at(l);
      s.else_pred[l] = ar_.un(UnOp::kLNot, c.at(l));
    });
    exec::add_lanes(tm, s.sm);
    exec::add_lanes(em, s.sm);
  }

  /// kIfElse's hook: a symbolic split's else arm runs on the frame the
  /// split began with.
  void else_arm() {
    Split& s = splits_[open_ - 1];
    if (!s.symbolic) return;
    std::swap(frame_, s.frame);
    s.in_else = true;
  }

  /// The end of an if: a symbolic split merges its arms' frames.
  void end_if() {
    Split& s = splits_[--open_];
    if (!s.symbolic) return;
    --symbolic_open_;
    if (!s.in_else) std::swap(frame_, s.frame);
    merge_frames(s.frame, s.cond, s.tm, s.sm);
  }

  /// Merges the then-branch's frame into the else-branch's, slot by slot.
  void merge_frames(std::vector<Var>& then_frame, const IdVec& cond,
                    const Mask& tm, const Mask& sm) {
    auto merge_id = [&](std::size_t lane, std::uint32_t tv,
                        std::uint32_t ev) -> std::uint32_t {
      if (lanes_.lane_on(tm, lane)) return tv;
      if (!lanes_.lane_on(sm, lane)) return ev;
      if (tv == ev) return tv;
      if (tv == kInv || ev == kInv) return kInv;
      return ar_.select(cond[lane], tv, ev);
    };
    // A slot declared inside either branch is out of scope after the if
    // and is never read before its declaration runs again, so how it
    // merges does not matter.
    for (std::size_t slot = 0; slot < frame_.size(); ++slot) {
      Var& ev = frame_[slot];
      if (ev.block_scoped) continue;  // stores were banned
      auto merge = [&](IdVec& e, const IdVec& t, std::size_t elems) {
        if (t.size() == e.size())
          for (std::size_t i = 0; i < e.size(); ++i)
            e[i] = merge_id(i / elems, t[i], e[i]);
      };
      merge(ev.scalar, then_frame[slot].scalar, 1);
      if (!ev.cells.empty())
        merge(ev.cells, then_frame[slot].cells,
              static_cast<std::size_t>(ev.type.element_count()));
    }
  }

  /// Loop conditions must fold to constants per lane (trip counts are part
  /// of the proof obligation, not the symbolic environment).
  void prune(const Instr& ins) {
    const char* what = ins.aux ? "while condition" : "loop bound";
    const Ids c = src(ins.a);
    clear(taken_);
    each_lane([&](std::size_t l) {
      const std::uint32_t id = c.at(l);
      if (id == kInv)
        throw Abort{std::string(what) + " reads an uninitialized value"};
      Value cv;
      if (!ar_.constant(id, &cv))
        throw Abort{std::string("symbolic ") + what +
                    " (data-dependent trip count)"};
      if (cv.truthy()) lanes_.set_lane(taken_, l);
    });
    std::swap(cur(), taken_);  // taken_ keeps the old mask's storage
  }

  // ---------------- state ----------------
  const DeviceSpec& spec_;
  const ir::Kernel& kernel_;
  std::shared_ptr<const BoundKernel> bound_;
  std::shared_ptr<const bytecode::Program> prog_;
  Dim3 grid_, block_;
  const std::vector<SymArg>& args_;
  SymArena& ar_;
  SymExecOptions opt_;
  exec::Lanes lanes_;
  std::vector<Var> globals_;
  std::vector<std::string> races_;
  std::int64_t steps_ = 0;

  /// Registers, lane-major like the VM's: node ids, and the concrete
  /// index of a kFlatten register's kConcreteFlat lanes.
  IdVec regs_;
  std::vector<std::int64_t> flat_;
  /// access(): the cells a load at a symbolic index reads.
  IdVec snap_;
  /// The region stack, and the open ifs: splits_[0, open_), innermost
  /// last, symbolic_open_ of them symbolic. Entries from open_ on keep
  /// their storage for the next if.
  exec::Regions regions_;
  std::vector<Split> splits_;
  std::size_t open_ = 0;
  std::size_t symbolic_open_ = 0;
  /// prune(): the next loop mask.
  Mask taken_;

  /// Variables by binder slot; geometry lane vectors by Geom code.
  std::vector<Var> frame_;
  std::array<IdVec, kGeomCount> geom_;
  std::int64_t epoch_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t blk_ = 0;
};

}  // namespace

SymExecResult sym_execute(const DeviceSpec& spec, const ir::Kernel& kernel,
                          Dim3 grid, Dim3 block,
                          const std::vector<SymArg>& args, SymArena& arena,
                          const SymExecOptions& opt) {
  return Exec(spec, kernel, grid, block, args, arena, opt).run();
}

// ---------------------------------------------------------------------------
// SymEvaluator
// ---------------------------------------------------------------------------

bool SymEvaluator::eval(std::uint32_t root, Value* out) {
  if (root == SymArena::kInvalid) return false;
  // Post-order on an explicit stack: DAG depth costs no host stack. A
  // node is computed once every operand it reads is memoized; a gather
  // reads its index, then only the cell that index selects.
  struct Frame {
    std::uint32_t id;
    std::uint32_t next;  // operands [0, next) are memoized
  };
  std::vector<Frame> stack{{root, 0}};
  auto value = [&](std::uint32_t id) { return memo_.find(id)->second; };
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (memo_.contains(f.id)) {
      stack.pop_back();
      continue;
    }
    const SymNode& n = arena_.node(f.id);
    const auto ks = arena_.kids(f.id);
    std::uint32_t need = SymArena::kInvalid;
    std::size_t cell = 0;
    if (n.kind == SymKind::kGather) {
      if (!memo_.contains(ks[0])) {
        need = ks[0];
      } else {
        const std::int64_t i = value(ks[0]).as_i();
        if (i < 0 || i >= static_cast<std::int64_t>(ks.size()) - 1)
          return false;
        cell = static_cast<std::size_t>(1 + i);
        if (!memo_.contains(ks[cell])) need = ks[cell];
      }
    } else {
      while (f.next < ks.size() && memo_.contains(ks[f.next])) ++f.next;
      if (f.next < ks.size()) need = ks[f.next];
    }
    if (need != SymArena::kInvalid) {
      stack.push_back(Frame{need, 0});
      continue;
    }
    Value r;
    try {
      switch (n.kind) {
        case SymKind::kConstInt: r = Value::of_int(n.ival); break;
        case SymKind::kConstFloat: r = Value::of_float(n.fval); break;
        case SymKind::kInput:
          if (n.type != ir::ScalarType::kFloat) return false;  // never built
          r = Value::of_float(sym_float_input(seed_, n.param, n.ival));
          break;
        case SymKind::kBin:
          r = eval_bin_value(static_cast<ir::BinOp>(n.op), value(ks[0]),
                             value(ks[1]));
          break;
        case SymKind::kUnary:
          r = eval_un_value(static_cast<ir::UnOp>(n.op), value(ks[0]));
          break;
        case SymKind::kCall: {
          std::array<Value, 2> xs{};
          for (std::size_t i = 0; i < ks.size(); ++i) xs[i] = value(ks[i]);
          r = eval_call_value(static_cast<SymFn>(n.op), xs);
          break;
        }
        case SymKind::kCast:
          r = coerce_value(value(ks[0]), static_cast<ir::ScalarType>(n.op));
          break;
        case SymKind::kSelect:
          r = value(ks[0]).truthy() ? value(ks[1]) : value(ks[2]);
          break;
        case SymKind::kGather: r = value(ks[cell]); break;
        case SymKind::kNary: {
          r = value(ks[0]);
          for (std::size_t i = 1; i < ks.size(); ++i)
            r = combine_nary(static_cast<SymNaryOp>(n.op), r, value(ks[i]));
          break;
        }
      }
    } catch (const SymFault&) {
      return false;
    }
    memo_.emplace(f.id, r);
    stack.pop_back();
  }
  *out = value(root);
  return true;
}

}  // namespace cudanp::sim
