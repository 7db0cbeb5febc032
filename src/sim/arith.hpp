// Scalar semantics of the kernel language, defined once for every
// evaluator: the VM's typed lane loops (sim/exec_core.hpp) and the
// symbolic executor's constant folding over tagged values
// (sim/symexec.cpp). That covers the
// operators and the math builtins (kMathTable, binary_math).
//
// A lane holds either an int64 (int and bool variables) or a double that
// always carries an f32 value (float variables); sim::Value is the tagged
// form of the same two payloads. Binary operators follow C's usual
// arithmetic conversions: float if either side is float, and every float
// result rounds through f32. Integer + - * and negation wrap (two's
// complement). Operations with no defined result -- division or modulo by
// zero, INT64_MIN / -1, INT64_MIN % -1, % on floats, shift counts outside
// [0, 63] -- call the caller's `fail(message)` handler, which must throw,
// so no kernel can reach host undefined behaviour through them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>

#include "ir/expr.hpp"
#include "sim/binder.hpp"
#include "sim/hazards.hpp"
#include "sim/value.hpp"

namespace cudanp::sim::arith {

using Int = std::int64_t;

/// True for the two typed lane element types.
template <class T>
inline constexpr bool kTyped =
    std::is_same_v<T, Int> || std::is_same_v<T, double>;
/// True for the float lane element type.
template <class T>
inline constexpr bool kIsFloat = std::is_same_v<T, double>;

[[nodiscard]] inline double f32(double x) {
  return static_cast<double>(static_cast<float>(x));
}

[[nodiscard]] inline double as_f(Int x) { return static_cast<double>(x); }
[[nodiscard]] inline double as_f(double x) { return x; }
[[nodiscard]] inline double as_f(Value v) { return v.as_f(); }
[[nodiscard]] inline Int as_i(Int x) { return x; }
[[nodiscard]] inline Int as_i(double x) { return static_cast<Int>(x); }
[[nodiscard]] inline Int as_i(Value v) { return v.as_i(); }
[[nodiscard]] inline bool truthy(Int x) { return x != 0; }
[[nodiscard]] inline bool truthy(double x) { return x != 0.0; }
[[nodiscard]] inline bool truthy(Value v) { return v.truthy(); }

[[nodiscard]] inline Value box(Int x) { return Value::of_int(x); }
[[nodiscard]] inline Value box(double x) { return Value::of_float(x); }
[[nodiscard]] inline Value box(Value v) { return v; }

/// Converts a lane value to storage type T: f32 rounding for float,
/// truncation for int (C's assignment conversion).
template <class T, class X>
[[nodiscard]] inline T to(X x) {
  if constexpr (kIsFloat<T>)
    return f32(as_f(x));
  else
    return as_i(x);
}

/// C's conversion to bool: 1 for every nonzero value, 0.25f and NaN too.
template <class X>
[[nodiscard]] inline Int to_bool(X x) { return truthy(x) ? 1 : 0; }

/// C's common type of two lane types.
template <class A, class B>
using common_t = std::conditional_t<kIsFloat<A> || kIsFloat<B>, double, Int>;

/// Calls `fn` on the typed payloads of its arguments. Typed arguments pass
/// straight through; tagged Values are unpacked by tag and the result is
/// re-tagged, so one typed body serves both lane representations.
template <class Fn, class X>
[[nodiscard]] inline auto visit(Fn&& fn, X x) {
  if constexpr (kTyped<X>)
    return fn(x);
  else
    return x.is_float() ? box(fn(x.f)) : box(fn(x.i));
}
template <class Fn, class X, class Y>
[[nodiscard]] inline auto visit(Fn&& fn, X x, Y y) {
  if constexpr (kTyped<X> && kTyped<Y>) {
    return fn(x, y);
  } else {
    static_assert(std::is_same_v<X, Value> && std::is_same_v<Y, Value>);
    if (x.is_float())
      return y.is_float() ? box(fn(x.f, y.f)) : box(fn(x.f, y.i));
    return y.is_float() ? box(fn(x.i, y.f)) : box(fn(x.i, y.i));
  }
}

[[nodiscard]] inline Int wrap_add(Int a, Int b) {
  return static_cast<Int>(static_cast<std::uint64_t>(a) +
                          static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline Int wrap_sub(Int a, Int b) {
  return static_cast<Int>(static_cast<std::uint64_t>(a) -
                          static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline Int wrap_mul(Int a, Int b) {
  return static_cast<Int>(static_cast<std::uint64_t>(a) *
                          static_cast<std::uint64_t>(b));
}

/// Whether a binary operator on operands of the given float-ness yields a
/// float. Lowering types registers with it; binop's return type obeys it.
[[nodiscard]] constexpr bool binop_yields_float(ir::BinOp op, bool a_float,
                                                bool b_float) {
  switch (op) {
    case ir::BinOp::kAdd:
    case ir::BinOp::kSub:
    case ir::BinOp::kMul:
    case ir::BinOp::kDiv:
      return a_float || b_float;
    default:
      return false;
  }
}

/// One binary operator on typed operands, op fixed at compile time so a
/// lane loop inlines a single case.
template <ir::BinOp kOp, class A, class B, class Fail>
  requires(kTyped<A> && kTyped<B>)
[[nodiscard]] inline auto binop(A a, B b, Fail&& fail) {
  using ir::BinOp;
  constexpr bool fl = kIsFloat<A> || kIsFloat<B>;
  if constexpr (kOp == BinOp::kLAnd) {
    return Int{truthy(a) && truthy(b)};
  } else if constexpr (kOp == BinOp::kLOr) {
    return Int{truthy(a) || truthy(b)};
  } else if constexpr (kOp == BinOp::kBitAnd) {
    return Int{as_i(a) & as_i(b)};
  } else if constexpr (kOp == BinOp::kBitOr) {
    return Int{as_i(a) | as_i(b)};
  } else if constexpr (kOp == BinOp::kBitXor) {
    return Int{as_i(a) ^ as_i(b)};
  } else if constexpr (kOp == BinOp::kShl || kOp == BinOp::kShr) {
    const Int s = as_i(b);
    if (s < 0 || s > 63) fail("shift count out of range [0, 63]");
    const Int x = as_i(a);
    if constexpr (kOp == BinOp::kShl)
      return static_cast<Int>(static_cast<std::uint64_t>(x) << s);
    else
      return Int{x >> s};
  } else if constexpr (kOp == BinOp::kAdd) {
    if constexpr (fl)
      return f32(as_f(a) + as_f(b));
    else
      return wrap_add(a, b);
  } else if constexpr (kOp == BinOp::kSub) {
    if constexpr (fl)
      return f32(as_f(a) - as_f(b));
    else
      return wrap_sub(a, b);
  } else if constexpr (kOp == BinOp::kMul) {
    if constexpr (fl)
      return f32(as_f(a) * as_f(b));
    else
      return wrap_mul(a, b);
  } else if constexpr (kOp == BinOp::kDiv) {
    if constexpr (fl) {
      return f32(as_f(a) / as_f(b));
    } else {
      if (b == 0) fail(hazard::kDivisionByZero);
      if (b == -1 && a == std::numeric_limits<Int>::min())
        fail("integer division overflow (INT64_MIN / -1)");
      return Int{a / b};
    }
  } else if constexpr (kOp == BinOp::kMod) {
    if constexpr (fl) {
      fail("operator % requires integers");
      return Int{0};
    } else {
      if (b == 0) fail(hazard::kModuloByZero);
      if (b == -1 && a == std::numeric_limits<Int>::min())
        fail("modulo overflow (INT64_MIN % -1)");
      return Int{a % b};
    }
  } else {
    // Comparisons: float compare if either side is float.
    auto cmp = [](auto x, auto y) {
      if constexpr (kOp == BinOp::kLt) return x < y;
      else if constexpr (kOp == BinOp::kLe) return x <= y;
      else if constexpr (kOp == BinOp::kGt) return x > y;
      else if constexpr (kOp == BinOp::kGe) return x >= y;
      else if constexpr (kOp == BinOp::kEq) return x == y;
      else {
        static_assert(kOp == BinOp::kNe, "unhandled binop");
        return x != y;
      }
    };
    if constexpr (fl)
      return Int{cmp(as_f(a), as_f(b))};
    else
      return Int{cmp(a, b)};
  }
}

/// Calls `fn.template operator()<kOp>()` with the runtime operator `op` as
/// the compile-time constant kOp: the one place the operator list is
/// spelled out. An op outside the enum calls `fail`, which must throw.
template <class Fn, class Fail>
inline decltype(auto) with_op(ir::BinOp op, Fn&& fn, Fail&& fail) {
  using ir::BinOp;
  switch (op) {
    case BinOp::kAdd: return fn.template operator()<BinOp::kAdd>();
    case BinOp::kSub: return fn.template operator()<BinOp::kSub>();
    case BinOp::kMul: return fn.template operator()<BinOp::kMul>();
    case BinOp::kDiv: return fn.template operator()<BinOp::kDiv>();
    case BinOp::kMod: return fn.template operator()<BinOp::kMod>();
    case BinOp::kLt: return fn.template operator()<BinOp::kLt>();
    case BinOp::kLe: return fn.template operator()<BinOp::kLe>();
    case BinOp::kGt: return fn.template operator()<BinOp::kGt>();
    case BinOp::kGe: return fn.template operator()<BinOp::kGe>();
    case BinOp::kEq: return fn.template operator()<BinOp::kEq>();
    case BinOp::kNe: return fn.template operator()<BinOp::kNe>();
    case BinOp::kLAnd: return fn.template operator()<BinOp::kLAnd>();
    case BinOp::kLOr: return fn.template operator()<BinOp::kLOr>();
    case BinOp::kBitAnd: return fn.template operator()<BinOp::kBitAnd>();
    case BinOp::kBitOr: return fn.template operator()<BinOp::kBitOr>();
    case BinOp::kBitXor: return fn.template operator()<BinOp::kBitXor>();
    case BinOp::kShl: return fn.template operator()<BinOp::kShl>();
    case BinOp::kShr: return fn.template operator()<BinOp::kShr>();
  }
  fail("unreachable binop");
  __builtin_unreachable();
}

/// Runtime-op entry on tagged values (constant folding).
template <class Fail>
[[nodiscard]] inline Value binop(ir::BinOp op, Value a, Value b, Fail&& fail) {
  return with_op(
      op,
      [&]<ir::BinOp kOp>() {
        return visit([&](auto x, auto y) { return binop<kOp>(x, y, fail); },
                     a, b);
      },
      fail);
}

template <class T>
  requires kTyped<T>
[[nodiscard]] inline T neg(T x) {
  if constexpr (kIsFloat<T>)
    return -x;
  else
    return wrap_sub(0, x);
}

template <class T>
  requires kTyped<T>
[[nodiscard]] inline Int lnot(T x) {
  return truthy(x) ? 0 : 1;
}

template <class T>
  requires kTyped<T>
[[nodiscard]] inline T abs(T x) {
  if constexpr (kIsFloat<T>)
    return std::fabs(x);
  else
    return x < 0 ? neg(x) : x;
}

/// min / max: float (f32-rounded) if either side is float.
template <bool kMax, class A, class B>
  requires(kTyped<A> && kTyped<B>)
[[nodiscard]] inline common_t<A, B> minmax(A a, B b) {
  if constexpr (kIsFloat<A> || kIsFloat<B>)
    return f32(kMax ? std::max(as_f(a), as_f(b)) : std::min(as_f(a), as_f(b)));
  else
    return kMax ? std::max(a, b) : std::min(a, b);
}

/// The unary math builtins sqrtf .. rsqrtf: the double function a lane
/// applies before its f32 rounding, and whether it issues on the SFU
/// (timing weight fdiv_sqrt_transcendental instead of alu).
struct MathFn1 {
  double (*fn)(double);
  bool sfu;
};
inline constexpr MathFn1 kMathTable[] = {
    {[](double x) { return std::sqrt(x); }, true},        // kSqrt
    {[](double x) { return std::fabs(x); }, false},       // kFabs
    {[](double x) { return std::exp(x); }, true},         // kExp
    {[](double x) { return std::log(x); }, true},         // kLog
    {[](double x) { return std::sin(x); }, true},         // kSin
    {[](double x) { return std::cos(x); }, true},         // kCos
    {[](double x) { return std::floor(x); }, false},      // kFloor
    {[](double x) { return 1.0 / std::sqrt(x); }, true},  // kRsqrt
};
static_assert(std::size(kMathTable) ==
              1 + static_cast<int>(Builtin::kRsqrt) -
                  static_cast<int>(Builtin::kSqrt));

[[nodiscard]] constexpr bool is_unary_math(Builtin b) {
  return b >= Builtin::kSqrt && b <= Builtin::kRsqrt;
}
/// The kMathTable entry of a unary math builtin.
[[nodiscard]] inline const MathFn1& unary_math(Builtin b) {
  return kMathTable[static_cast<std::size_t>(b) -
                    static_cast<std::size_t>(Builtin::kSqrt)];
}

/// The two-argument math builtins on typed operands. min / max keep int
/// when both sides are int; fminf / fmaxf / powf always yield float.
template <Builtin kFn, class A, class B>
  requires(kTyped<A> && kTyped<B>)
[[nodiscard]] inline auto binary_math(A a, B b) {
  if constexpr (kFn == Builtin::kMin)
    return minmax<false>(a, b);
  else if constexpr (kFn == Builtin::kMax)
    return minmax<true>(a, b);
  else if constexpr (kFn == Builtin::kFminf)
    return f32(std::min(as_f(a), as_f(b)));
  else if constexpr (kFn == Builtin::kFmaxf)
    return f32(std::max(as_f(a), as_f(b)));
  else {
    static_assert(kFn == Builtin::kPowf, "not a two-argument builtin");
    return f32(std::pow(as_f(a), as_f(b)));
  }
}

/// Calls `fn.template operator()<kFn>()` with the runtime two-argument
/// builtin `b` as the compile-time constant kFn (any other builtin
/// dispatches as kPowf, so callers check first).
template <class Fn>
inline decltype(auto) with_binary_math(Builtin b, Fn&& fn) {
  switch (b) {
    case Builtin::kMin: return fn.template operator()<Builtin::kMin>();
    case Builtin::kMax: return fn.template operator()<Builtin::kMax>();
    case Builtin::kFminf: return fn.template operator()<Builtin::kFminf>();
    case Builtin::kFmaxf: return fn.template operator()<Builtin::kFmaxf>();
    default: return fn.template operator()<Builtin::kPowf>();
  }
}

/// The ternary's value: the chosen arm converted to the arms' common type.
template <class A, class B>
  requires(kTyped<A> && kTyped<B>)
[[nodiscard]] inline common_t<A, B> select(bool c, A a, B b) {
  using R = common_t<A, B>;
  return c ? to<R>(a) : to<R>(b);
}

}  // namespace cudanp::sim::arith
