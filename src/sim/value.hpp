// Tagged runtime value: kernel arguments, bytecode immediates and the
// certifier's constants. The VM keeps the same two payloads
// in statically typed lane arrays (sim/arith.hpp).
//
// Integers are kept exact (int64), floats are stored as double but every
// assignment to a float-typed variable or float buffer rounds through
// float precision, so simulated kernels produce the same answers a real
// 32-bit-float GPU would (modulo reassociation, which the CPU references
// tolerate).
#pragma once

#include <cmath>
#include <cstdint>

namespace cudanp::sim {

struct Value {
  enum class Tag : std::uint8_t { kInt, kFloat };
  Tag tag = Tag::kInt;
  union {
    std::int64_t i;
    double f;
  };

  constexpr Value() : i(0) {}

  [[nodiscard]] static constexpr Value of_int(std::int64_t v) {
    Value x;
    x.tag = Tag::kInt;
    x.i = v;
    return x;
  }
  [[nodiscard]] static constexpr Value of_float(double v) {
    Value x;
    x.tag = Tag::kFloat;
    x.f = v;
    return x;
  }

  [[nodiscard]] constexpr bool is_float() const { return tag == Tag::kFloat; }

  [[nodiscard]] constexpr double as_f() const {
    return is_float() ? f : static_cast<double>(i);
  }
  [[nodiscard]] constexpr std::int64_t as_i() const {
    return is_float() ? static_cast<std::int64_t>(f) : i;
  }
  [[nodiscard]] constexpr bool truthy() const {
    return is_float() ? (f != 0.0) : (i != 0);
  }
  /// Rounds through 32-bit float precision (used on float stores).
  [[nodiscard]] Value to_f32() const {
    return of_float(static_cast<double>(static_cast<float>(as_f())));
  }
};

}  // namespace cudanp::sim
