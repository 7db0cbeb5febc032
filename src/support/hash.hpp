// 64-bit FNV-1a, the one string hash behind content-addressed artifact
// keys (np::NpCompiler::artifact_key), artifact-cache checksums and
// journal fingerprints. Its values are stored on disk and compared
// across runs, so they must never change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace cudanp {

/// `v` as 16 lowercase hex digits.
[[nodiscard]] inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class Fnv1a {
 public:
  /// Mixes the bytes of `s`.
  Fnv1a& bytes(std::string_view s) {
    for (char c : s) mix(static_cast<std::uint8_t>(c));
    return *this;
  }
  /// Mixes `s` and a field separator, so "ab" + "c" hashes differently
  /// from "a" + "bc".
  Fnv1a& field(std::string_view s) {
    bytes(s);
    mix(0x1f);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const { return hex16(h_); }

 private:
  void mix(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace cudanp
