// Record codec: every JSON document the tree writes (what crosses the
// worker pipe, the daemon socket, the write-ahead journal or the
// artifact cache, the daemon's status documents, the cert-suite
// verdicts) declares its fields once, and its writer and reader both
// derive from that list.
//
// A record type inherits Codec<T> and lists its fields in key order:
//
//   struct Reply : record::Codec<Reply> {
//     std::string cause;
//     Verdict verdict = Verdict::kInconclusive;
//     static constexpr auto fields() {
//       return std::tuple{record::field("cause", &Reply::cause),
//                         record::field("verdict", &Reply::verdict,
//                                       kVerdictSlugs)};
//     }
//   };
//
// Field kinds: std::string, bool, the integer types, double (written
// at 17 significant digits), an enum through its Slug table, a nested
// record, and a std::vector of records or of strings. json() writes
// {"key":value,...} in list order with no whitespace and json::escape
// escaping. Journals fingerprint these bytes and cache entries store
// them, so they must never drift (tests/supervisor_test.cpp,
// Record.GoldenBytes).
//
// from_json() starts from a default-constructed T. A missing or
// wrong-kind scalar keeps the default. A missing or unknown enum slug,
// a nested record or array of the wrong kind, or a bad array element
// rejects the whole record (nullopt), as does text that is not a JSON
// object.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace cudanp::record {

/// One row of an enum's slug table. The table is the only place an
/// enum's slugs are spelled: its to_string and the record reader both
/// read it.
template <class E>
struct Slug {
  E value;
  const char* text;
};

template <class E, std::size_t N>
[[nodiscard]] constexpr const char* slug(const Slug<E> (&table)[N],
                                         E value) {
  for (const auto& s : table)
    if (s.value == value) return s.text;
  return "unknown";
}

/// Reverses slug(); nullopt on an unknown slug.
template <class E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> from_slug(
    const Slug<E> (&table)[N], std::string_view text) {
  for (const auto& s : table)
    if (text == s.text) return s.value;
  return std::nullopt;
}

/// The table as (slug, value) pairs, the shape FlagTable::choice takes.
template <class E, std::size_t N>
[[nodiscard]] std::vector<std::pair<std::string, E>> choices(
    const Slug<E> (&table)[N]) {
  std::vector<std::pair<std::string, E>> out;
  for (const auto& s : table) out.emplace_back(s.text, s.value);
  return out;
}

template <class T, class M>
struct Field {
  std::string_view key;
  M T::*member;
};

template <class T, class E, std::size_t N>
struct EnumField {
  std::string_view key;
  E T::*member;
  const Slug<E> (&slugs)[N];
};

template <class T, class M>
constexpr Field<T, M> field(std::string_view key, M T::*member) {
  return {key, member};
}
template <class T, class E, std::size_t N>
constexpr EnumField<T, E, N> field(std::string_view key, E T::*member,
                                const Slug<E> (&slugs)[N]) {
  return {key, member, slugs};
}

template <class T>
concept Record = requires { T::fields(); };

template <Record T>
[[nodiscard]] std::optional<T> read(const json::Value& v);

namespace detail {

template <class I>
concept Integer = std::integral<I> && !std::same_as<I, bool>;

inline void put(std::string& out, const std::string& s) {
  out += '"';
  out += json::escape(s);
  out += '"';
}
inline void put(std::string& out, bool b) { out += b ? "true" : "false"; }
inline void put(std::string& out, double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}
template <Integer I>
void put(std::string& out, I i) {
  out += std::to_string(i);
}
template <Record T>
void put(std::string& out, const T& rec);
template <class M>
void put(std::string& out, const std::vector<M>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    put(out, items[i]);
  }
  out += ']';
}

inline void put_key(std::string& out, std::string_view key, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
}
template <class T, class M>
void put_field(std::string& out, const T& rec, const Field<T, M>& f,
               bool* first) {
  put_key(out, f.key, first);
  put(out, rec.*f.member);
}
template <class T, class E, std::size_t N>
void put_field(std::string& out, const T& rec, const EnumField<T, E, N>& f,
               bool* first) {
  put_key(out, f.key, first);
  out += '"';
  out += slug(f.slugs, rec.*f.member);
  out += '"';
}

template <Record T>
void put(std::string& out, const T& rec) {
  out += '{';
  bool first = true;
  std::apply([&](const auto&... f) { (put_field(out, rec, f, &first), ...); },
             T::fields());
  out += '}';
}

// get() leaves `out` unchanged for a wrong-kind scalar and returns false
// only for a malformed nested record or array.
inline bool get(const json::Value& v, std::string& out) {
  if (v.is_string()) out = v.as_str();
  return true;
}
inline bool get(const json::Value& v, bool& out) {
  if (v.is_bool()) out = v.as_bool();
  return true;
}
inline bool get(const json::Value& v, double& out) {
  if (v.is_number()) out = v.as_double();
  return true;
}
template <Integer I>
bool get(const json::Value& v, I& out) {
  if (v.is_number()) out = static_cast<I>(v.as_i64());
  return true;
}
template <Record T>
bool get(const json::Value& v, T& out) {
  auto rec = read<T>(v);
  if (rec) out = std::move(*rec);
  return rec.has_value();
}
template <class M>
bool get(const json::Value& v, std::vector<M>& out) {
  if (!v.is_array()) return false;
  for (const json::Value& item : v.arr()) {
    if constexpr (std::same_as<M, std::string>) {
      if (!item.is_string()) return false;
      out.push_back(item.as_str());
    } else {
      auto rec = read<M>(item);
      if (!rec) return false;
      out.push_back(std::move(*rec));
    }
  }
  return true;
}

template <class T, class M>
bool get_field(const json::Value& v, T& rec, const Field<T, M>& f) {
  const json::Value* x = v.find(f.key);
  return !x || get(*x, rec.*f.member);
}
template <class T, class E, std::size_t N>
bool get_field(const json::Value& v, T& rec, const EnumField<T, E, N>& f) {
  const json::Value* x = v.find(f.key);
  auto e = x && x->is_string() ? from_slug(f.slugs, x->as_str())
                               : std::nullopt;
  if (e) rec.*f.member = *e;
  return e.has_value();
}

}  // namespace detail

/// Reads a record from an already-parsed value (nested in a larger
/// document, e.g. a journal line).
template <Record T>
std::optional<T> read(const json::Value& v) {
  if (!v.is_object()) return std::nullopt;
  T rec;
  bool ok = std::apply(
      [&](const auto&... f) { return (detail::get_field(v, rec, f) && ...); },
      T::fields());
  if (!ok) return std::nullopt;
  return rec;
}

/// Base of every record type: json() and from_json() derive from
/// T::fields(). The round trip is exact:
/// from_json(x.json())->json() == x.json().
template <class T>
struct Codec {
  [[nodiscard]] std::string json() const {
    std::string out;
    detail::put(out, static_cast<const T&>(*this));
    return out;
  }
  /// nullopt on malformed input (see the file comment).
  [[nodiscard]] static std::optional<T> from_json(std::string_view text) {
    auto v = cudanp::json::parse(text);
    if (!v) return std::nullopt;
    return read<T>(*v);
  }
};

}  // namespace cudanp::record
