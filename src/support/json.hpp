// Minimal JSON: the escape helper every emitter shares, and a small
// recursive-descent parser.
//
// Every document the program writes declares its fields once
// (support/record.hpp): the record codec writes them with escape() and
// reads them back through parse() and Value. The
// parser accepts standard JSON (objects, arrays, strings with the usual
// escapes, integers, doubles, bools, null); it is not a streaming
// parser and is sized for reports, not gigabyte documents.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cudanp::json {

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes, \n \t \r, and \u00xx for remaining control bytes.
/// Exactly the escaping every json() emitter in the repo uses.
[[nodiscard]] std::string escape(const std::string& s);

/// Reverses escape(): returns nullopt on a malformed escape sequence.
[[nodiscard]] std::optional<std::string> unescape(std::string_view s);

class Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/// One parsed JSON value. Numbers keep both an integer view (integer
/// fields; fractions truncate and out-of-range values saturate to the
/// int64_t range) and a double view (double fields such as
/// AttemptRequest::f32_rel_tol).
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Value() = default;
  [[nodiscard]] Kind kind() const { return kind_; }

  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; the default is returned on a kind mismatch so
  /// report parsers can be written as straight-line field reads.
  [[nodiscard]] bool as_bool(bool def = false) const {
    return is_bool() ? bool_ : def;
  }
  [[nodiscard]] std::int64_t as_i64(std::int64_t def = 0) const {
    return is_number() ? i64_ : def;
  }
  [[nodiscard]] double as_double(double def = 0.0) const {
    return is_number() ? num_ : def;
  }
  [[nodiscard]] const std::string& as_str() const { return str_; }

  [[nodiscard]] const Array& arr() const { return arr_; }
  [[nodiscard]] const Object& obj() const { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// An integer field read straight off an object (`def` when absent).
  [[nodiscard]] std::int64_t get_i64(std::string_view key,
                                     std::int64_t def = 0) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(std::int64_t i);
  static Value make_double(double d);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t i64_ = 0;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, when `error` is
/// non-null, a byte-offset diagnostic.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

}  // namespace cudanp::json
