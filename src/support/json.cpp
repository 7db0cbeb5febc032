#include "support/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cudanp::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<std::string> unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= s.size()) return std::nullopt;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 >= s.size()) return std::nullopt;
        int code = 0;
        for (int k = 1; k <= 4; ++k) {
          int d = hex_digit(s[i + static_cast<std::size_t>(k)]);
          if (d < 0) return std::nullopt;
          code = code * 16 + d;
        }
        i += 4;
        // Our emitters only produce \u00xx (control bytes); encode
        // larger code points as UTF-8 so round-trips stay lossless.
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return out;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

std::int64_t Value::get_i64(std::string_view key, std::int64_t def) const {
  const Value* v = find(key);
  return v ? v->as_i64(def) : def;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(std::int64_t i) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.i64_ = i;
  v.num_ = static_cast<double>(i);
  return v;
}

Value Value::make_double(double d) {
  // Casting a double outside the int64_t range is undefined behaviour,
  // and "1e300" or "99999999999999999999" can arrive from any client:
  // the integer view saturates instead (NaN reads as 0).
  constexpr double kTwo63 = 9223372036854775808.0;
  Value v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  if (d >= kTwo63)
    v.i64_ = std::numeric_limits<std::int64_t>::max();
  else if (d < -kTwo63)
    v.i64_ = std::numeric_limits<std::int64_t>::min();
  else if (d == d)
    v.i64_ = static_cast<std::int64_t>(d);
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::move(a);
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::move(o);
  return v;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> run() {
    skip_ws();
    auto v = parse_value(/*depth=*/0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& msg) {
    if (error_ && error_->empty())
      *error_ = "json: " + msg + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (consume(c)) return true;
    fail(std::string("expected '") + c + "'");
    return false;
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return Value::make_string(std::move(*s));
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return Value::make_bool(true);
        }
        break;
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return Value::make_bool(false);
        }
        break;
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Value::make_null();
        }
        break;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        break;
    }
    fail("unexpected token");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool integral = true;
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
    }
    std::string tok(text_.substr(start, pos_ - start));
    if (tok.empty() || tok == "-") {
      fail("bad number");
      return std::nullopt;
    }
    errno = 0;
    if (integral) {
      char* end = nullptr;
      long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == ERANGE || end != tok.c_str() + tok.size()) {
        // Out-of-range integers fall back to the double view.
        double d = std::strtod(tok.c_str(), nullptr);
        return Value::make_double(d);
      }
      return Value::make_number(v);
    }
    char* end = nullptr;
    double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      fail("bad number");
      return std::nullopt;
    }
    return Value::make_double(d);
  }

  std::optional<std::string> parse_string() {
    if (!expect('"')) return std::nullopt;
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        auto body = text_.substr(start, pos_ - start);
        ++pos_;
        auto s = unescape(body);
        if (!s) {
          fail("bad string escape");
          return std::nullopt;
        }
        return s;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
      }
      ++pos_;
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_array(int depth) {
    if (!expect('[')) return std::nullopt;
    Array items;
    skip_ws();
    if (consume(']')) return Value::make_array(std::move(items));
    while (true) {
      skip_ws();
      auto v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return Value::make_array(std::move(items));
      if (!expect(',')) return std::nullopt;
    }
  }

  std::optional<Value> parse_object(int depth) {
    if (!expect('{')) return std::nullopt;
    Object members;
    skip_ws();
    if (consume('}')) return Value::make_object(std::move(members));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!expect(':')) return std::nullopt;
      skip_ws();
      auto v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*v));
      skip_ws();
      if (consume('}')) return Value::make_object(std::move(members));
      if (!expect(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

}  // namespace cudanp::json
