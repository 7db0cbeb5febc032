#include "support/string_utils.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cudanp {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_'))
    return false;
  for (char c : s.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  }
  return true;
}

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

std::string replace_all(std::string s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return s;
  std::size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

std::optional<std::int64_t> parse_i64(std::string_view s, std::int64_t min,
                                      std::int64_t max) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  bool negative = false;
  if (s[0] == '+' || s[0] == '-') {
    negative = s[0] == '-';
    s.remove_prefix(1);
    if (s.empty()) return std::nullopt;
  }
  // Accumulate negatively so INT64_MIN parses without overflow.
  std::int64_t v = 0;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    int digit = c - '0';
    if (v < (kMin + digit) / 10) return std::nullopt;
    v = v * 10 - digit;
  }
  if (!negative) {
    if (v == kMin) return std::nullopt;
    v = -v;
  }
  if (v < min || v > max) return std::nullopt;
  return v;
}

std::optional<int> parse_int(std::string_view s, int min, int max) {
  auto v = parse_i64(s, min, max);
  if (!v) return std::nullopt;
  return static_cast<int>(*v);
}

std::optional<double> parse_f64(std::string_view s) {
  const std::string text(trim(s));
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v))
    return std::nullopt;
  return v;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace cudanp
