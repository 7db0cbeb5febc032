// Declarative command-line flags, the one flag parser every tool uses.
//
// A tool builds one FlagTable whose rows bind a flag name, a help line
// and a value kind straight to the option-struct fields the flag
// configures (a row may bind several fields; each gets the same value).
// The table checks every value, reports a malformed one as
//   <tool>: bad value for --X: 'v' (expected ...)
// followed by the usage synopsis and exit status 1, and generates
// --help, showing each field's library-owned default.
//
// The same rows parse `key=value` fields (try_parse_fields), the shape
// of a --batch manifest line: the rows are then named without dashes.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/string_utils.hpp"

namespace cudanp {

class FlagTable {
 public:
  /// `tool` prefixes every message; `usage` (newline-terminated) is the
  /// synopsis printed after a usage error and at the top of --help.
  FlagTable(std::string tool, std::string usage);

  /// --name=<n>: a base-10 integer in [min, max].
  template <class T, class... More>
  FlagTable& integer(std::string name, std::string help, std::int64_t min,
                     std::int64_t max, T* dest, More*... more) {
    return add({std::move(name), Arg::kInline, "=<n>", std::move(help),
                "integer in [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]",
                std::to_string(*dest), [=](std::string_view v) {
                  auto x = parse_i64(v, min, max);
                  if (x) assign(*x, dest, more...);
                  return x.has_value();
                }});
  }

  /// --name=<f>: a finite number in (0, max].
  FlagTable& positive(std::string name, std::string help, double* dest,
                      double max = std::numeric_limits<double>::infinity());

  /// --name=a|b|...: one of `choices`, stored as its mapped value.
  template <class T, class... More>
  FlagTable& choice(std::string name, std::string help,
                    std::vector<std::pair<std::string, T>> choices, T* dest,
                    More*... more) {
    std::string names, current;
    for (const auto& [text, value] : choices) {
      names += (names.empty() ? "" : "|") + text;
      if (value == *dest) current = text;
    }
    return add({std::move(name), Arg::kInline, "=" + names, std::move(help),
                names, current, [=](std::string_view v) {
                  for (const auto& [text, value] : choices)
                    if (v == text) {
                      assign(value, dest, more...);
                      return true;
                    }
                  return false;
                }});
  }

  /// --name=<s>: a string, non-empty unless `allow_empty`.
  FlagTable& text(std::string name, std::string placeholder, std::string help,
                  std::string* dest, bool allow_empty = false);

  /// --name=a,b,...: appends the non-empty pieces (repeats accumulate).
  FlagTable& list(std::string name, std::string placeholder, std::string help,
                  std::vector<std::string>* dest);

  /// --name, a switch: stores `value`.
  template <class T, class... More>
  FlagTable& set(std::string name, std::string help,
                 std::type_identity_t<T> value, T* dest, More*... more) {
    return add({std::move(name), Arg::kNone, "", std::move(help), "", "",
                [=](std::string_view) {
                  assign(value, dest, more...);
                  return true;
                }});
  }

  /// `name <arg>`: the value is the next argument (-o <file>).
  FlagTable& separate(std::string name, std::string placeholder,
                      std::string help, std::string* dest);

  /// Stores `value` through the last row now, as if given first on the
  /// command line: the tool-specific default, stated once in the table.
  FlagTable& defaults_to(std::string_view value);

  /// The last row also sets *flag to true whenever it stores a value.
  FlagTable& marks(bool* flag);

  /// Starts a titled group of rows in --help.
  FlagTable& section(std::string title);

  /// Parse outcome without side effects (the testable core of parse()).
  struct Result {
    std::vector<std::string> positional;  // non-flag arguments, in order
    std::string error;  // usage error, without the "<tool>: " prefix
    bool help = false;  // --help / -h was given
  };
  /// Rows apply in argument order, so a repeated flag's last value wins.
  /// Stops at the first error or at --help.
  [[nodiscard]] Result try_parse(int argc, const char* const* argv,
                                 std::size_t max_positional = 0) const;

  /// Parses `key=value` fields (each naming a row) with try_parse()'s
  /// checks, messages and last-value-wins; returns the first error, or
  /// "". A bare `key` is `key=`, and a switch ignores any value. There
  /// are no positionals and no help, and nothing ever exits.
  [[nodiscard]] std::string try_parse_fields(
      const std::vector<std::string>& fields) const;

  /// try_parse() for a tool's main(): prints help and exits 0 on --help,
  /// fail()s on an error; returns the positional arguments.
  std::vector<std::string> parse(int argc, const char* const* argv,
                                 std::size_t max_positional = 0) const;

  /// Prints "<tool>: <message>" (when non-empty) and the usage synopsis
  /// to stderr, then exits 1.
  [[noreturn]] void fail(std::string_view message = {}) const;

  void print_help(std::ostream& os) const;

 private:
  enum class Arg { kNone, kInline, kSeparate };
  struct Row {
    std::string name;  // empty for a section title (held in help)
    Arg arg = Arg::kNone;
    std::string placeholder;  // "=<n>", " <file>", ...
    std::string help;
    std::string expected;  // what a bad value should have been
    std::string fallback;  // default shown by --help ("" = none)
    std::function<bool(std::string_view)> store;
  };

  template <class V, class... T>
  static void assign(const V& value, T*... dest) {
    ((*dest = static_cast<T>(value)), ...);
  }

  FlagTable& add(Row row);
  [[nodiscard]] const Row* find(std::string_view name) const;
  /// Stores `value` through `row`; the usage error, or "".
  [[nodiscard]] static std::string apply(const Row& row,
                                         std::string_view value);

  std::string tool_;
  std::string usage_;
  std::vector<Row> rows_;
};

}  // namespace cudanp
