// Small string helpers used across the frontend and bench harness.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cudanp {

/// Splits `s` on `sep`, trimming nothing; empty pieces are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` is a valid C identifier.
[[nodiscard]] bool is_identifier(std::string_view s);

/// Formats a double with `digits` significant digits (for table output).
[[nodiscard]] std::string format_double(double v, int digits = 4);

/// Replaces every occurrence of `from` with `to` in `s`.
[[nodiscard]] std::string replace_all(std::string s, std::string_view from,
                                      std::string_view to);

/// Checked integer parsing for CLI flags, environment variables and
/// manifest fields. Unlike atoi/strtoll, the whole string (after
/// optional surrounding whitespace) must be a base-10 integer inside
/// [min, max]; partial parses ("8x"), empty strings, and out-of-range
/// values all return nullopt instead of silently becoming 0 or a
/// truncated prefix.
[[nodiscard]] std::optional<std::int64_t> parse_i64(
    std::string_view s,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// parse_i64 narrowed to int, for the many int-typed knobs.
[[nodiscard]] std::optional<int> parse_int(
    std::string_view s, int min = std::numeric_limits<int>::min(),
    int max = std::numeric_limits<int>::max());

/// Checked floating-point parsing, the parse_i64 contract for doubles:
/// the whole string (after optional surrounding whitespace) must be a
/// finite strtod number; partial parses ("0.5x"), empty strings, inf
/// and nan return nullopt. Range checks are the caller's.
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

}  // namespace cudanp
