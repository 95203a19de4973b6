// Small string utilities used across the framework (parsing, code
// generation, report formatting).
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace stc::support {

/// Remove leading and trailing whitespace.
[[nodiscard]] std::string trim(std::string_view s);

/// Split on a single character; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view s);

/// True if s begins with prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// True if s ends with suffix.
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Replace every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string s, std::string_view from,
                                      std::string_view to);

/// Escape a string for inclusion in generated C++ source ("..." literal).
[[nodiscard]] std::string cpp_string_literal(std::string_view s);

/// Append the digits of an integer in `base`, as std::to_chars writes
/// them (decimal by default): no stream, no temporary string.
template <std::integral Integer>
void append_integer(std::string& out, Integer value, int base = 10) {
    char buffer[std::numeric_limits<Integer>::digits + 2];  // base 2, sign
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value, base);
    out.append(buffer, result.ptr);
}

/// Format a double the way the paper's tables do: one decimal for
/// percentages (e.g. "95.7%"); trailing zeros trimmed otherwise.
[[nodiscard]] std::string percent(double ratio);

}  // namespace stc::support
