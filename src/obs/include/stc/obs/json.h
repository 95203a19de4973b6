// Minimal flat JSON objects for the framework's line-oriented artifacts
// (telemetry events, result-store records, trace-event args, metric
// dumps).
//
// Scope is deliberately tiny: one object per line, string/number/bool
// values only, no nesting — enough for a greppable, machine-readable
// event stream without dragging in a JSON library.  Writing and parsing
// round-trip exactly (docs/FORMATS.md documents the schemas built on
// top).  Moved here from stc::campaign when observability became its
// own layer; stc/campaign/jsonl.h re-exports the old names.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace stc::obs {

/// One flat JSON object; insertion order is preserved on rendering so
/// event lines are stable and diffable.
class JsonObject {
public:
    using Value = std::variant<bool, std::int64_t, std::uint64_t, double,
                               std::string>;

    JsonObject& set(std::string key, std::string value);
    JsonObject& set(std::string key, const char* value);
    JsonObject& set(std::string key, bool value);
    JsonObject& set(std::string key, std::int64_t value);
    JsonObject& set(std::string key, std::uint64_t value);
    JsonObject& set(std::string key, double value);
    /// Convenience for size_t on LP64 (distinct from uint64_t overload
    /// only where the platform makes them different types).
    JsonObject& set(std::string key, int value) {
        return set(std::move(key), static_cast<std::int64_t>(value));
    }

    [[nodiscard]] const Value* find(std::string_view key) const noexcept;
    [[nodiscard]] bool has(std::string_view key) const noexcept {
        return find(key) != nullptr;
    }

    /// Typed accessors; std::nullopt when missing or differently typed.
    [[nodiscard]] std::optional<std::string> get_string(std::string_view key) const;
    [[nodiscard]] std::optional<std::int64_t> get_int(std::string_view key) const;
    [[nodiscard]] std::optional<std::uint64_t> get_uint(std::string_view key) const;
    [[nodiscard]] std::optional<double> get_double(std::string_view key) const;
    [[nodiscard]] std::optional<bool> get_bool(std::string_view key) const;

    [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }
    [[nodiscard]] const std::vector<std::pair<std::string, Value>>& fields()
        const noexcept {
        return fields_;
    }

    /// Render as a single JSON line (no trailing newline).
    [[nodiscard]] std::string to_line() const;

    /// Parse one line; std::nullopt on malformed input.  Numbers with a
    /// fraction/exponent parse as double, non-negative integers as
    /// uint64, negative integers as int64.
    [[nodiscard]] static std::optional<JsonObject> parse(std::string_view line);

private:
    std::vector<std::pair<std::string, Value>> fields_;
};

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(std::string_view raw);

/// Append json_escape(raw) to `out` without a temporary string.
void append_json_escaped(std::string& out, std::string_view raw);

}  // namespace stc::obs
