#include "stc/serve/span_codec.h"

#include <charconv>
#include <cstdint>

#include "stc/obs/json.h"
#include "stc/support/strings.h"

namespace stc::serve {

namespace {

constexpr std::string_view kPrefix = "{\"kind\":\"span\",\"name\":\"";

constexpr char kHexDigits[] = "0123456789abcdef";

void append_hex16(std::string& out, std::uint64_t value) {
    char buffer[16];
    for (int i = 15; i >= 0; --i) {
        buffer[i] = kHexDigits[value & 0xf];
        value >>= 4;
    }
    out.append(buffer, 16);
}

/// Sequential scanner over the canonical line.  Every accessor returns
/// false on mismatch, flagging the whole line for the generic path.
struct Scanner {
    std::string_view rest;

    bool literal(std::string_view expected) {
        if (rest.substr(0, expected.size()) != expected) return false;
        rest.remove_prefix(expected.size());
        return true;
    }

    /// Unescaped string value up to the closing quote.  A backslash
    /// bails out: the line took the escaping branch on the write side.
    bool string_value(std::string_view* out) {
        const std::size_t end = rest.find('"');
        if (end == std::string_view::npos) return false;
        const std::string_view value = rest.substr(0, end);
        if (value.find('\\') != std::string_view::npos) return false;
        *out = value;
        rest.remove_prefix(end + 1);  // consume the closing quote too
        return true;
    }

    bool uint_value(std::uint64_t* out) {
        const auto [ptr, ec] =
            std::from_chars(rest.data(), rest.data() + rest.size(), *out);
        if (ec != std::errc() || ptr == rest.data()) return false;
        rest.remove_prefix(static_cast<std::size_t>(ptr - rest.data()));
        return true;
    }

    bool int_value(int* out) {
        const auto [ptr, ec] =
            std::from_chars(rest.data(), rest.data() + rest.size(), *out);
        if (ec != std::errc() || ptr == rest.data()) return false;
        rest.remove_prefix(static_cast<std::size_t>(ptr - rest.data()));
        return true;
    }

    bool hex16_value(std::uint64_t* out) {
        if (rest.size() < 16) return false;
        std::uint64_t value = 0;
        for (int i = 0; i < 16; ++i) {
            const char c = rest[static_cast<std::size_t>(i)];
            value <<= 4;
            if (c >= '0' && c <= '9') {
                value |= static_cast<std::uint64_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                value |= static_cast<std::uint64_t>(c - 'a' + 10);
            } else {
                return false;
            }
        }
        *out = value;
        rest.remove_prefix(16);
        return true;
    }
};

}  // namespace

// Strings are JSON-escaped: the fast scanner on the read side rejects
// lines containing backslashes, so a (rare) span that needs escaping goes
// through the generic parser rather than being corrupted.
void append_span_line(std::string& out, const obs::TraceEvent& event) {
    out += kPrefix;
    obs::append_json_escaped(out, event.name);
    out += "\",\"cat\":\"";
    obs::append_json_escaped(out, event.category);
    out += "\",\"ts\":";
    support::append_integer(out, event.ts_us);
    out += ",\"dur\":";
    support::append_integer(out, event.dur_us);
    out += ",\"tid\":";
    support::append_integer(out, event.tid);
    out += ",\"actor\":";
    support::append_integer(out, event.actor);
    out += ",\"span\":\"";
    append_hex16(out, event.span_id);
    if (event.parent_id != 0) {
        out += "\",\"parent\":\"";
        append_hex16(out, event.parent_id);
    }
    if (event.args.size() > 0) {
        out += "\",\"args\":\"";
        obs::append_json_escaped(out, event.args.to_line());
    }
    out += "\"}";
}

bool is_span_line(std::string_view line) noexcept {
    return line.substr(0, kPrefix.size()) == kPrefix;
}

std::optional<obs::TraceEvent> parse_span_line(std::string_view line) {
    Scanner in{line};
    obs::TraceEvent event;
    std::string_view name;
    std::string_view category;
    if (!in.literal(kPrefix) || !in.string_value(&name) ||
        !in.literal(",\"cat\":\"") || !in.string_value(&category) ||
        !in.literal(",\"ts\":") || !in.uint_value(&event.ts_us) ||
        !in.literal(",\"dur\":") || !in.uint_value(&event.dur_us) ||
        !in.literal(",\"tid\":") || !in.int_value(&event.tid) ||
        !in.literal(",\"actor\":") || !in.int_value(&event.actor) ||
        !in.literal(",\"span\":\"") || !in.hex16_value(&event.span_id)) {
        return std::nullopt;
    }
    event.name = name;
    event.category = category;
    if (in.literal("\",\"parent\":\"") &&
        !in.hex16_value(&event.parent_id)) {
        return std::nullopt;
    }
    // No args fast path: the args value is a JSON-encoded object, so
    // its quotes arrive escaped and the escape-free scanner would bail
    // anyway.  Args-bearing spans (a handful per campaign — the hot
    // method-call/test-case spans carry none) take the generic parse.
    return in.literal("\"}") && in.rest.empty()
               ? std::optional<obs::TraceEvent>(std::move(event))
               : std::nullopt;
}

}  // namespace stc::serve
