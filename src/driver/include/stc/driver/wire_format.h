// Shared text wire-format helpers for the concat-* persistence formats
// (suite_io, the fuzz corpus, golden_io): percent-encoding of field
// separators, whole-field number parsing, and the typed Value encoding.
// Malformed input throws stc::Error naming the line, never a standard
// library exception.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>

#include "stc/domain/value.h"
#include "stc/support/error.h"

namespace stc::driver::wire {

/// Percent-encode '%', '|', and line breaks.
inline std::string encode(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%' || c == '|' || c == '\n' || c == '\r') {
            char buf[8];
            std::snprintf(buf, sizeof buf, "%%%02x", static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/// Parse all of `field` as a number; anything else (empty, trailing
/// bytes, out of range) throws naming `lineno`.
template <typename T>
T parse_number(std::string_view field, int lineno) {
    T value{};
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
        throw Error("line " + std::to_string(lineno) + ": bad number '" +
                    std::string(field) + "'");
    }
    return value;
}

/// Inverse of encode: every '%' must be followed by two hex digits.
inline std::string decode(const std::string& s, int lineno) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        unsigned byte = 0;
        const char* hex = s.data() + i + 1;
        if (i + 2 >= s.size() ||
            std::from_chars(hex, hex + 2, byte, 16).ptr != hex + 2) {
            throw Error("line " + std::to_string(lineno) +
                        ": bad percent escape in '" + s + "'");
        }
        out += static_cast<char>(byte);
        i += 2;
    }
    return out;
}

/// Typed value field: "I:42", "R:1.5", "S:text", "E:", "P:Class" (live
/// pointers do not persist — only the pointee class survives).
inline std::string encode_value(const domain::Value& v) {
    using domain::ValueKind;
    switch (v.kind()) {
        case ValueKind::Empty: return "E:";
        case ValueKind::Int: return "I:" + std::to_string(v.as_int());
        case ValueKind::Real: {
            char buf[64];
            std::snprintf(buf, sizeof buf, "R:%.17g", v.as_real());
            return buf;
        }
        case ValueKind::String: return "S:" + encode(v.as_string());
        case ValueKind::Pointer:
        case ValueKind::Object:
            return "P:" + encode(v.as_object().type_name);
    }
    return "E:";
}

inline domain::Value decode_value(const std::string& field, int lineno) {
    if (field.size() < 2 || field[1] != ':') {
        throw Error("line " + std::to_string(lineno) + ": bad value field '" + field +
                    "'");
    }
    const std::string payload = field.substr(2);
    switch (field[0]) {
        case 'E': return {};
        case 'I':
            return domain::Value::make_int(parse_number<std::int64_t>(payload, lineno));
        case 'R':
            return domain::Value::make_real(parse_number<double>(payload, lineno));
        case 'S': return domain::Value::make_string(decode(payload, lineno));
        case 'P': return domain::Value::make_pointer(nullptr, decode(payload, lineno));
        default:
            throw Error("line " + std::to_string(lineno) + ": unknown value kind '" +
                        field.substr(0, 1) + "'");
    }
}

}  // namespace stc::driver::wire
