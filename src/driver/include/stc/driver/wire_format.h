// Shared text wire-format helpers for the concat-* persistence formats
// (suite_io, the fuzz corpus): percent-encoding of field separators and
// the typed Value encoding.
#pragma once

#include <cstdio>
#include <string>

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

inline std::string decode(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            out += static_cast<char>(std::stoi(s.substr(i + 1, 2), nullptr, 16));
            i += 2;
        } else {
            out += s[i];
        }
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
        case 'I': return domain::Value::make_int(std::stoll(payload));
        case 'R': return domain::Value::make_real(std::stod(payload));
        case 'S': return domain::Value::make_string(decode(payload));
        case 'P': return domain::Value::make_pointer(nullptr, decode(payload));
        default:
            throw Error("line " + std::to_string(lineno) + ": unknown value kind '" +
                        field.substr(0, 1) + "'");
    }
}

}  // namespace stc::driver::wire
