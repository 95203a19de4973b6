#include "stc/obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "stc/support/strings.h"

namespace stc::obs {

void append_json_escaped(std::string& out, std::string_view raw) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : raw) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: {
                const auto byte = static_cast<unsigned char>(c);
                if (byte < 0x20) {
                    out += "\\u00";
                    out += kHex[byte >> 4];
                    out += kHex[byte & 0xf];
                } else {
                    out += c;
                }
            }
        }
    }
}

std::string json_escape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    append_json_escaped(out, raw);
    return out;
}

JsonObject& JsonObject::set(std::string key, std::string value) {
    fields_.emplace_back(std::move(key), Value(std::move(value)));
    return *this;
}
JsonObject& JsonObject::set(std::string key, const char* value) {
    return set(std::move(key), std::string(value));
}
JsonObject& JsonObject::set(std::string key, bool value) {
    fields_.emplace_back(std::move(key), Value(value));
    return *this;
}
JsonObject& JsonObject::set(std::string key, std::int64_t value) {
    fields_.emplace_back(std::move(key), Value(value));
    return *this;
}
JsonObject& JsonObject::set(std::string key, std::uint64_t value) {
    fields_.emplace_back(std::move(key), Value(value));
    return *this;
}
JsonObject& JsonObject::set(std::string key, double value) {
    fields_.emplace_back(std::move(key), Value(value));
    return *this;
}

const JsonObject::Value* JsonObject::find(std::string_view key) const noexcept {
    for (const auto& [k, v] : fields_) {
        if (k == key) return &v;
    }
    return nullptr;
}

std::optional<std::string> JsonObject::get_string(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr || !std::holds_alternative<std::string>(*v)) return {};
    return std::get<std::string>(*v);
}

std::optional<std::int64_t> JsonObject::get_int(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) return {};
    if (std::holds_alternative<std::int64_t>(*v)) return std::get<std::int64_t>(*v);
    if (std::holds_alternative<std::uint64_t>(*v)) {
        const auto u = std::get<std::uint64_t>(*v);
        if (u <= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max())) {
            return static_cast<std::int64_t>(u);
        }
    }
    return {};
}

std::optional<std::uint64_t> JsonObject::get_uint(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) return {};
    if (std::holds_alternative<std::uint64_t>(*v)) return std::get<std::uint64_t>(*v);
    if (std::holds_alternative<std::int64_t>(*v)) {
        const auto i = std::get<std::int64_t>(*v);
        if (i >= 0) return static_cast<std::uint64_t>(i);
    }
    return {};
}

std::optional<double> JsonObject::get_double(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) return {};
    if (std::holds_alternative<double>(*v)) return std::get<double>(*v);
    if (std::holds_alternative<std::int64_t>(*v)) {
        return static_cast<double>(std::get<std::int64_t>(*v));
    }
    if (std::holds_alternative<std::uint64_t>(*v)) {
        return static_cast<double>(std::get<std::uint64_t>(*v));
    }
    return {};
}

std::optional<bool> JsonObject::get_bool(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr || !std::holds_alternative<bool>(*v)) return {};
    return std::get<bool>(*v);
}

namespace {

void append_value(std::string& out, const JsonObject::Value& value) {
    if (std::holds_alternative<bool>(value)) {
        out += std::get<bool>(value) ? "true" : "false";
    } else if (std::holds_alternative<std::int64_t>(value)) {
        support::append_integer(out, std::get<std::int64_t>(value));
    } else if (std::holds_alternative<std::uint64_t>(value)) {
        support::append_integer(out, std::get<std::uint64_t>(value));
    } else if (std::holds_alternative<double>(value)) {
        const double d = std::get<double>(value);
        if (std::isfinite(d)) {
            char buffer[40];
            std::snprintf(buffer, sizeof buffer, "%.17g", d);
            out += buffer;
        } else {
            out += "null";  // JSON has no inf/nan; parsed back as missing
        }
    } else {
        out += '"';
        append_json_escaped(out, std::get<std::string>(value));
        out += '"';
    }
}

struct Cursor {
    std::string_view text;
    std::size_t pos = 0;

    [[nodiscard]] bool done() const noexcept { return pos >= text.size(); }
    [[nodiscard]] char peek() const noexcept { return text[pos]; }
    void skip_ws() noexcept {
        while (!done() && std::isspace(static_cast<unsigned char>(peek()))) ++pos;
    }
    bool eat(char c) noexcept {
        if (done() || peek() != c) return false;
        ++pos;
        return true;
    }
};

std::optional<std::string> parse_string(Cursor& c) {
    if (!c.eat('"')) return {};
    std::string out;
    while (!c.done()) {
        const char ch = c.text[c.pos++];
        if (ch == '"') return out;
        if (ch != '\\') {
            out += ch;
            continue;
        }
        if (c.done()) return {};
        const char esc = c.text[c.pos++];
        switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (c.pos + 4 > c.text.size()) return {};
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = c.text[c.pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                    else return {};
                }
                // The writer only emits \u00XX for control bytes; decode
                // the basic-latin plane and reject the rest.
                if (code > 0x7f) return {};
                out += static_cast<char>(code);
                break;
            }
            default: return {};
        }
    }
    return {};  // unterminated
}

std::optional<JsonObject::Value> parse_number(Cursor& c) {
    const std::size_t start = c.pos;
    if (!c.done() && (c.peek() == '-' || c.peek() == '+')) ++c.pos;
    bool is_real = false;
    while (!c.done()) {
        const char ch = c.peek();
        if (std::isdigit(static_cast<unsigned char>(ch))) {
            ++c.pos;
        } else if (ch == '.' || ch == 'e' || ch == 'E' || ch == '-' || ch == '+') {
            // '-'/'+' only valid inside an exponent; the stricter check
            // is delegated to from_chars/strtod below.
            is_real = is_real || ch == '.' || ch == 'e' || ch == 'E';
            ++c.pos;
        } else {
            break;
        }
    }
    const std::string_view token = c.text.substr(start, c.pos - start);
    if (token.empty()) return {};
    if (is_real) {
        const std::string owned(token);
        char* end = nullptr;
        const double d = std::strtod(owned.c_str(), &end);
        if (end != owned.c_str() + owned.size()) return {};
        return JsonObject::Value(d);
    }
    if (token.front() == '-') {
        std::int64_t i = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), i);
        if (ec != std::errc() || p != token.data() + token.size()) return {};
        return JsonObject::Value(i);
    }
    std::uint64_t u = 0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), u);
    if (ec != std::errc() || p != token.data() + token.size()) return {};
    return JsonObject::Value(u);
}

}  // namespace

std::string JsonObject::to_line() const {
    std::string out;
    out += '{';
    bool first = true;
    for (const auto& [key, value] : fields_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        append_json_escaped(out, key);
        out += "\":";
        append_value(out, value);
    }
    out += '}';
    return out;
}

std::optional<JsonObject> JsonObject::parse(std::string_view line) {
    Cursor c{line};
    c.skip_ws();
    if (!c.eat('{')) return {};
    JsonObject out;
    c.skip_ws();
    if (c.eat('}')) {
        c.skip_ws();
        return c.done() ? std::optional<JsonObject>(out) : std::nullopt;
    }
    while (true) {
        c.skip_ws();
        auto key = parse_string(c);
        if (!key) return {};
        c.skip_ws();
        if (!c.eat(':')) return {};
        c.skip_ws();
        if (c.done()) return {};
        if (c.peek() == '"') {
            auto s = parse_string(c);
            if (!s) return {};
            out.fields_.emplace_back(std::move(*key), Value(std::move(*s)));
        } else if (c.text.compare(c.pos, 4, "true") == 0) {
            c.pos += 4;
            out.fields_.emplace_back(std::move(*key), Value(true));
        } else if (c.text.compare(c.pos, 5, "false") == 0) {
            c.pos += 5;
            out.fields_.emplace_back(std::move(*key), Value(false));
        } else if (c.text.compare(c.pos, 4, "null") == 0) {
            c.pos += 4;  // tolerated on input; the field is dropped
        } else {
            auto n = parse_number(c);
            if (!n) return {};
            out.fields_.emplace_back(std::move(*key), std::move(*n));
        }
        c.skip_ws();
        if (c.eat(',')) continue;
        if (c.eat('}')) break;
        return {};
    }
    c.skip_ws();
    if (!c.done()) return {};
    return out;
}

}  // namespace stc::obs
