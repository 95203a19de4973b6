#include "stc/domain/value.h"

#include <charconv>
#include <cstdio>

#include "stc/support/error.h"
#include "stc/support/strings.h"

namespace stc::domain {

const char* to_string(ValueKind kind) noexcept {
    switch (kind) {
        case ValueKind::Empty: return "empty";
        case ValueKind::Int: return "int";
        case ValueKind::Real: return "real";
        case ValueKind::String: return "string";
        case ValueKind::Pointer: return "pointer";
        case ValueKind::Object: return "object";
    }
    return "?";
}

Value Value::make_pointer(void* p, std::string type_name) {
    return Value(PointerTag{ObjectRef{p, std::move(type_name)}});
}

Value Value::make_object(void* p, std::string type_name) {
    return Value(ObjectRef{p, std::move(type_name)});
}

ValueKind Value::kind() const noexcept {
    switch (data_.index()) {
        case 0: return ValueKind::Empty;
        case 1: return ValueKind::Int;
        case 2: return ValueKind::Real;
        case 3: return ValueKind::String;
        case 4: return ValueKind::Pointer;
        case 5: return ValueKind::Object;
        default: return ValueKind::Empty;
    }
}

namespace {
[[noreturn]] void kind_error(ValueKind want, ValueKind got) {
    throw Error(std::string("value kind mismatch: wanted ") + to_string(want) +
                ", got " + to_string(got));
}
}  // namespace

std::int64_t Value::as_int() const {
    if (const auto* p = std::get_if<std::int64_t>(&data_)) return *p;
    kind_error(ValueKind::Int, kind());
}

double Value::as_real() const {
    if (const auto* p = std::get_if<double>(&data_)) return *p;
    kind_error(ValueKind::Real, kind());
}

const std::string& Value::as_string() const {
    if (const auto* p = std::get_if<std::string>(&data_)) return *p;
    kind_error(ValueKind::String, kind());
}

void* Value::as_pointer() const {
    if (const auto* p = std::get_if<PointerTag>(&data_)) return p->ref.ptr;
    kind_error(ValueKind::Pointer, kind());
}

const ObjectRef& Value::as_object() const {
    if (const auto* p = std::get_if<ObjectRef>(&data_)) return *p;
    if (const auto* p = std::get_if<PointerTag>(&data_)) return p->ref;
    kind_error(ValueKind::Object, kind());
}

double Value::as_number() const {
    if (const auto* p = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*p);
    if (const auto* p = std::get_if<double>(&data_)) return *p;
    kind_error(ValueKind::Real, kind());
}

std::string Value::to_source() const {
    switch (kind()) {
        case ValueKind::Empty: return "/*empty*/";
        case ValueKind::Int: return std::to_string(std::get<std::int64_t>(data_));
        case ValueKind::Real: {
            // The %g form with the fewest significant digits (at least 6)
            // that reads back as the same double: generated source passes
            // exactly the value the suite runs.
            const double value = std::get<double>(data_);
            char buf[64];
            char* end = buf;
            for (int precision = 6; precision <= 17; ++precision) {
                end = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, precision)
                          .ptr;
                double back = 0;
                std::from_chars(buf, end, back);
                if (back == value) break;
            }
            std::string s(buf, end);
            // Keep it a double literal in generated source.
            if (s.find_first_of(".eE") == std::string::npos) s += ".0";
            return s;
        }
        case ValueKind::String:
            return support::cpp_string_literal(std::get<std::string>(data_));
        case ValueKind::Pointer: {
            const auto& ref = std::get<PointerTag>(data_).ref;
            if (ref.ptr == nullptr) return "nullptr";
            return "/* completed by tester: " + ref.type_name + "* */";
        }
        case ValueKind::Object:
            return "/* completed by tester: " + std::get<ObjectRef>(data_).type_name +
                   " */";
    }
    return "?";
}

std::string Value::to_display() const {
    switch (kind()) {
        case ValueKind::String: return std::get<std::string>(data_);
        case ValueKind::Pointer: {
            const auto& ref = std::get<PointerTag>(data_).ref;
            if (ref.ptr == nullptr) return "<null " + ref.type_name + "*>";
            char buf[32];
            std::snprintf(buf, sizeof buf, "%p", ref.ptr);
            return "<" + ref.type_name + "* " + buf + ">";
        }
        case ValueKind::Object: return "<object " + std::get<ObjectRef>(data_).type_name + ">";
        default: return to_source();
    }
}

}  // namespace stc::domain
