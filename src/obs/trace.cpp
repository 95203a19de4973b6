#include "stc/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

namespace stc::obs {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::string hex16(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buffer, 16);
}

std::uint64_t from_hex16(std::string_view text) {
    return std::strtoull(std::string(text).c_str(), nullptr, 16);
}

struct Tracer::State {
    struct ThreadData {
        int tid = 0;
        std::uint64_t next_seq = 0;
        std::vector<std::uint64_t> open;  ///< span-id stack (LIFO per thread)
    };

    std::mutex mutex;
    Clock::time_point epoch = Clock::now();
    int actor = 0;
    std::uint64_t trace_id = 0;
    std::map<std::thread::id, ThreadData> threads;
    std::vector<TraceEvent> events;

    ThreadData& self() {  // callers hold the mutex
        const auto [it, inserted] =
            threads.try_emplace(std::this_thread::get_id());
        if (inserted) it->second.tid = static_cast<int>(threads.size()) - 1;
        return it->second;
    }

    [[nodiscard]] std::uint64_t us_since_epoch(Clock::time_point t) const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
                .count());
    }
};

Tracer Tracer::make(int actor) {
    Tracer tracer;
    tracer.state_ = std::make_shared<State>();
    tracer.state_->actor = actor;
    return tracer;
}

int Tracer::actor() const noexcept {
    return state_ == nullptr ? 0 : state_->actor;
}

Tracer::Span Tracer::begin(std::string_view category, std::string_view name,
                           JsonObject args) const {
    return begin_with_parent(category, name, 0, std::move(args));
}

Tracer::Span Tracer::begin_with_parent(std::string_view category,
                                       std::string_view name,
                                       std::uint64_t parent,
                                       JsonObject args) const {
    Span span;
    if (state_ == nullptr) return span;  // inert: tid stays -1

    const std::lock_guard<std::mutex> lock(state_->mutex);
    State::ThreadData& self = state_->self();
    span.tid = self.tid;
    // The actor ordinal occupies the top bits so the id's deterministic
    // inputs are globally unique across the processes of one campaign:
    // same (actor, tid, seq) -> same id, different actor -> different id.
    span.id = mix64((static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(state_->actor))
                     << 48u) ^
                    (static_cast<std::uint64_t>(self.tid) << 40u) ^
                    self.next_seq++);
    span.parent_override = parent;
    span.name = std::string(name);
    span.category = std::string(category);
    span.args = std::move(args);
    self.open.push_back(span.id);
    span.start_us = state_->us_since_epoch(Clock::now());
    return span;
}

void Tracer::end(Span&& span) const {
    if (state_ == nullptr || span.tid < 0) return;
    const std::uint64_t now_us = state_->us_since_epoch(Clock::now());

    const std::lock_guard<std::mutex> lock(state_->mutex);
    State::ThreadData& self = state_->self();
    if (!self.open.empty() && self.open.back() == span.id) self.open.pop_back();

    TraceEvent event;
    event.name = std::move(span.name);
    event.category = std::move(span.category);
    event.ts_us = span.start_us;
    event.dur_us = now_us >= span.start_us ? now_us - span.start_us : 0;
    event.tid = span.tid;
    event.actor = state_->actor;
    event.span_id = span.id;
    event.parent_id = span.parent_override != 0
                          ? span.parent_override
                          : (self.open.empty() ? 0 : self.open.back());
    event.args = std::move(span.args);
    state_->events.push_back(std::move(event));
}

void Tracer::absorb(TraceEvent event) const {
    if (state_ == nullptr) return;
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->events.push_back(std::move(event));
}

void Tracer::set_trace_id(std::uint64_t id) const {
    if (state_ == nullptr) return;
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->trace_id = id;
}

std::uint64_t Tracer::trace_id() const {
    if (state_ == nullptr) return 0;
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->trace_id;
}

std::uint64_t Tracer::now_us() const {
    if (state_ == nullptr) return 0;
    return state_->us_since_epoch(Clock::now());
}

std::size_t Tracer::event_count() const {
    if (state_ == nullptr) return 0;
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->events.size();
}

std::vector<TraceEvent> Tracer::events() const {
    if (state_ == nullptr) return {};
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->events;
}

std::vector<TraceEvent> Tracer::events_from(std::size_t cursor) const {
    if (state_ == nullptr) return {};
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (cursor >= state_->events.size()) return {};
    return std::vector<TraceEvent>(state_->events.begin() +
                                       static_cast<std::ptrdiff_t>(cursor),
                                   state_->events.end());
}

void Tracer::write_chrome_trace(std::ostream& os) const {
    const std::vector<TraceEvent> snapshot = events();
    const std::uint64_t id = trace_id();
    os << "{";
    if (id != 0) os << "\"traceId\":\"" << hex16(id) << "\",";
    os << "\"traceEvents\":[\n";
    bool first = true;
    for (const TraceEvent& e : snapshot) {
        if (!first) os << ",\n";
        first = false;
        // The ids travel inside args (Chrome ignores unknown arg keys;
        // parse_chrome_trace and the round-trip tests read them back).
        JsonObject args = e.args;
        args.set("span", hex16(e.span_id));
        if (e.parent_id != 0) args.set("parent", hex16(e.parent_id));
        os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
           << json_escape(e.category) << "\",\"ph\":\"X\",\"ts\":" << e.ts_us
           << ",\"dur\":" << e.dur_us << ",\"pid\":" << (e.actor + 1)
           << ",\"tid\":" << e.tid << ",\"args\":" << args.to_line() << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

SpanScope::SpanScope(const Tracer& tracer, std::string_view category,
                     std::string_view name, JsonObject args)
    : tracer_(tracer) {
    if (tracer_.enabled()) {
        span_ = tracer_.begin(category, name, std::move(args));
    }
}

SpanScope::SpanScope(const Tracer& tracer, std::string_view category,
                     std::string_view name, std::uint64_t parent,
                     JsonObject args)
    : tracer_(tracer) {
    if (tracer_.enabled()) {
        span_ = tracer_.begin_with_parent(category, name, parent,
                                          std::move(args));
    }
}

SpanScope::~SpanScope() { tracer_.end(std::move(span_)); }

// ------------------------------------------------- wire/JSONL form

std::optional<TraceEvent> trace_event_from_json(const JsonObject& object) {
    const auto name = object.get_string("name");
    const auto cat = object.get_string("cat");
    const auto ts = object.get_uint("ts");
    const auto dur = object.get_uint("dur");
    const auto tid = object.get_int("tid");
    const auto actor = object.get_int("actor");
    const auto span = object.get_string("span");
    if (!name || !cat || !ts || !dur || !tid || !actor || !span) {
        return std::nullopt;
    }
    TraceEvent event;
    event.name = *name;
    event.category = *cat;
    event.ts_us = *ts;
    event.dur_us = *dur;
    event.tid = static_cast<int>(*tid);
    event.actor = static_cast<int>(*actor);
    event.span_id = from_hex16(*span);
    if (const auto parent = object.get_string("parent")) {
        event.parent_id = from_hex16(*parent);
    }
    if (const auto args = object.get_string("args")) {
        auto parsed = JsonObject::parse(*args);
        if (!parsed) return std::nullopt;
        event.args = std::move(*parsed);
    }
    return event;
}

// ---------------------------------------------------------- parsing

namespace {

/// One past the end of the balanced {...} starting at `start`
/// (text[start] must be '{'), honoring string literals and escapes.
std::optional<std::size_t> balanced_object_end(std::string_view text,
                                               std::size_t start) {
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = start; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\') ++i;
            else if (c == '"') in_string = false;
            continue;
        }
        if (c == '"') in_string = true;
        else if (c == '{') ++depth;
        else if (c == '}' && --depth == 0) return i + 1;
    }
    return std::nullopt;
}

/// One past the closing quote of the string literal starting at `start`
/// (text[start] must be '"').
std::optional<std::size_t> string_end(std::string_view text,
                                      std::size_t start) {
    for (std::size_t i = start + 1; i < text.size(); ++i) {
        if (text[i] == '\\') ++i;
        else if (text[i] == '"') return i + 1;
    }
    return std::nullopt;
}

void skip_ws(std::string_view text, std::size_t& pos) {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
        ++pos;
    }
}

/// Parse one emitted event object: every field flat except the one
/// optional "args" sub-object.  The flat fields are reassembled into a
/// single line for JsonObject::parse so value parsing stays in one
/// place.
std::optional<TraceEvent> parse_event(std::string_view obj) {
    std::size_t pos = 0;
    skip_ws(obj, pos);
    if (pos >= obj.size() || obj[pos] != '{') return std::nullopt;
    ++pos;

    std::string flat = "{";
    std::optional<JsonObject> args;
    bool first = true;
    while (true) {
        skip_ws(obj, pos);
        if (pos < obj.size() && obj[pos] == '}') break;
        if (pos >= obj.size() || obj[pos] != '"') return std::nullopt;
        const auto key_end = string_end(obj, pos);
        if (!key_end) return std::nullopt;
        const std::string_view key = obj.substr(pos, *key_end - pos);
        pos = *key_end;
        skip_ws(obj, pos);
        if (pos >= obj.size() || obj[pos] != ':') return std::nullopt;
        ++pos;
        skip_ws(obj, pos);
        if (pos >= obj.size()) return std::nullopt;

        if (obj[pos] == '{') {
            const auto value_end = balanced_object_end(obj, pos);
            if (!value_end || key != "\"args\"") return std::nullopt;
            args = JsonObject::parse(obj.substr(pos, *value_end - pos));
            if (!args) return std::nullopt;
            pos = *value_end;
        } else {
            std::size_t value_end = pos;
            if (obj[pos] == '"') {
                const auto e = string_end(obj, pos);
                if (!e) return std::nullopt;
                value_end = *e;
            } else {
                while (value_end < obj.size() && obj[value_end] != ',' &&
                       obj[value_end] != '}') {
                    ++value_end;
                }
            }
            if (!first) flat += ',';
            flat += std::string(key) + ":" +
                    std::string(obj.substr(pos, value_end - pos));
            first = false;
            pos = value_end;
        }

        skip_ws(obj, pos);
        if (pos < obj.size() && obj[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < obj.size() && obj[pos] == '}') break;
        return std::nullopt;
    }
    flat += '}';

    const auto fields = JsonObject::parse(flat);
    if (!fields) return std::nullopt;
    const auto name = fields->get_string("name");
    const auto cat = fields->get_string("cat");
    const auto ph = fields->get_string("ph");
    const auto ts = fields->get_uint("ts");
    const auto dur = fields->get_uint("dur");
    const auto tid = fields->get_int("tid");
    const auto pid = fields->get_int("pid");
    if (!name || !cat || !ph || *ph != "X" || !ts || !dur || !tid || !pid) {
        return std::nullopt;
    }

    TraceEvent event;
    event.name = *name;
    event.category = *cat;
    event.ts_us = *ts;
    event.dur_us = *dur;
    event.tid = static_cast<int>(*tid);
    event.actor = static_cast<int>(*pid) - 1;
    if (args) {
        if (const auto span = args->get_string("span")) {
            event.span_id = from_hex16(*span);
        }
        if (const auto parent = args->get_string("parent")) {
            event.parent_id = from_hex16(*parent);
        }
        event.args = std::move(*args);
    }
    return event;
}

}  // namespace

std::optional<std::vector<TraceEvent>> parse_chrome_trace(std::istream& is) {
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();

    const std::size_t key = text.find("\"traceEvents\"");
    if (key == std::string::npos) return std::nullopt;
    std::size_t pos = text.find('[', key);
    if (pos == std::string::npos) return std::nullopt;
    ++pos;

    std::vector<TraceEvent> events;
    while (true) {
        skip_ws(text, pos);
        if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < text.size() && text[pos] == ']') break;
        if (pos >= text.size() || text[pos] != '{') return std::nullopt;
        const auto end = balanced_object_end(text, pos);
        if (!end) return std::nullopt;
        auto event = parse_event(std::string_view(text).substr(pos, *end - pos));
        if (!event) return std::nullopt;
        events.push_back(std::move(*event));
        pos = *end;
    }
    return events;
}

}  // namespace stc::obs
