// Wire codec for streamed worker spans.
//
// A Telemetry frame's span lines (docs/FORMATS.md §11) are written
// here and nowhere else.  On a hot campaign tens of thousands of them
// cross the socket, and the generic JsonObject round-trip (build object
// -> render -> tokenize -> rebuild object) costs several microseconds
// per span — enough to dominate a streamed run on a small machine.  So
// this codec writes and reads the canonical span line directly:
//
//   {"kind":"span","name":...,"cat":...,"ts":N,"dur":N,"tid":N,
//    "actor":N,"span":"<hex16>"[,"parent":"<hex16>"][,"args":"..."]}
//
// The line is ordinary JSON.  The fast reader only accepts this exact
// field order without escapes; a line with escaped strings or an
// "args" field (whose JSON-encoded value always carries escaped
// quotes) returns nullopt, and the caller falls back to
// JsonObject::parse + obs::trace_event_from_json.  The hot span
// categories (method-call, test-case) never carry args, so the fast
// path covers virtually the whole stream.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "stc/obs/trace.h"

namespace stc::serve {

/// Append the canonical streamed-span line for `event` to `out` (no
/// trailing newline).  Inverse of parse_span_line.
void append_span_line(std::string& out, const obs::TraceEvent& event);

/// Cheap prefix test: does `line` start like a canonical span line?
[[nodiscard]] bool is_span_line(std::string_view line) noexcept;

/// Strict parse of one canonical span line.  nullopt when the line is
/// not in canonical form — never throws; the caller must then fall
/// back to the generic JSON path, so a nullopt is a slow path, not an
/// error.
[[nodiscard]] std::optional<obs::TraceEvent> parse_span_line(
    std::string_view line);

}  // namespace stc::serve
