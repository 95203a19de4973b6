// Span tracer — where the time of a pipeline run goes.
//
// A Tracer collects *complete spans* (begin/end pairs, usually via the
// RAII SpanScope) from any number of threads and exports them as Chrome
// trace-event JSON ("X" phase events), loadable in Perfetto or
// chrome://tracing.  Conventional categories, from coarse to fine:
//
//   phase              one pipeline stage (generate, baseline, items...)
//   campaign           one work item on a pool worker, completion included
//   serve              one item on a daemon (work-item), or the dispatch
//                      coordinator's decode + completion of its result
//                      (merge)
//   test-case          one TestCase executed by a runner
//   method-call        one CUT method invocation inside a case
//   oracle-compare     one golden-vs-observed suite classification
//   mutant-evaluation  one mutant's full classification (campaign item)
//
// Design points:
//   - a default-constructed Tracer is disabled; begin()/end() are a
//     single null check, no lock, no allocation — instrumentation can
//     stay unconditionally in hot paths;
//   - span ids are deterministic: hash(worker ordinal, per-thread
//     sequence number), never derived from addresses or clock values,
//     so two runs with the same schedule produce identical ids;
//   - timestamps come from one steady clock anchored at tracer
//     creation.  They vary run to run and therefore NEVER feed any
//     artifact the determinism gate byte-compares — trace files are a
//     side channel, like stderr.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stc/obs/json.h"

namespace stc::obs {

/// splitmix64 finalizer — the framework's id-mixing primitive.  Span
/// ids, trace ids and the coordinator's synthetic per-item span ids are
/// all derived through it from deterministic inputs (never addresses or
/// clocks), so equal schedules produce equal ids.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// 16-digit lowercase hex rendering of an id (the on-disk/on-wire form
/// of span, parent and trace ids) and its inverse.
[[nodiscard]] std::string hex16(std::uint64_t value);
[[nodiscard]] std::uint64_t from_hex16(std::string_view text);

/// One completed span, as exported ("ph":"X").
struct TraceEvent {
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;   ///< start, microseconds since tracer epoch
    std::uint64_t dur_us = 0;  ///< duration, microseconds
    int tid = 0;               ///< thread ordinal (registration order)
    int actor = 0;  ///< process/session ordinal; exported as "pid": actor+1
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;  ///< 0 for a thread's root spans
    JsonObject args;              ///< flat extra fields
};

/// Read one streamed span back from its parsed Telemetry-frame line
/// (docs/FORMATS.md §11, written by serve::append_span_line): ids as
/// hex16 under "span"/"parent", args nested as one JSON-encoded string
/// under "args".  std::nullopt when a required field is missing.  The
/// general reader behind the span codec's fast scanner.
[[nodiscard]] std::optional<TraceEvent> trace_event_from_json(
    const JsonObject& object);

class Tracer {
public:
    /// Opaque open-span token returned by begin(); inert when the
    /// tracer is disabled.
    struct Span {
        std::uint64_t id = 0;
        std::uint64_t start_us = 0;
        int tid = -1;  ///< -1 marks an inert token
        std::uint64_t parent_override = 0;  ///< nonzero: use instead of stack
        std::string name;
        std::string category;
        JsonObject args;
    };

    Tracer() = default;  ///< disabled: begin/end are no-ops

    /// A fresh, enabled, collecting tracer.  Copies share the buffer.
    /// `actor` is the process/session ordinal folded into every span id
    /// (dispatch coordinator 0, worker sessions 1..N) so ids from
    /// different actors never collide when traces are merged; it is
    /// exported as the Chrome "pid" (actor+1).
    [[nodiscard]] static Tracer make(int actor = 0);

    [[nodiscard]] bool enabled() const noexcept { return state_ != nullptr; }

    /// The actor ordinal this tracer stamps (0 when disabled).
    [[nodiscard]] int actor() const noexcept;

    /// Open a span on the calling thread.  Spans must close in LIFO
    /// order per thread (guaranteed when using SpanScope).  Const for
    /// the same reason as Metrics::add — a Tracer is a shared handle.
    [[nodiscard]] Span begin(std::string_view category, std::string_view name,
                             JsonObject args = {}) const;

    /// begin(), but the recorded event's parent is `parent` instead of
    /// the enclosing span on this thread's stack — the cross-process
    /// link (parent lives in another actor's tracer).  The span still
    /// joins the stack, so spans opened inside it nest normally.  A
    /// `parent` of 0 behaves exactly like begin().
    [[nodiscard]] Span begin_with_parent(std::string_view category,
                                         std::string_view name,
                                         std::uint64_t parent,
                                         JsonObject args = {}) const;

    /// Close `span` and record the complete event.
    void end(Span&& span) const;

    /// Append one already-complete foreign event (a worker span that
    /// arrived over the wire, or a synthetic coordinator span whose
    /// begin/end did not nest LIFO).  The caller owns every field,
    /// including timestamps — they must be on this tracer's epoch to
    /// render sensibly.
    void absorb(TraceEvent event) const;

    /// Campaign-wide trace id (0 = unset).  Exported as a top-level
    /// "traceId" hex16 string in the Chrome JSON; purely annotational.
    void set_trace_id(std::uint64_t id) const;
    [[nodiscard]] std::uint64_t trace_id() const;

    /// Microseconds since this tracer's epoch (0 when disabled) — for
    /// stamping synthetic events handed to absorb().
    [[nodiscard]] std::uint64_t now_us() const;

    /// Completed spans so far (across all threads).
    [[nodiscard]] std::size_t event_count() const;

    /// Copy of the completed spans, in completion order.
    [[nodiscard]] std::vector<TraceEvent> events() const;

    /// Copy of the completed spans starting at index `cursor` — the
    /// incremental drain used by streaming (remember event_count() as
    /// the next cursor).
    [[nodiscard]] std::vector<TraceEvent> events_from(std::size_t cursor) const;

    /// Export everything collected so far as Chrome trace-event JSON:
    /// {"traceEvents":[...],"displayTimeUnit":"ms"} with one event per
    /// line.  Loadable in Perfetto / chrome://tracing.
    void write_chrome_trace(std::ostream& os) const;

private:
    struct State;
    std::shared_ptr<State> state_;
};

/// RAII span: opens on construction, closes on destruction.  With a
/// disabled tracer construction and destruction are single branches.
class SpanScope {
public:
    SpanScope(const Tracer& tracer, std::string_view category,
              std::string_view name, JsonObject args = {});
    /// Cross-process variant: the span's recorded parent is `parent`
    /// (see Tracer::begin_with_parent).
    SpanScope(const Tracer& tracer, std::string_view category,
              std::string_view name, std::uint64_t parent,
              JsonObject args = {});
    ~SpanScope();

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    /// This span's id (0 with a disabled tracer) — what children in
    /// other processes name as their "parent".
    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

private:
    Tracer tracer_;
    Tracer::Span span_;
};

/// Parse a Chrome trace-event file previously written by
/// write_chrome_trace (the emitted subset: an object with a
/// "traceEvents" array of flat "X" events, each with an optional flat
/// "args" object).  std::nullopt on malformed input.  Used by the
/// schema round-trip tests and by external tooling checks.
[[nodiscard]] std::optional<std::vector<TraceEvent>> parse_chrome_trace(
    std::istream& is);

}  // namespace stc::obs
