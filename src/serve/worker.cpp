#include "stc/serve/worker.h"

#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <sstream>
#include <utility>

#include "stc/serve/span_codec.h"
#include "stc/support/error.h"
#include "stc/wire/frame.h"

namespace stc::serve {

namespace {

/// Read more bytes into the decoder; false on EOF or hard error.
bool pump(int fd, wire::Decoder& decoder) {
    char chunk[4096];
    for (;;) {
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got > 0) {
            decoder.feed(chunk, static_cast<std::size_t>(got));
            return true;
        }
        if (got == 0) return false;  // EOF: coordinator closed
        if (errno == EINTR) continue;
        return false;
    }
}

}  // namespace

WorkerDaemon::WorkerDaemon(SessionFactory factory, ServeOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {}

WorkerDaemon::~WorkerDaemon() = default;

std::uint16_t WorkerDaemon::bind() {
    // A coordinator can vanish between our read and our write; EPIPE
    // must come back as an error return so the session ends with a
    // worker-disconnect event, not as a SIGPIPE process death.
    ::signal(SIGPIPE, SIG_IGN);
    listener_ = listen_on(options_.bind_host, options_.port, &port_);
    if (options_.telemetry) {
        options_.telemetry(obs::JsonObject()
                               .set("event", "serve-start")
                               .set("port", static_cast<std::uint64_t>(port_)));
    }
    return port_;
}

void WorkerDaemon::serve() {
    if (!listener_.valid()) throw Error("WorkerDaemon::serve before bind");
    while (!stopping_) {
        Fd conn = accept_on(listener_.get());
        if (!conn.valid()) {
            if (stopping_) break;
            continue;
        }
        serve_connection(conn.get());
        ++sessions_;
        if (options_.once) break;
    }
}

void WorkerDaemon::stop() {
    stopping_ = true;
    if (listener_.valid()) {
        // Wakes a blocked accept() with an error; the loop then sees
        // stopping_ and exits.
        ::shutdown(listener_.get(), SHUT_RDWR);
    }
}

void WorkerDaemon::serve_connection(int fd) {
    const obs::SpanScope span(options_.obs.tracer, "phase", "serve-session");
    wire::Decoder decoder;
    std::unique_ptr<Session> session;
    std::uint64_t ordinal = 0;
    std::size_t items = 0;

    // Streaming state (docs/FORMATS.md §11): set up at Hello when the
    // coordinator asks for spans ("trace") and/or telemetry events
    // ("telemetry_interval_ms").
    bool stream_events = false;
    std::uint64_t telemetry_interval_ms = 0;
    obs::Tracer session_tracer;    // enabled only when streaming spans
    obs::Metrics session_metrics;  // enabled only when streaming events
    obs::Tracer::Span session_span;
    std::size_t span_cursor = 0;
    // Worker span timestamps are rebased onto the coordinator's trace
    // clock: Hello carries the coordinator's now_us, and the session
    // tracer's epoch is "now" at Hello time, so the offset aligns the
    // two timelines to within the handshake's network latency.
    std::int64_t ts_offset_us = 0;
    auto last_snapshot = std::chrono::steady_clock::now();

    auto emit = [&](const obs::JsonObject& event) {
        if (options_.telemetry) options_.telemetry(event);
    };
    // A Telemetry frame is newline-joined lines, each a canonical span
    // line or a §5 event line.  Lines coalesce here and flush once per
    // work item (or at this size cap) instead of paying one write()
    // syscall each — the difference between ~95 and ~1600 items/s on a
    // hot campaign with streaming enabled.
    constexpr std::size_t kTelemetryBatchBytes = 32 * 1024;
    std::string telemetry_batch;
    auto flush_telemetry = [&] {
        if (telemetry_batch.empty()) return true;
        const bool ok = wire::write_message(fd, wire::MessageType::Telemetry,
                                            telemetry_batch);
        telemetry_batch.clear();
        return ok;
    };
    /// Close the line just appended to the batch; false only when the
    /// size cap forced a flush into a dead socket.
    auto end_line = [&] {
        return telemetry_batch.size() < kTelemetryBatchBytes ||
               flush_telemetry();
    };
    /// Ship one JSONL event to the coordinator's telemetry stream (and
    /// the daemon's own sink).  False only on a dead socket.
    auto emit_streamed = [&](const obs::JsonObject& event) {
        emit(event);
        if (!stream_events) return true;
        if (!telemetry_batch.empty()) telemetry_batch += '\n';
        telemetry_batch += event.to_line();
        return end_line();
    };
    /// Ship the session tracer's newly completed spans, each appended
    /// as its canonical line straight into the batch.
    auto drain_spans = [&] {
        if (!session_tracer.enabled()) return true;
        for (obs::TraceEvent event : session_tracer.events_from(span_cursor)) {
            ++span_cursor;
            const std::int64_t ts =
                static_cast<std::int64_t>(event.ts_us) + ts_offset_us;
            event.ts_us = ts > 0 ? static_cast<std::uint64_t>(ts) : 0;
            if (!telemetry_batch.empty()) telemetry_batch += '\n';
            append_span_line(telemetry_batch, event);
            if (!end_line()) return false;
        }
        return true;
    };
    /// Ship one metrics snapshot; `force` ignores the cadence (the
    /// end-of-session flush).
    auto snapshot_metrics = [&](bool force) {
        if (!stream_events || !session_metrics.enabled()) return true;
        const auto now = std::chrono::steady_clock::now();
        if (!force) {
            if (telemetry_interval_ms == 0) return true;
            const auto since_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - last_snapshot)
                    .count();
            if (since_ms < static_cast<std::int64_t>(telemetry_interval_ms)) {
                return true;
            }
        }
        last_snapshot = now;
        std::ostringstream json;
        session_metrics.write_json(json);
        std::string text = json.str();
        if (!text.empty() && text.back() == '\n') text.pop_back();
        return emit_streamed(obs::JsonObject()
                                 .set("event", "metrics-snapshot")
                                 .set("worker", ordinal)
                                 .set("metrics", text));
    };
    auto disconnect = [&](const std::string& reason) {
        emit(obs::JsonObject()
                 .set("event", "worker-disconnect")
                 .set("worker", ordinal)
                 .set("items", static_cast<std::uint64_t>(items))
                 .set("reason", reason));
    };
    auto fail = [&](const std::string& message) {
        // Best effort: the peer may already be gone.
        (void)wire::write_message(
            fd, wire::MessageType::Error,
            obs::JsonObject().set("error", message).to_line());
        disconnect(message);
    };

    for (;;) {
        wire::Message message;
        const wire::Decoder::Status status = decoder.next(&message);
        if (status == wire::Decoder::Status::NeedMore) {
            if (!pump(fd, decoder)) {
                // Coordinator hung up.  Mid-handshake or mid-frame that
                // is an abnormal end; after a Shutdown we never reach
                // here (the Shutdown branch returns).
                disconnect(decoder.pending_bytes() == 0 ? "peer-closed"
                                                        : "torn-frame");
                return;
            }
            continue;
        }
        if (status != wire::Decoder::Status::Ok) {
            std::string what = std::string("protocol: ") + to_string(status);
            if (status == wire::Decoder::Status::BadVersion) {
                what += " (peer v" + std::to_string(decoder.peer_version()) +
                        ", this daemon v" +
                        std::to_string(wire::kProtocolVersion) + ")";
            }
            fail(what);
            return;
        }

        switch (message.type) {
            case wire::MessageType::Hello: {
                if (session != nullptr) {
                    // Mirrors the coordinator's duplicate-HelloAck
                    // handling: a session is configured exactly once.
                    fail("protocol: hello after handshake");
                    return;
                }
                const auto hello = obs::JsonObject::parse(message.payload);
                if (!hello) {
                    fail("handshake: unparseable hello payload");
                    return;
                }
                ordinal = hello->get_uint("ordinal").value_or(0);
                obs::Context session_obs = options_.obs;
                stream_events = hello->has("telemetry_interval_ms");
                telemetry_interval_ms =
                    hello->get_uint("telemetry_interval_ms").value_or(0);
                if (const auto trace = hello->get_string("trace")) {
                    // Span ids are qualified by actor = ordinal + 1 (the
                    // coordinator is actor 0), so the merged trace is
                    // collision-free by construction.
                    session_tracer =
                        obs::Tracer::make(static_cast<int>(ordinal) + 1);
                    session_tracer.set_trace_id(obs::from_hex16(*trace));
                    ts_offset_us =
                        static_cast<std::int64_t>(
                            hello->get_uint("now_us").value_or(0)) -
                        static_cast<std::int64_t>(session_tracer.now_us());
                    session_span = session_tracer.begin_with_parent(
                        "phase", "worker-session",
                        obs::from_hex16(
                            hello->get_string("parent").value_or("")),
                        obs::JsonObject().set("worker", ordinal));
                    session_obs.tracer = session_tracer;
                }
                if (stream_events) {
                    session_metrics = obs::Metrics::make();
                    session_obs.metrics = session_metrics;
                }
                std::string error;
                session = factory_(*hello, session_obs, &error);
                obs::JsonObject ack;
                ack.set("ok", session != nullptr);
                if (session != nullptr) {
                    ack.set("fingerprint", session->fingerprint());
                } else {
                    ack.set("error", error);
                }
                if (!wire::write_message(fd, wire::MessageType::HelloAck,
                                         ack.to_line())) {
                    disconnect("peer-closed");
                    return;
                }
                if (session == nullptr) {
                    disconnect("handshake-rejected: " + error);
                    return;
                }
                if (!emit_streamed(
                        obs::JsonObject()
                            .set("event", "worker-session")
                            .set("worker", ordinal)
                            .set("fingerprint", session->fingerprint())
                            .set("class",
                                 hello->get_string("class").value_or(""))) ||
                    !flush_telemetry()) {
                    disconnect("peer-closed");
                    return;
                }
                break;
            }
            case wire::MessageType::Work: {
                if (session == nullptr) {
                    fail("protocol: work before hello");
                    return;
                }
                const auto work = obs::JsonObject::parse(message.payload);
                if (!work) {
                    fail("protocol: unparseable work payload");
                    return;
                }
                obs::JsonObject result;
                try {
                    // The coordinator's "parent" is its minted per-item
                    // span id: everything the evaluation records nests
                    // under this span, which nests under that id in the
                    // merged trace.
                    const obs::SpanScope item_span(
                        session_tracer, "serve", "work-item",
                        obs::from_hex16(
                            work->get_string("parent").value_or("")),
                        obs::JsonObject()
                            .set("item", work->get_uint("item").value_or(0))
                            .set("mutant",
                                 work->get_string("mutant").value_or("")));
                    result = session->evaluate(*work);
                } catch (const Error& e) {
                    fail(std::string("evaluate: ") + e.what());
                    return;
                }
                if (!wire::write_message(fd, wire::MessageType::Result,
                                         result.to_line())) {
                    disconnect("peer-closed");
                    return;
                }
                ++items;
                obs::JsonObject finish = result;
                finish.set("event", "item-finish").set("worker", ordinal);
                if (!emit_streamed(finish) || !drain_spans() ||
                    !snapshot_metrics(false) || !flush_telemetry()) {
                    disconnect("peer-closed");
                    return;
                }
                break;
            }
            case wire::MessageType::Ping: {
                if (!wire::write_message(fd, wire::MessageType::Pong,
                                         message.payload)) {
                    disconnect("peer-closed");
                    return;
                }
                break;
            }
            case wire::MessageType::Shutdown: {
                // Final flush, best effort: the coordinator keeps
                // reading until EOF after its Shutdown, so the session
                // span (ended here, not by RAII — it must be complete
                // before the drain) and closing snapshot still arrive.
                (void)emit_streamed(
                    obs::JsonObject()
                        .set("event", "worker-session-end")
                        .set("worker", ordinal)
                        .set("items", static_cast<std::uint64_t>(items)));
                if (session_tracer.enabled()) {
                    session_tracer.end(std::move(session_span));
                    (void)drain_spans();
                }
                (void)snapshot_metrics(true);
                (void)flush_telemetry();
                return;
            }
            case wire::MessageType::Error: {
                const auto error = obs::JsonObject::parse(message.payload);
                disconnect("peer-error: " +
                           (error ? error->get_string("error").value_or("?")
                                  : std::string("?")));
                return;
            }
            default:
                fail(std::string("protocol: unexpected ") +
                     to_string(message.type));
                return;
        }
    }
}

}  // namespace stc::serve
