#include "stc/serve/dispatch.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <optional>
#include <string_view>
#include <utility>

#include "stc/serve/span_codec.h"
#include "stc/support/error.h"
#include "stc/wire/frame.h"

namespace stc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// One sent, unanswered Work frame.
struct Outstanding {
    std::size_t pos;        ///< position in the caller's `items`
    std::uint64_t sent_us;  ///< trace-clock send time
};

struct WorkerState {
    enum class Phase { Handshaking, Ready, Dead };

    Endpoint endpoint;
    Fd fd;
    wire::Decoder decoder;
    Phase phase = Phase::Dead;
    /// Unsent positions in the caller's `items` vector: this worker's
    /// shard, and once it is dead also its unanswered window.
    /// Positions, not WorkItem::index: under `--resume` the caller
    /// ships only the pending subset, so items[pos].index need not
    /// equal pos.  The item's global index travels on the wire and in
    /// telemetry.
    std::deque<std::size_t> queue;
    /// Sent, unanswered Work frames, oldest first: the worker answers
    /// them in arrival order, so the front is the next Result.
    std::deque<Outstanding> window;
    Clock::time_point last_heard;
    bool ping_outstanding = false;
    /// Trace-clock time the coordinator finished merging this worker's
    /// last Result (where its next item-dispatch span may start).
    std::uint64_t merged_us = 0;
};

}  // namespace

Coordinator::Coordinator(DispatchOptions options)
    : options_(std::move(options)) {
    if (options_.workers.empty()) {
        throw Error("dispatch needs at least one worker endpoint");
    }
}

DispatchStats Coordinator::run(const std::vector<campaign::WorkItem>& items,
                               const ResultHandler& on_result) {
    // A worker SIGKILLed mid-stream must surface as EPIPE on our next
    // write, not as a SIGPIPE death of the coordinator.
    ::signal(SIGPIPE, SIG_IGN);
    const auto t0 = Clock::now();
    obs::Tracer& tracer = options_.obs.tracer;
    if (tracer.enabled() && tracer.trace_id() == 0) {
        // Mint the campaign-wide trace id from the fingerprint, so the
        // same campaign always produces the same id (and reruns of a
        // different campaign a different one).  Workers stamp it into
        // their streamed trace files via Hello's "trace" field.
        std::uint64_t id = 0;
        for (const unsigned char c : options_.expected_fingerprint) {
            id = obs::mix64(id ^ c);
        }
        tracer.set_trace_id(id != 0 ? id : 1);
    }
    const bool tracing = tracer.enabled();
    const obs::SpanScope span(tracer, "phase", "dispatch");
    // Per-item span id, minted by the coordinator and carried in the
    // Work frame's "parent": the worker's work-item span parents on it,
    // and the coordinator's synthetic item-dispatch span *is* it, which
    // is what links dispatch -> wire -> evaluation in the merged trace.
    auto item_span_id = [&](std::size_t pos) {
        return obs::mix64(
            tracer.trace_id() ^
            obs::mix64(static_cast<std::uint64_t>(items[pos].index) + 1));
    };

    DispatchStats stats;
    stats.workers = options_.workers.size();

    auto emit = [&](const obs::JsonObject& event) {
        if (options_.telemetry) options_.telemetry(event);
    };
    // A Telemetry frame is newline-joined lines, each a worker-streamed
    // span (canonical span line) or a §5 event line; each folds into the
    // coordinator's own instruments.  Never fatal: a malformed line is
    // dropped, not a protocol error — telemetry must not be able to kill
    // a campaign.
    auto handle_telemetry_line = [&](std::string_view line) {
        if (is_span_line(line)) {
            if (!tracing) return;
            // The strict scanner takes nearly every span; escaped
            // strings and args-bearing spans take the generic parse.
            auto event = parse_span_line(line);
            if (!event) {
                const auto body = obs::JsonObject::parse(line);
                if (body) event = obs::trace_event_from_json(*body);
            }
            if (event) tracer.absorb(std::move(*event));
            return;
        }
        if (const auto event = obs::JsonObject::parse(line)) emit(*event);
    };
    auto handle_telemetry = [&](const std::string& payload) {
        std::size_t start = 0;
        while (start < payload.size()) {
            std::size_t end = payload.find('\n', start);
            if (end == std::string::npos) end = payload.size();
            if (end > start) {
                handle_telemetry_line(
                    std::string_view(payload).substr(start, end - start));
            }
            start = end + 1;
        }
    };

    std::vector<WorkerState> workers(options_.workers.size());
    std::size_t remaining = items.size();
    std::uint64_t ping_nonce = 0;

    auto live_count = [&] {
        std::size_t n = 0;
        for (const WorkerState& w : workers) {
            if (w.phase != WorkerState::Phase::Dead) ++n;
        }
        return n;
    };

    // Declare worker `w` dead.  Its unanswered window goes back to the
    // front of its queue, and the survivors take that queue under the
    // same rule as any other (`take`).  Item results are
    // schedule-independent, so who re-executes what cannot change the
    // merged fates.
    auto fail_worker = [&](std::size_t w, const std::string& reason) {
        WorkerState& state = workers[w];
        if (state.phase == WorkerState::Phase::Dead) return;
        state.phase = WorkerState::Phase::Dead;
        state.fd.close();
        ++stats.disconnects;
        while (!state.window.empty()) {
            state.queue.push_front(state.window.back().pos);
            state.window.pop_back();
        }
        emit(obs::JsonObject()
                 .set("event", "worker-disconnect")
                 .set("worker", static_cast<std::uint64_t>(w))
                 .set("endpoint", state.endpoint.spec)
                 .set("reason", reason)
                 .set("unfinished",
                      static_cast<std::uint64_t>(state.queue.size())));
    };

    // Connect and greet every endpoint.  A worker that cannot be
    // reached is a dead worker, not a fatal error — the survivors take
    // its shard, exactly as on the mid-campaign fault path.
    for (std::size_t w = 0; w < workers.size(); ++w) {
        WorkerState& state = workers[w];
        state.endpoint = options_.workers[w];
        state.phase = WorkerState::Phase::Handshaking;
        try {
            state.fd = connect_to(state.endpoint);
        } catch (const Error& e) {
            fail_worker(w, std::string("connect: ") + e.what());
            continue;
        }
        obs::JsonObject hello = options_.hello;
        hello.set("ordinal", static_cast<std::uint64_t>(w));
        if (tracing) {
            hello.set("trace", obs::hex16(tracer.trace_id()))
                .set("parent", obs::hex16(span.id()))
                .set("now_us", tracer.now_us());
        }
        if (options_.stream_telemetry) {
            hello.set("telemetry_interval_ms",
                      static_cast<std::uint64_t>(
                          std::max(0, options_.telemetry_interval_ms)));
        }
        if (!wire::write_message(state.fd.get(), wire::MessageType::Hello,
                                 hello.to_line())) {
            fail_worker(w, "hello-write-failed");
            continue;
        }
        state.last_heard = Clock::now();
    }
    if (live_count() == 0) {
        throw Error("dispatch: no worker reachable (" +
                    std::to_string(stats.workers) + " configured)");
    }

    // Deterministic partition by content key.
    for (std::size_t pos = 0; pos < items.size(); ++pos) {
        workers[campaign::shard_of(items[pos].key, workers.size())]
            .queue.push_back(pos);
    }

    // The one scheduling rule: worker `w` takes the front of its own
    // queue and, once that is empty, the back of the longest other
    // queue — a live worker's unsent item (stolen) or a dead worker's
    // unfinished one (redispatched).
    auto take = [&](std::size_t w) -> std::optional<std::size_t> {
        std::deque<std::size_t>& own = workers[w].queue;
        if (!own.empty()) {
            const std::size_t pos = own.front();
            own.pop_front();
            return pos;
        }
        std::size_t from = w;
        for (std::size_t v = 0; v < workers.size(); ++v) {
            if (workers[v].queue.size() > workers[from].queue.size()) from = v;
        }
        if (from == w) return std::nullopt;
        const std::size_t pos = workers[from].queue.back();
        workers[from].queue.pop_back();
        if (workers[from].phase != WorkerState::Phase::Dead) {
            ++stats.stolen;
            return pos;
        }
        ++stats.redispatched;
        emit(obs::JsonObject()
                 .set("event", "worker-redispatch")
                 .set("item", static_cast<std::uint64_t>(items[pos].index))
                 .set("mutant", items[pos].mutant_id)
                 .set("from", static_cast<std::uint64_t>(from))
                 .set("to", static_cast<std::uint64_t>(w)));
        return pos;
    };

    // Drain one decoded message from worker `w`.  Returns false when the
    // worker was failed.
    auto handle_message = [&](std::size_t w, const wire::Message& message) {
        WorkerState& state = workers[w];
        switch (message.type) {
            case wire::MessageType::HelloAck: {
                if (state.phase != WorkerState::Phase::Handshaking) {
                    fail_worker(w, "protocol: unexpected hello-ack");
                    return false;
                }
                const auto ack = obs::JsonObject::parse(message.payload);
                if (!ack) {
                    fail_worker(w, "protocol: unparseable hello-ack");
                    return false;
                }
                if (!ack->get_bool("ok").value_or(false)) {
                    fail_worker(w, "handshake-rejected: " +
                                       ack->get_string("error").value_or("?"));
                    return false;
                }
                const std::string theirs =
                    ack->get_string("fingerprint").value_or("");
                if (!options_.expected_fingerprint.empty() &&
                    theirs != options_.expected_fingerprint) {
                    fail_worker(w, "fingerprint-mismatch: worker " + theirs +
                                       " vs coordinator " +
                                       options_.expected_fingerprint);
                    return false;
                }
                state.phase = WorkerState::Phase::Ready;
                ++stats.workers_connected;
                emit(obs::JsonObject()
                         .set("event", "worker-connect")
                         .set("worker", static_cast<std::uint64_t>(w))
                         .set("endpoint", state.endpoint.spec)
                         .set("fingerprint", theirs)
                         .set("queued",
                              static_cast<std::uint64_t>(state.queue.size())));
                return true;
            }
            case wire::MessageType::Result: {
                if (state.window.empty()) {
                    fail_worker(w, "protocol: unsolicited result");
                    return false;
                }
                const auto result = obs::JsonObject::parse(message.payload);
                if (!result) {
                    fail_worker(w, "protocol: unparseable result");
                    return false;
                }
                // A worker answers its Work frames in arrival order, so
                // this Result must be for the oldest outstanding item.
                // The wire carries the item's global index.
                const Outstanding sent = state.window.front();
                const std::size_t pos = sent.pos;
                const auto index = result->get_uint("item");
                if (!index ||
                    *index != static_cast<std::uint64_t>(items[pos].index)) {
                    fail_worker(w, "protocol: result for wrong item");
                    return false;
                }
                state.window.pop_front();
                if (tracing) {
                    // The synthetic item-dispatch span covers the time
                    // the item waited as its worker's oldest outstanding
                    // item: from its send, or from the merge of the
                    // worker's previous Result if that is later, to this
                    // Result.  One worker's spans are therefore disjoint.
                    // Its id is the minted per-item id the worker's
                    // work-item span named as parent, closing the causal
                    // chain.
                    obs::TraceEvent event;
                    event.name = "item-dispatch";
                    event.category = "dispatch";
                    event.ts_us = std::max(sent.sent_us, state.merged_us);
                    const std::uint64_t now_us = tracer.now_us();
                    event.dur_us =
                        now_us > event.ts_us ? now_us - event.ts_us : 0;
                    event.tid = 0;
                    event.actor = tracer.actor();
                    event.span_id = item_span_id(pos);
                    event.parent_id = span.id();
                    event.args =
                        obs::JsonObject()
                            .set("item",
                                 static_cast<std::uint64_t>(items[pos].index))
                            .set("mutant", items[pos].mutant_id)
                            .set("worker", static_cast<std::uint64_t>(w));
                    tracer.absorb(std::move(event));
                }
                --remaining;
                ++stats.executed;
                obs::JsonObject merged = *result;
                merged.set("worker", static_cast<std::uint64_t>(w));
                on_result(items[pos], merged);
                state.merged_us = tracer.now_us();
                return true;
            }
            case wire::MessageType::Telemetry:
                handle_telemetry(message.payload);
                return true;
            case wire::MessageType::Pong:
                return true;  // silence clock already reset by the read
            case wire::MessageType::Error: {
                const auto error = obs::JsonObject::parse(message.payload);
                fail_worker(
                    w, "peer-error: " +
                           (error ? error->get_string("error").value_or("?")
                                  : std::string("?")));
                return false;
            }
            default:
                fail_worker(w, std::string("protocol: unexpected ") +
                                   wire::to_string(message.type));
                return false;
        }
    };

    const int poll_slice_ms =
        std::max(10, std::min(options_.keepalive_ms / 2, 250));
    while (remaining > 0) {
        if (live_count() == 0) {
            throw Error("dispatch: all workers dead with " +
                        std::to_string(remaining) + " items unfinished");
        }

        // Top up every ready worker's window.
        for (std::size_t w = 0; w < workers.size(); ++w) {
            WorkerState& state = workers[w];
            while (state.phase == WorkerState::Phase::Ready &&
                   state.window.size() < kDispatchWindow) {
                const std::optional<std::size_t> pos = take(w);
                if (!pos) break;
                const campaign::WorkItem& item = items[*pos];
                obs::JsonObject work =
                    obs::JsonObject()
                        .set("item", static_cast<std::uint64_t>(item.index))
                        .set("mutant", item.mutant_id);
                if (tracing) work.set("parent", obs::hex16(item_span_id(*pos)));
                state.window.push_back(Outstanding{*pos, tracer.now_us()});
                if (!wire::write_message(state.fd.get(),
                                         wire::MessageType::Work,
                                         work.to_line())) {
                    fail_worker(w, "write-failed: " +
                                       std::string(std::strerror(errno)));
                    break;
                }
                emit(obs::JsonObject()
                         .set("event", "item-start")
                         .set("item", static_cast<std::uint64_t>(item.index))
                         .set("mutant", item.mutant_id)
                         .set("worker", static_cast<std::uint64_t>(w)));
            }
        }

        // Wait for traffic on any live connection.
        std::vector<pollfd> fds;
        std::vector<std::size_t> fd_owner;
        for (std::size_t w = 0; w < workers.size(); ++w) {
            if (workers[w].phase == WorkerState::Phase::Dead) continue;
            fds.push_back(pollfd{workers[w].fd.get(), POLLIN, 0});
            fd_owner.push_back(w);
        }
        const int ready = ::poll(fds.data(), fds.size(), poll_slice_ms);
        if (ready < 0 && errno != EINTR) {
            throw Error("dispatch poll(): " +
                        std::string(std::strerror(errno)));
        }

        for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            const std::size_t w = fd_owner[i];
            WorkerState& state = workers[w];
            if (state.phase == WorkerState::Phase::Dead) continue;
            char chunk[4096];
            const ssize_t got = ::read(state.fd.get(), chunk, sizeof chunk);
            if (got == 0) {
                fail_worker(w, state.decoder.pending_bytes() == 0
                                   ? "peer-closed"
                                   : "torn-frame");
                continue;
            }
            if (got < 0) {
                if (errno == EINTR || errno == EAGAIN) continue;
                fail_worker(w, "read-failed: " +
                                   std::string(std::strerror(errno)));
                continue;
            }
            state.last_heard = Clock::now();
            state.ping_outstanding = false;
            state.decoder.feed(chunk, static_cast<std::size_t>(got));
            for (;;) {
                wire::Message message;
                const wire::Decoder::Status status =
                    state.decoder.next(&message);
                if (status == wire::Decoder::Status::NeedMore) break;
                if (status != wire::Decoder::Status::Ok) {
                    fail_worker(w, std::string("protocol: ") +
                                       wire::to_string(status));
                    break;
                }
                if (!handle_message(w, message)) break;
            }
        }

        // Keepalive bookkeeping: probe the quiet, bury the silent.
        const auto now = Clock::now();
        for (std::size_t w = 0; w < workers.size(); ++w) {
            WorkerState& state = workers[w];
            if (state.phase == WorkerState::Phase::Dead) continue;
            const auto silent_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - state.last_heard)
                    .count();
            if (silent_ms > options_.dead_after_ms) {
                fail_worker(w, "keepalive-timeout after " +
                                   std::to_string(silent_ms) + "ms");
            } else if (silent_ms > options_.keepalive_ms &&
                       !state.ping_outstanding) {
                const obs::JsonObject ping =
                    obs::JsonObject().set("nonce", ping_nonce++);
                if (!wire::write_message(state.fd.get(),
                                         wire::MessageType::Ping,
                                         ping.to_line())) {
                    fail_worker(w, "ping-write-failed");
                } else {
                    state.ping_outstanding = true;
                }
            }
        }
    }

    // Campaign complete: a polite Shutdown ends each surviving session.
    // A streaming worker flushes its tail telemetry (session-end event,
    // the ended worker-session span, a final metrics snapshot) before
    // closing, so when the Hello asked for streaming we keep reading its
    // connection until EOF.  Every worker gets its Shutdown first and
    // all drain in one poll loop under one bound, so a worker that
    // wedges cannot starve the others' drains.
    const bool draining = tracing || options_.stream_telemetry;
    for (WorkerState& state : workers) {
        if (state.phase == WorkerState::Phase::Dead) continue;
        (void)wire::write_message(state.fd.get(), wire::MessageType::Shutdown,
                                  "");
        if (!draining) state.fd.close();
    }
    const auto drain_deadline = Clock::now() + std::chrono::milliseconds(2000);
    for (;;) {
        std::vector<pollfd> fds;
        std::vector<WorkerState*> fd_owner;
        for (WorkerState& state : workers) {
            if (!state.fd.valid()) continue;
            fds.push_back(pollfd{state.fd.get(), POLLIN, 0});
            fd_owner.push_back(&state);
        }
        const auto left_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                drain_deadline - Clock::now())
                .count();
        if (fds.empty() || left_ms <= 0) break;
        const int ready =
            ::poll(fds.data(), fds.size(), static_cast<int>(left_ms));
        if (ready < 0 && errno != EINTR) break;
        for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            WorkerState& state = *fd_owner[i];
            char chunk[4096];
            const ssize_t got = ::read(state.fd.get(), chunk, sizeof chunk);
            if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
            if (got <= 0) {  // the worker flushed and closed, or is gone
                state.fd.close();
                continue;
            }
            state.decoder.feed(chunk, static_cast<std::size_t>(got));
            for (;;) {
                wire::Message message;
                const wire::Decoder::Status status =
                    state.decoder.next(&message);
                if (status != wire::Decoder::Status::Ok) {
                    if (status != wire::Decoder::Status::NeedMore) {
                        state.fd.close();  // poisoned stream
                    }
                    break;
                }
                if (message.type == wire::MessageType::Telemetry) {
                    handle_telemetry(message.payload);
                }
            }
        }
    }

    stats.wall_ms = ms_since(t0);
    options_.obs.metrics.observe_ms("dispatch.wall_ms", stats.wall_ms);
    options_.obs.metrics.add("dispatch.executed", stats.executed);
    options_.obs.metrics.add("dispatch.redispatched", stats.redispatched);
    options_.obs.metrics.add("dispatch.disconnects", stats.disconnects);
    return stats;
}

}  // namespace stc::serve
