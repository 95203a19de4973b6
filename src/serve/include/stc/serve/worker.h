// Worker daemon side of the campaign service (`concat serve`).
//
// A daemon owns one listening socket and serves one coordinator at a
// time.  A session begins with a Hello handshake (protocol version is
// checked by the frame decoder; component, seed, oracle/model config
// and campaign fingerprint by the SessionFactory), then loops:
//
//     Work {item, mutant[, parent]}  ->  Result {item, fate, ...}
//     Ping {nonce}                   ->  Pong {nonce}
//     Shutdown | EOF                 ->  session ends
//
// When the Hello asks for it, the daemon also streams its spans and
// telemetry events back in Telemetry frames (docs/FORMATS.md §11).
//
// The daemon is deliberately component-agnostic: everything that knows
// about t-specs, suites and mutants arrives through the SessionFactory
// (serve/builtin_host.h provides the factory for the built-in MFC
// components).  A handshake the factory rejects — unknown component,
// fingerprint mismatch — answers HelloAck{ok:false} and closes; a peer
// speaking another protocol version, or garbage, gets an Error frame
// naming the problem (for a version mismatch, both versions).  Either
// way the daemon survives and accepts the next coordinator (unless
// `once`).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "stc/obs/context.h"
#include "stc/obs/json.h"
#include "stc/serve/socket.h"

namespace stc::serve {

/// One accepted campaign: built by the SessionFactory from the Hello
/// payload, asked to evaluate each assigned work item.
class Session {
public:
    virtual ~Session() = default;

    /// The campaign fingerprint this session computed from the
    /// handshake config — echoed in HelloAck for the coordinator's
    /// cross-check.
    [[nodiscard]] virtual const std::string& fingerprint() const = 0;

    /// Evaluate one work item ({"item": N, "mutant": id}); returns the
    /// Result payload ({"fate": ..., "reason": ..., "hit": ...,
    /// "probe_kill": ..., "model_only": ..., "item": N, "mutant": id,
    /// "wall_ms": ...}), which the daemon renders once for the Result
    /// frame and once more, as `item-finish`, for streamed telemetry.
    /// Throwing aborts the session with an Error frame.
    [[nodiscard]] virtual obs::JsonObject evaluate(
        const obs::JsonObject& work) = 0;
};

/// Build a Session from a Hello payload, or nullptr with `*error` set
/// (the HelloAck rejection message).  `obs` is the observability
/// context the session's executors should record into: the daemon's own
/// instruments normally, or a per-session streaming tracer/metrics pair
/// when the coordinator asked for streamed spans or telemetry
/// (docs/FORMATS.md §11).
using SessionFactory = std::function<std::unique_ptr<Session>(
    const obs::JsonObject& hello, const obs::Context& obs,
    std::string* error)>;

struct ServeOptions {
    /// TCP port to listen on; 0 picks an ephemeral port (bind() reports
    /// the choice — the in-process test/bench path).
    std::uint16_t port = 0;
    /// Listen address.  The protocol has no authentication, so the
    /// default is loopback-only; `concat serve --bind 0.0.0.0` opts in
    /// to cross-host exposure (docs/FORMATS.md §10 trust model).
    std::string bind_host = "127.0.0.1";
    /// Exit the serve loop after one coordinator session (CI gates and
    /// tests; a long-lived daemon keeps accepting).
    bool once = false;
    obs::Context obs;
    /// JSONL telemetry event sink (serve-start / worker-session /
    /// item-finish / worker-disconnect events); may be empty.
    std::function<void(const obs::JsonObject&)> telemetry;
};

class WorkerDaemon {
public:
    WorkerDaemon(SessionFactory factory, ServeOptions options);
    ~WorkerDaemon();

    WorkerDaemon(const WorkerDaemon&) = delete;
    WorkerDaemon& operator=(const WorkerDaemon&) = delete;

    /// Bind the listening socket; returns the bound port.  Throws
    /// stc::Error when the port is taken.  Also installs the process's
    /// SIGPIPE-ignore disposition: a coordinator that vanishes mid-write
    /// must surface as an I/O error on this daemon, not kill it.
    std::uint16_t bind();

    /// Accept-and-serve loop.  Returns after one session when `once`,
    /// after stop() otherwise.  bind() must have been called.
    void serve();

    /// Ask a serve() loop on another thread to exit after the current
    /// session (closes the listening socket).
    void stop();

    /// Sessions served so far.
    [[nodiscard]] std::size_t sessions() const noexcept { return sessions_; }

private:
    void serve_connection(int fd);

    SessionFactory factory_;
    ServeOptions options_;
    Fd listener_;
    std::uint16_t port_ = 0;
    std::size_t sessions_ = 0;
    std::atomic<bool> stopping_{false};  ///< set by stop() on another thread
};

}  // namespace stc::serve
