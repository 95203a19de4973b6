// Coordinator side of the campaign service (`concat dispatch`).
//
// The coordinator owns the campaign: it builds the work list, shards it
// deterministically across the configured workers (shard_of over the
// item's content key, so the same campaign splits identically on every
// run), drives each worker over one TCP connection, and merges the
// Result stream back into per-item slots — completion order never leaks
// into the merged output, exactly as in the in-process scheduler.
//
// Scheduling: each ready worker keeps up to kDispatchWindow Work frames
// outstanding, refilled from the front of its own shard; once that is
// empty it takes unsent items from the back of the longest other queue.
//
// Fault model: a worker is dead when its connection EOFs, its stream
// fails to decode (a peer of another protocol version included), a
// write to it errors, a Result does not answer its oldest outstanding
// Work, or it stays silent past `dead_after_ms` (keepalive Pings are
// sent after `keepalive_ms` of silence).  A dead
// worker's unfinished items — its window and its queue — stay in its
// queue, and the survivors take them under the same rule; item results
// are a pure function of (handshake config, item), so re-execution
// elsewhere yields the same fates.  Only when every worker is dead with
// items still unfinished does the dispatch fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stc/campaign/work_list.h"
#include "stc/obs/context.h"
#include "stc/obs/json.h"
#include "stc/serve/socket.h"

namespace stc::serve {

/// Work frames a worker may have outstanding at once.  A worker answers
/// its Work frames strictly in arrival order (docs/FORMATS.md §10), so
/// the window needs no protocol support.
inline constexpr std::size_t kDispatchWindow = 4;

struct DispatchOptions {
    /// Worker endpoints (`--workers host:port[,host:port...]`).  List
    /// order defines worker ordinals, which name workers in telemetry.
    std::vector<Endpoint> workers;
    /// Hello payload sent to every worker (builtin_host.h builds it for
    /// the built-in components); the coordinator adds the per-worker
    /// "ordinal" field.
    obs::JsonObject hello;
    /// The coordinator's own campaign fingerprint.  Every HelloAck is
    /// cross-checked against it — a worker that computed a different
    /// fingerprint from the same config is running different code and
    /// would poison the merge, so it is rejected as dead.
    std::string expected_fingerprint;
    /// Silence (ms) after which a worker is probed with a Ping.
    int keepalive_ms = 500;
    /// Silence (ms) after which a worker is declared dead.
    int dead_after_ms = 5000;
    obs::Context obs;
    /// JSONL telemetry sink (worker-connect / worker-disconnect /
    /// worker-redispatch / item-start events); may be empty.  With
    /// `stream_telemetry`, the workers' own events (item-finish,
    /// worker-session, metrics-snapshot) arrive here too, making this
    /// one sink fleet-wide (docs/FORMATS.md §11).
    std::function<void(const obs::JsonObject&)> telemetry;
    /// Ask workers to stream their telemetry events back over the
    /// socket (the `--telemetry-out` fleet aggregation).
    bool stream_telemetry = false;
    /// Metrics-snapshot cadence requested from streaming workers
    /// (`--telemetry-interval-ms`); 0 = item-fate events only, no
    /// periodic snapshots.
    int telemetry_interval_ms = 1000;
};

struct DispatchStats {
    std::size_t workers = 0;            ///< configured endpoints
    std::size_t workers_connected = 0;  ///< completed the handshake
    std::size_t disconnects = 0;        ///< died at any point
    std::size_t redispatched = 0;       ///< items taken from dead workers
    std::size_t stolen = 0;             ///< unsent items taken from live ones
    std::size_t executed = 0;           ///< results merged
    double wall_ms = 0.0;
};

class Coordinator {
public:
    /// Called once per merged result, in completion order; `result` is
    /// the worker's Result payload (sandbox codec fields + "item" +
    /// "wall_ms" + "worker").  Slot the outcome by item.index.
    using ResultHandler = std::function<void(const campaign::WorkItem& item,
                                             const obs::JsonObject& result)>;

    explicit Coordinator(DispatchOptions options);

    /// Drive `items` to completion across the workers.  `items` may be
    /// any subset of a campaign's work list (e.g. the pending remainder
    /// of a `--resume`): bookkeeping is positional, and the wire
    /// carries each item's global WorkItem::index.  Throws stc::Error
    /// when no worker survives the handshake or all workers die with
    /// items unfinished.
    DispatchStats run(const std::vector<campaign::WorkItem>& items,
                      const ResultHandler& on_result);

private:
    DispatchOptions options_;
};

}  // namespace stc::serve
