// Fork-based sandbox worker pool: the one isolated execution engine,
// behind both `concat campaign --isolate` and `concat fuzz --isolate`.
//
// The pool owns N worker slots, fixed at construction.  Each worker is
// a persistent process that loops "read request frame, run the job
// closure, write reply frame" over a pair of pipes, in stc::wire raw
// frames (stc/wire/frame.h).  run() is a single-threaded poll() event
// loop in the parent: it forks a worker into any slot whose worker is
// dead (lazily, only when there is a payload to hand it), dispatches
// payloads to idle workers, enforces per-item wall-clock deadlines
// (SIGKILL escalation), decodes every child death (limits.h), and
// reports exactly one TaskResult per payload.  A crashing, hanging, or
// allocation-bombing job kills only its worker — never the run.
//
// Workers live as long as the pool.  run() returns with its live
// workers still running, so successive run() calls reuse them (the
// fuzz loop calls run() once per case); the destructor closes the
// request pipes, reaps every worker, and emits its `worker-exit`
// through PoolOptions::on_event — which must therefore outlive the pool.
//
// Why not fork from the work-stealing thread pool?  fork() in a
// multithreaded process clones only the calling thread; any lock held
// by another thread at that instant stays locked forever in the child.
// Isolation therefore replaces the thread pool: one parent thread,
// N worker *processes*, parallelism from the processes.
//
// Hygiene rules the implementation lives by:
//   - children terminate with _exit() only — exit() would flush stdio
//     and ofstream buffers inherited from the parent, duplicating
//     report/store/telemetry output;
//   - each freshly forked child closes every other live worker's pipe
//     fds, otherwise a sibling holding a write end defeats the
//     parent's EOF-based death detection;
//   - the parent ignores SIGPIPE so writing to a just-died worker is
//     an EPIPE error return, not a process-killing signal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stc/obs/context.h"
#include "stc/sandbox/limits.h"

namespace stc::sandbox {

/// The work a child performs per request: payload in, reply out.  Runs
/// in the forked child only; throwing makes the child _exit with
/// kWorkerFailureExit.  Must not touch parent-owned streams or files.
using Job = std::function<std::string(const std::string&)>;

enum class WorkerEventKind {
    Spawn,  ///< a worker process was forked
    Exit,   ///< a worker process was reaped
    Kill,   ///< the parent SIGKILLed a worker for missing its deadline
};

[[nodiscard]] const char* to_string(WorkerEventKind kind) noexcept;

/// Lifecycle notification, forwarded to telemetry by the scheduler.
struct WorkerEvent {
    WorkerEventKind kind = WorkerEventKind::Spawn;
    std::size_t worker = 0;  ///< stable slot ordinal, not the pid
    std::int64_t pid = 0;
    std::string detail;  ///< Exit: outcome kind ("" for clean shutdown)
};

struct PoolOptions {
    /// Worker processes; 0 and 1 both mean a single worker.
    std::size_t workers = 1;
    SandboxLimits limits;
    /// Metrics/trace instrumentation (sandbox.* counters, worker spans).
    obs::Context obs;
    /// Worker lifecycle callback (telemetry bridge).  Runs on the
    /// parent thread, in run() and in the destructor, so it must not
    /// throw.
    std::function<void(const WorkerEvent&)> on_event;
    /// Called when payload `item` is handed to worker `worker` —
    /// the isolated twin of the thread pool's item-start event.
    std::function<void(std::size_t item, std::size_t worker)> on_dispatch;
};

/// How one dispatched payload ended.
struct TaskResult {
    DecodedExit exit;     ///< ExitKind::Ok iff a complete reply arrived
    std::string payload;  ///< the reply frame (valid when ok())
    std::size_t worker = 0;
    double wall_ms = 0.0;

    [[nodiscard]] bool ok() const noexcept {
        return exit.kind == ExitKind::Ok;
    }
    /// "" for ok(); else "crash-signal:<n>" / "timeout" /
    /// "resource-limit" / "worker-exit:<c>".
    [[nodiscard]] std::string outcome() const { return outcome_kind(exit); }
};

/// Totals over the pool's lifetime, across run() calls.
struct PoolStats {
    std::size_t spawned = 0;    ///< total forks, including respawns
    std::size_t respawned = 0;  ///< forks into a slot that had a worker before
    std::size_t kills = 0;      ///< deadline SIGKILLs sent
    std::size_t crashes = 0;    ///< items ending in CrashSignal
    std::size_t timeouts = 0;   ///< items ending in Timeout
    std::size_t resource_limits = 0;  ///< items ending in ResourceLimit
    std::size_t worker_exits = 0;     ///< items ending in WorkerExit
};

class WorkerPool {
public:
    /// Sizes the worker slots; forks nothing yet.
    WorkerPool(Job job, PoolOptions options);
    /// Shuts every live worker down and reaps it (see the file comment).
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Execute every payload in a sandbox worker.  `on_result` fires on
    /// the parent thread exactly once per payload, in completion order
    /// (callers needing deterministic output must slot results by
    /// index).  Returns when all payloads have a result, leaving live
    /// workers running for the next call.
    void run(const std::vector<std::string>& payloads,
             const std::function<void(std::size_t index, TaskResult)>&
                 on_result);

    [[nodiscard]] const PoolStats& stats() const noexcept;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace stc::sandbox
