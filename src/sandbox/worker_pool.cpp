#include "stc/sandbox/worker_pool.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <utility>

#include "stc/wire/frame.h"

namespace stc::sandbox {

const char* to_string(WorkerEventKind kind) noexcept {
    switch (kind) {
        case WorkerEventKind::Spawn: return "worker-spawn";
        case WorkerEventKind::Exit: return "worker-exit";
        case WorkerEventKind::Kill: return "worker-kill";
    }
    return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Writing a request to a worker that just died must be an EPIPE error
/// return, not a fatal signal.
void ignore_sigpipe_once() {
    static const bool installed = [] {
        std::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)installed;
}

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Worker {
    pid_t pid = -1;
    int req_fd = -1;   ///< parent writes requests here
    int resp_fd = -1;  ///< parent reads replies here (nonblocking)
    wire::RawFrameBuffer buf;
    bool busy = false;
    bool deadline_killed = false;
    bool forked_before = false;  ///< the slot's next fork is a respawn
    std::size_t item = 0;
    Clock::time_point started{};
    Clock::time_point deadline{};

    [[nodiscard]] bool alive() const noexcept { return pid > 0; }
};

[[noreturn]] void child_main(const Job& job, int req_read, int resp_write) {
    for (;;) {
        auto request = wire::read_raw_frame(req_read);
        if (!request) ::_exit(0);  // parent closed the request pipe
        std::string reply;
        try {
            reply = job(*request);
        } catch (...) {
            ::_exit(kWorkerFailureExit);
        }
        if (!wire::write_raw_frame(resp_write, reply)) ::_exit(kWorkerFailureExit);
    }
}

void set_nonblocking(int fd) noexcept {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_fd(int& fd) noexcept {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/// Fork one worker into `slot`.  The child closes its siblings' pipe
/// ends (so their EOFs stay meaningful), installs the rlimit fences,
/// and enters the job loop; it never returns.
bool spawn_worker(Worker& slot, const Job& job, const SandboxLimits& limits,
                  const std::vector<Worker>& siblings) {
    int req[2];
    int resp[2];
    if (::pipe(req) != 0) return false;
    if (::pipe(resp) != 0) {
        ::close(req[0]);
        ::close(req[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(req[0]);
        ::close(req[1]);
        ::close(resp[0]);
        ::close(resp[1]);
        return false;
    }
    if (pid == 0) {
        ::close(req[1]);
        ::close(resp[0]);
        for (const Worker& sibling : siblings) {
            if (&sibling == &slot) continue;
            if (sibling.req_fd >= 0) ::close(sibling.req_fd);
            if (sibling.resp_fd >= 0) ::close(sibling.resp_fd);
        }
        apply_limits_in_child(limits);
        child_main(job, req[0], resp[1]);
    }
    ::close(req[0]);
    ::close(resp[1]);
    slot.pid = pid;
    slot.req_fd = req[1];
    slot.resp_fd = resp[0];
    set_nonblocking(slot.resp_fd);
    slot.buf.clear();
    slot.busy = false;
    slot.deadline_killed = false;
    return true;
}

/// Reap a dead (or dying) worker and decode how it ended.  Blocks in
/// waitpid — callers only reach this after EOF on the reply pipe or
/// after sending SIGKILL, so the wait is momentary.
DecodedExit reap_worker(Worker& worker) {
    int status = 0;
    pid_t got = -1;
    do {
        got = ::waitpid(worker.pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    const DecodedExit decoded =
        decode_wait_status(got == worker.pid ? status : 0,
                           worker.deadline_killed);
    close_fd(worker.req_fd);
    close_fd(worker.resp_fd);
    worker.pid = -1;
    worker.busy = false;
    worker.deadline_killed = false;
    worker.buf.clear();
    return decoded;
}

enum class ReadStatus { Open, Eof };

/// Pull everything currently readable into the worker's frame buffer.
ReadStatus drain(Worker& worker) {
    char chunk[4096];
    for (;;) {
        const ssize_t got = ::read(worker.resp_fd, chunk, sizeof chunk);
        if (got > 0) {
            worker.buf.feed(chunk, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) return ReadStatus::Eof;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::Open;
        return ReadStatus::Eof;  // unexpected read error: treat as dead
    }
}

}  // namespace

struct WorkerPool::Impl {
    Job job;
    SandboxLimits limits;
    obs::Context obs;
    std::function<void(const WorkerEvent&)> on_event;
    std::function<void(std::size_t, std::size_t)> on_dispatch;
    std::vector<Worker> workers;
    PoolStats stats;

    void emit(WorkerEventKind kind, std::size_t slot, pid_t pid,
              std::string detail) {
        if (obs.metrics.enabled()) {
            obs.metrics.add(std::string("sandbox.") + to_string(kind));
        }
        if (obs.tracer.enabled()) {
            obs::JsonObject args;
            args.set("worker", static_cast<std::uint64_t>(slot));
            args.set("pid", static_cast<std::int64_t>(pid));
            if (!detail.empty()) args.set("detail", detail);
            auto span = obs.tracer.begin("sandbox", to_string(kind),
                                         std::move(args));
            obs.tracer.end(std::move(span));
        }
        if (on_event) {
            WorkerEvent event;
            event.kind = kind;
            event.worker = slot;
            event.pid = static_cast<std::int64_t>(pid);
            event.detail = std::move(detail);
            on_event(event);
        }
    }

    void count_outcome(const DecodedExit& exit) {
        switch (exit.kind) {
            case ExitKind::Ok: break;
            case ExitKind::CrashSignal: ++stats.crashes; break;
            case ExitKind::Timeout: ++stats.timeouts; break;
            case ExitKind::ResourceLimit: ++stats.resource_limits; break;
            case ExitKind::WorkerExit: ++stats.worker_exits; break;
        }
        if (obs.metrics.enabled() && exit.kind != ExitKind::Ok) {
            obs.metrics.add(std::string("sandbox.outcome.") +
                            to_string(exit.kind));
        }
    }

    bool spawn(std::size_t slot) {
        Worker& worker = workers[slot];
        if (!spawn_worker(worker, job, limits, workers)) return false;
        ++stats.spawned;
        if (worker.forked_before) ++stats.respawned;
        worker.forked_before = true;
        emit(WorkerEventKind::Spawn, slot, worker.pid, "");
        return true;
    }
};

WorkerPool::WorkerPool(Job job, PoolOptions options)
    : impl_(std::make_unique<Impl>()) {
    ignore_sigpipe_once();
    impl_->job = std::move(job);
    impl_->limits = options.limits;
    impl_->obs = options.obs;
    impl_->on_event = std::move(options.on_event);
    impl_->on_dispatch = std::move(options.on_dispatch);
    impl_->workers.resize(std::max<std::size_t>(1, options.workers));
}

WorkerPool::~WorkerPool() {
    // Orderly shutdown: closing the request pipes EOFs every idle child
    // out of wire::read_raw_frame, so it _exit(0)s.  A worker still busy
    // (run() unwound mid-item) is killed rather than waited on.
    for (std::size_t i = 0; i < impl_->workers.size(); ++i) {
        Worker& worker = impl_->workers[i];
        if (!worker.alive()) continue;
        if (worker.busy) ::kill(worker.pid, SIGKILL);
        close_fd(worker.req_fd);
        const pid_t pid = worker.pid;
        (void)reap_worker(worker);
        impl_->emit(WorkerEventKind::Exit, i, pid, "");
    }
}

const PoolStats& WorkerPool::stats() const noexcept { return impl_->stats; }

void WorkerPool::run(
    const std::vector<std::string>& payloads,
    const std::function<void(std::size_t, TaskResult)>& on_result) {
    const std::size_t n = payloads.size();
    Impl& pool = *impl_;
    auto& workers = pool.workers;

    std::size_t next = 0;
    std::size_t completed = 0;

    auto complete = [&](std::size_t item, std::size_t slot, DecodedExit exit,
                        double wall_ms) {
        TaskResult result;
        result.exit = exit;
        result.worker = slot;
        result.wall_ms = wall_ms;
        on_result(item, std::move(result));
        ++completed;
    };
    const DecodedExit undispatched{ExitKind::WorkerExit, 0, -1};

    // Hand the next pending payload to `slot`, forking a fresh worker
    // if the slot has none.  A worker found dead at dispatch time (it
    // exited after its last reply) is reaped, replaced, and the same
    // item retried; two consecutive failures classify the item as a
    // worker exit rather than looping.
    auto dispatch = [&](std::size_t slot) {
        Worker& worker = workers[slot];
        std::size_t attempts = 0;
        while (next < n) {
            if (!worker.alive() && !pool.spawn(slot)) {
                // fork failed (EAGAIN/ENOMEM in the parent): surface
                // the item as a worker exit and keep the run alive.
                complete(next++, slot, undispatched, 0.0);
                continue;
            }
            const std::size_t item = next;
            if (!wire::write_raw_frame(worker.req_fd, payloads[item])) {
                const pid_t pid = worker.pid;
                const DecodedExit decoded = reap_worker(worker);
                pool.emit(WorkerEventKind::Exit, slot, pid,
                          outcome_kind(decoded));
                if (++attempts >= 2) {
                    complete(next++, slot, undispatched, 0.0);
                    attempts = 0;
                }
                continue;
            }
            ++next;
            worker.busy = true;
            worker.deadline_killed = false;
            worker.item = item;
            worker.started = Clock::now();
            if (pool.limits.timeout_ms > 0) {
                worker.deadline =
                    worker.started +
                    std::chrono::milliseconds(pool.limits.timeout_ms);
            }
            if (pool.on_dispatch) pool.on_dispatch(item, slot);
            return;
        }
    };

    // Reap a worker that hit EOF on its reply pipe, broke the frame
    // protocol (`corrupt`: killed here) or was killed for its deadline;
    // fail the item it still held, and refill the slot.
    auto bury = [&](std::size_t slot, bool corrupt) {
        Worker& worker = workers[slot];
        if (corrupt) ::kill(worker.pid, SIGKILL);
        const pid_t pid = worker.pid;
        const bool was_busy = worker.busy;
        const std::size_t item = worker.item;
        const double wall = was_busy ? ms_since(worker.started) : 0.0;
        DecodedExit decoded = reap_worker(worker);
        if (corrupt) decoded = DecodedExit{ExitKind::WorkerExit, 0, -2};
        pool.emit(WorkerEventKind::Exit, slot, pid,
                  was_busy || corrupt ? outcome_kind(decoded) : "");
        if (was_busy) {
            pool.count_outcome(decoded);
            complete(item, slot, decoded, wall);
        }
        dispatch(slot);
    };

    for (std::size_t i = 0; i < workers.size(); ++i) dispatch(i);

    std::vector<pollfd> fds;
    std::vector<std::size_t> slots;
    while (completed < n) {
        // Poll timeout: the earliest busy-worker deadline.
        int timeout = -1;
        if (pool.limits.timeout_ms > 0) {
            const auto now = Clock::now();
            for (const Worker& worker : workers) {
                if (!worker.alive() || !worker.busy) continue;
                const auto remain =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        worker.deadline - now)
                        .count();
                const int t =
                    remain <= 0 ? 0 : static_cast<int>(remain) + 1;
                timeout = timeout < 0 ? t : std::min(timeout, t);
            }
        }

        fds.clear();
        slots.clear();
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive()) continue;
            fds.push_back(pollfd{workers[i].resp_fd, POLLIN, 0});
            slots.push_back(i);
        }
        if (fds.empty()) {
            // Every worker is dead and nothing is in flight; dispatch
            // re-forks as needed.
            for (std::size_t i = 0; i < workers.size() && completed < n; ++i) {
                dispatch(i);
            }
            continue;
        }
        int rc = -1;
        do {
            rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
        } while (rc < 0 && errno == EINTR);

        // Deadline escalation: SIGKILL every busy worker past its
        // budget.  The kill surfaces as EOF on its reply pipe, reaped
        // below with deadline_killed set, which decodes as Timeout.
        if (pool.limits.timeout_ms > 0) {
            const auto now = Clock::now();
            for (std::size_t i = 0; i < workers.size(); ++i) {
                Worker& worker = workers[i];
                if (!worker.alive() || !worker.busy ||
                    worker.deadline_killed || now < worker.deadline) {
                    continue;
                }
                ::kill(worker.pid, SIGKILL);
                worker.deadline_killed = true;
                ++pool.stats.kills;
                pool.emit(WorkerEventKind::Kill, i, worker.pid, "timeout");
            }
        }

        for (std::size_t f = 0; f < fds.size(); ++f) {
            if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                continue;
            }
            const std::size_t slot = slots[f];
            Worker& worker = workers[slot];
            if (!worker.alive()) continue;
            const ReadStatus status = drain(worker);

            // Complete reply frames first: a worker that replied and
            // then died (mutant called exit) still completed its item.
            while (auto frame = worker.buf.take_frame()) {
                if (!worker.busy) continue;  // stray frame: drop it
                worker.busy = false;
                TaskResult result;
                result.payload = std::move(*frame);
                result.worker = slot;
                result.wall_ms = ms_since(worker.started);
                on_result(worker.item, std::move(result));
                ++completed;
            }
            // A worker SIGKILLed for its deadline is dead even when its
            // reply beat the kill: reap it, never hand it the next item.
            if (worker.buf.oversized() || status == ReadStatus::Eof ||
                worker.deadline_killed) {
                bury(slot, worker.buf.oversized());
            } else if (!worker.busy) {
                dispatch(slot);
            }
        }
    }
}

}  // namespace stc::sandbox
