#include "stc/sandbox/limits.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <new>

namespace stc::sandbox {

const char* to_string(ExitKind kind) noexcept {
    switch (kind) {
        case ExitKind::Ok: return "ok";
        case ExitKind::CrashSignal: return "crash-signal";
        case ExitKind::Timeout: return "timeout";
        case ExitKind::ResourceLimit: return "resource-limit";
        case ExitKind::WorkerExit: return "worker-exit";
    }
    return "?";
}

DecodedExit decode_wait_status(int status, bool killed_for_deadline) noexcept {
    DecodedExit out;
    if (killed_for_deadline) {
        out.kind = ExitKind::Timeout;
        return out;
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        if (sig == SIGXCPU) {
            out.kind = ExitKind::Timeout;  // RLIMIT_CPU backstop fired
        } else if (sig == SIGKILL) {
            // The parent did not send this SIGKILL (killed_for_deadline
            // is false), so on Linux it is most plausibly the kernel
            // OOM killer reclaiming the worker.
            out.kind = ExitKind::ResourceLimit;
        } else {
            out.kind = ExitKind::CrashSignal;
            out.signal = sig;
        }
        return out;
    }
    if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == kResourceLimitExit) {
            out.kind = ExitKind::ResourceLimit;
        } else {
            out.kind = ExitKind::WorkerExit;
            out.code = code;
        }
        return out;
    }
    // Stopped/continued should be impossible (no WUNTRACED); report as
    // a worker exit so the item is still classified rather than lost.
    out.kind = ExitKind::WorkerExit;
    out.code = -1;
    return out;
}

std::string outcome_kind(const DecodedExit& exit) {
    switch (exit.kind) {
        case ExitKind::Ok: return "";
        case ExitKind::CrashSignal:
            return "crash-signal:" + std::to_string(exit.signal);
        case ExitKind::Timeout: return "timeout";
        case ExitKind::ResourceLimit: return "resource-limit";
        case ExitKind::WorkerExit:
            return "worker-exit:" + std::to_string(exit.code);
    }
    return "?";
}

void apply_limits_in_child(const SandboxLimits& limits) noexcept {
    if (limits.rlimit_as_mb != 0) {
        rlimit as{};
        as.rlim_cur = as.rlim_max =
            static_cast<rlim_t>(limits.rlimit_as_mb) << 20;
        ::setrlimit(RLIMIT_AS, &as);
    }

    // Child CPU-seconds cap (RLIMIT_CPU): the wall deadline rounded up,
    // +1s slack, so a runaway worker dies even if the parent never gets
    // to enforce the deadline.
    if (limits.timeout_ms != 0) {
        const std::uint64_t cpu_s = (limits.timeout_ms + 999) / 1000 + 1;
        rlimit cpu{};
        cpu.rlim_cur = static_cast<rlim_t>(cpu_s);
        cpu.rlim_max = static_cast<rlim_t>(cpu_s + 1);  // hard SIGKILL backstop
        ::setrlimit(RLIMIT_CPU, &cpu);
    }

    // An allocation failure exits the child immediately, before
    // std::bad_alloc is even thrown — no catch block between the
    // allocation bomb and the harness can swallow it, so the parent
    // sees a clean kResourceLimitExit and records "resource-limit".
    std::set_new_handler([] { ::_exit(kResourceLimitExit); });
}

}  // namespace stc::sandbox
