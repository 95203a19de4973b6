// Sandbox resource limits and exit-status decoding.
//
// Every sandbox worker gets three independent fences:
//   - a wall-clock deadline, enforced parent-side (poll() timeout, then
//     SIGKILL) so even a child stuck in an uninterruptible busy loop is
//     reclaimed;
//   - RLIMIT_CPU, a child-side backstop in case the parent itself is
//     wedged;
//   - RLIMIT_AS plus a std::new_handler that _exit()s with a reserved
//     code the instant an allocation fails — bypassing every catch
//     block between the allocation bomb and the harness, so an OOM is
//     reported as "resource-limit", never mistaken for a component
//     exception.
//
// The parent decodes waitpid() status into the outcome kinds that flow
// through MutantOutcome / the result store / telemetry (FORMATS.md §8):
// "crash-signal:<n>", "timeout", "resource-limit", "worker-exit:<c>".
#pragma once

#include <cstdint>
#include <string>

namespace stc::sandbox {

struct SandboxLimits {
    /// Wall-clock budget per dispatched item, enforced by the parent
    /// (poll deadline + SIGKILL).  0 disables the deadline.
    std::uint64_t timeout_ms = 5000;
    /// Child address-space cap in MiB (RLIMIT_AS).  0 inherits the
    /// parent's limit.
    std::uint64_t rlimit_as_mb = 0;
};

/// Reserved child exit codes (chosen away from 0/1/2 and shell codes).
inline constexpr int kResourceLimitExit = 86;  ///< new-handler fired: OOM
inline constexpr int kWorkerFailureExit = 87;  ///< job threw / reply unwritable

/// How a dispatched item's worker ended.
enum class ExitKind {
    Ok,             ///< replied with a complete frame
    CrashSignal,    ///< terminated by a signal (SIGSEGV, SIGABRT, ...)
    Timeout,        ///< wall deadline (parent SIGKILL) or RLIMIT_CPU (SIGXCPU)
    ResourceLimit,  ///< allocation failure under RLIMIT_AS, or kernel OOM kill
    WorkerExit,     ///< child exited without replying (mutant called exit, ...)
};

[[nodiscard]] const char* to_string(ExitKind kind) noexcept;

struct DecodedExit {
    ExitKind kind = ExitKind::Ok;
    int signal = 0;  ///< when kind == CrashSignal
    int code = 0;    ///< when kind == WorkerExit
};

/// Decode a waitpid() status.  `killed_for_deadline` is true when the
/// parent SIGKILLed this worker for missing its wall deadline — the
/// only way to tell a timeout kill from an external SIGKILL (which, on
/// Linux, is most plausibly the kernel OOM killer and therefore decodes
/// as ResourceLimit).  Full table in docs/FORMATS.md §8.
[[nodiscard]] DecodedExit decode_wait_status(int status,
                                             bool killed_for_deadline) noexcept;

/// The outcome-kind string recorded in results and telemetry:
/// "crash-signal:<n>" | "timeout" | "resource-limit" | "worker-exit:<c>";
/// "" for Ok.
[[nodiscard]] std::string outcome_kind(const DecodedExit& exit);

/// Install the child-side fences: setrlimit(RLIMIT_AS / RLIMIT_CPU) and
/// the _exit(kResourceLimitExit) new-handler.  Call in the forked child
/// before entering the job loop; never in the parent.
void apply_limits_in_child(const SandboxLimits& limits) noexcept;

}  // namespace stc::sandbox
