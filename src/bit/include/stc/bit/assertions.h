// Concat's assertion macro library — paper Fig. 5.
//
// The paper implements ClassInvariant / PreCondition / PostCondition as
// macros that throw when the user-supplied predicate is false; they form
// the *partial oracle* of the generated test drivers (§2.2, §3.3).  This
// version adds:
//   - a typed exception (AssertionViolation) carrying the kind, the
//     violated expression and the source location;
//   - per-thread assertion statistics (checked / violated counts)
//     consumed by the runner's metrics and the mutation benches to
//     attribute kills to the assertion oracle, reproducing the paper's
//     "59 of 652 kills were due to assertion violation" accounting;
//   - gating on test mode and on the STC_BIT_DISABLED compile directive
//     (the paper's BIT access control).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "stc/bit/built_in_test.h"
#include "stc/support/error.h"

namespace stc::bit {

/// Which kind of contract was violated.
enum class AssertionKind { Invariant, Precondition, Postcondition };

[[nodiscard]] const char* to_string(AssertionKind kind) noexcept;

/// Thrown by the assertion macros when a predicate is false in test mode.
/// The generated driver catches it and records the failing test case and
/// the method being executed (Fig. 6).
class AssertionViolation : public Error {
public:
    AssertionViolation(AssertionKind kind, std::string expression, std::string file,
                       int line);

    [[nodiscard]] AssertionKind assertion_kind() const noexcept { return kind_; }
    [[nodiscard]] const std::string& expression() const noexcept { return expression_; }
    [[nodiscard]] const std::string& file() const noexcept { return file_; }
    [[nodiscard]] int line() const noexcept { return line_; }

private:
    AssertionKind kind_;
    std::string expression_;
    std::string file_;
    int line_;
};

/// Thrown when an output obligation is silently absorbed: a call that
/// the assembly's product TFM requires to produce an observable output
/// completed without emitting one.  This is the ioco notion of *illegal
/// quiescence* (a state may only be silent when the specification allows
/// quiescence there); assembly facades raise it from their built-in test
/// via STC_MUST_EMIT.  Deliberately not an AssertionViolation: the
/// oracle ladder ranks the two channels separately.
class QuiescenceViolation : public Error {
public:
    QuiescenceViolation(std::string action, std::string detail);

    /// The observable action that was due (e.g. "Ledger.Record").
    [[nodiscard]] const std::string& action() const noexcept { return action_; }
    /// Why the obligation existed (e.g. "deposit must book a ledger entry").
    [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

private:
    std::string action_;
    std::string detail_;
};

/// Per-thread assertion counters, reset per test session.
///
/// Thread-safety contract (load-bearing for the campaign scheduler,
/// src/campaign): `instance()` returns a *thread_local* object, so each
/// concurrent driver thread counts, suppresses, and resets its own
/// assertions with no synchronization and no cross-talk — a mutation
/// campaign worker's assertion violations never leak into another
/// worker's accounting.  There are no process-wide totals: a thread
/// that needs an interval's count subtracts two of its own readings
/// (the runner does so per suite and adds the delta to its metrics).
class AssertionStats {
public:
    struct Counters {
        std::uint64_t checked = 0;
        std::uint64_t violated = 0;
    };

    static AssertionStats& instance() noexcept;

    void record_check(AssertionKind kind) noexcept;
    void record_violation(AssertionKind kind) noexcept;
    void reset() noexcept;

    [[nodiscard]] Counters counters(AssertionKind kind) const noexcept;
    [[nodiscard]] std::uint64_t total_checked() const noexcept;
    [[nodiscard]] std::uint64_t total_violated() const noexcept;

    /// True when assertion checking is currently suppressed (used by the
    /// oracle ablation bench to run with the assertion oracle off).
    [[nodiscard]] bool suppressed() const noexcept { return suppress_depth_ > 0; }

private:
    friend class AssertionSuppressGuard;
    std::array<Counters, 3> by_kind_{};
    int suppress_depth_ = 0;
};

/// RAII suppression of assertion checking (ablation studies).
class AssertionSuppressGuard {
public:
    AssertionSuppressGuard() noexcept { ++AssertionStats::instance().suppress_depth_; }
    ~AssertionSuppressGuard() { --AssertionStats::instance().suppress_depth_; }

    AssertionSuppressGuard(const AssertionSuppressGuard&) = delete;
    AssertionSuppressGuard& operator=(const AssertionSuppressGuard&) = delete;
};

namespace detail {
/// Implements the macro bodies; returns true when the predicate should
/// actually be evaluated (test mode on, not suppressed, BIT compiled in).
[[nodiscard]] bool assertions_active() noexcept;
void check(AssertionKind kind, bool ok, const char* expression, const char* file,
           int line);
}  // namespace detail

}  // namespace stc::bit

// The paper's Fig. 5 macros.  `exp` is the user-provided predicate.
#ifndef STC_BIT_DISABLED
#define STC_BIT_ASSERT_IMPL(kind, exp)                                        \
    do {                                                                      \
        if (::stc::bit::detail::assertions_active()) {                        \
            ::stc::bit::detail::check(kind, static_cast<bool>(exp), #exp,     \
                                      __FILE__, __LINE__);                    \
        }                                                                     \
    } while (false)
#else
#define STC_BIT_ASSERT_IMPL(kind, exp) \
    do {                               \
    } while (false)
#endif

// Output obligation (ioco illegal quiescence): `emitted` must be true
// after the enclosing method ran, else the component stayed silent where
// the assembly specification demands an observable output.  Gated the
// same way as the Fig. 5 macros: only in test mode, compiled out under
// STC_BIT_DISABLED.
#ifndef STC_BIT_DISABLED
#define STC_MUST_EMIT(action, emitted, obligation)                          \
    do {                                                                    \
        if (::stc::bit::detail::assertions_active() &&                      \
            !static_cast<bool>(emitted)) {                                  \
            throw ::stc::bit::QuiescenceViolation(action, obligation);      \
        }                                                                   \
    } while (false)
#else
#define STC_MUST_EMIT(action, emitted, obligation) \
    do {                                           \
    } while (false)
#endif

#define STC_CLASS_INVARIANT(exp) \
    STC_BIT_ASSERT_IMPL(::stc::bit::AssertionKind::Invariant, exp)
#define STC_PRECONDITION(exp) \
    STC_BIT_ASSERT_IMPL(::stc::bit::AssertionKind::Precondition, exp)
#define STC_POSTCONDITION(exp) \
    STC_BIT_ASSERT_IMPL(::stc::bit::AssertionKind::Postcondition, exp)
