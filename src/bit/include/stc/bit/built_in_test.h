// Built-in test (BIT) capabilities — paper §3.3, Fig. 4.
//
// A self-testable class inherits BuiltInTest, giving the test driver a
// uniform interface independent of the target class interface:
//   - InvariantTest(): evaluates the class invariant (called by the
//     generated driver before and after every method call, Fig. 6);
//   - Reporter(): stores the object's internal state into the test log.
//
// BIT access control: the capabilities work only when the component is
// compiled in test mode.  We model the paper's compiler directive with
// STC_BIT_DISABLED (compile-out) plus a runtime gate (TestMode), so a
// single binary can demonstrate both production and test behaviour.
#pragma once

#include <ostream>
#include <string>

namespace stc::bit {

/// Runtime gate for BIT services — prevents misuse of BIT outside a test
/// session.  Scoped on/off via TestModeGuard.
///
/// Thread-safety contract: the gate depth is *thread_local*, so test
/// mode is entered and left per thread.  Every concurrent driver (e.g.
/// a campaign worker, src/campaign) opens its own TestModeGuard — the
/// runner does this per test case — and threads that never entered test
/// mode keep BIT disabled no matter what other threads are doing.
class TestMode {
public:
    /// True when a test session is active.
    [[nodiscard]] static bool enabled() noexcept { return depth_ > 0; }

private:
    friend class TestModeGuard;
    static thread_local int depth_;
};

/// RAII activation of test mode (nestable).
class TestModeGuard {
public:
    TestModeGuard() noexcept { ++TestMode::depth_; }
    ~TestModeGuard() { --TestMode::depth_; }

    TestModeGuard(const TestModeGuard&) = delete;
    TestModeGuard& operator=(const TestModeGuard&) = delete;
};

/// Abstract BIT interface (the paper's BuiltInTest superclass, Fig. 4).
/// The component under test inherits and redefines these capabilities.
class BuiltInTest {
public:
    virtual ~BuiltInTest() = default;

    /// Evaluate the class invariant; throws AssertionViolation (via the
    /// STC_CLASS_INVARIANT macro) when it does not hold.  A no-op unless
    /// test mode is active.
    virtual void InvariantTest() const = 0;

    /// Write a snapshot of the object's internal state to `os`.  Used by
    /// the generated driver after each test case and on failure, and as
    /// the observable output compared by the golden-output oracle.
    ///
    /// Thread-safety contract: implementations must be logically const —
    /// read only `this` and write only `os`.  Concurrent drivers call
    /// Reporter on *distinct* objects from different threads (each test
    /// case owns its CUT), so an implementation that mutates shared
    /// state (caches, globals, static buffers) breaks parallel
    /// campaigns; one that observes only its own object needs no
    /// locking.
    virtual void Reporter(std::ostream& os) const = 0;

    /// Convenience rendering of Reporter output as a string.  Reports
    /// render into a per-thread stream whose content, error state and
    /// format state are reset before each call, as if it were freshly
    /// built; a Reporter that calls report() on another object gets a
    /// stream of its own.  A Reporter writes only to `os` and must not
    /// keep a reference to it.
    [[nodiscard]] std::string report() const;
};

}  // namespace stc::bit
