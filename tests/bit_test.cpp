#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stc/bit/assertions.h"
#include "stc/bit/built_in_test.h"

namespace stc::bit {
namespace {

class BitTest : public ::testing::Test {
protected:
    void SetUp() override { AssertionStats::instance().reset(); }
    void TearDown() override { AssertionStats::instance().reset(); }
};

// ---------------------------------------------------------------- test mode

TEST_F(BitTest, AssertionsAreInertOutsideTestMode) {
    // BIT access control: outside test mode the macros must not fire —
    // the paper gates all BIT services behind the test-mode switch.
    ASSERT_FALSE(TestMode::enabled());
    EXPECT_NO_THROW(STC_CLASS_INVARIANT(false));
    EXPECT_NO_THROW(STC_PRECONDITION(false));
    EXPECT_NO_THROW(STC_POSTCONDITION(false));
    EXPECT_EQ(AssertionStats::instance().total_checked(), 0u);
}

TEST_F(BitTest, TestModeGuardIsScopedAndNestable) {
    EXPECT_FALSE(TestMode::enabled());
    {
        TestModeGuard outer;
        EXPECT_TRUE(TestMode::enabled());
        {
            TestModeGuard inner;
            EXPECT_TRUE(TestMode::enabled());
        }
        EXPECT_TRUE(TestMode::enabled());
    }
    EXPECT_FALSE(TestMode::enabled());
}

// --------------------------------------------------------------- assertions

TEST_F(BitTest, ViolationThrowsTypedException) {
    TestModeGuard guard;
    EXPECT_THROW(STC_CLASS_INVARIANT(false), AssertionViolation);
    EXPECT_THROW(STC_PRECONDITION(false), AssertionViolation);
    EXPECT_THROW(STC_POSTCONDITION(false), AssertionViolation);
    EXPECT_NO_THROW(STC_CLASS_INVARIANT(true));
}

TEST_F(BitTest, ViolationCarriesKindExpressionAndLocation) {
    TestModeGuard guard;
    try {
        STC_PRECONDITION(1 > 2);
        FAIL();
    } catch (const AssertionViolation& v) {
        EXPECT_EQ(v.assertion_kind(), AssertionKind::Precondition);
        EXPECT_EQ(v.expression(), "1 > 2");
        EXPECT_NE(v.file().find("bit_test.cpp"), std::string::npos);
        EXPECT_GT(v.line(), 0);
        // Fig. 5 wording survives in the message.
        EXPECT_NE(std::string(v.what()).find("Pre-condition is violated!"),
                  std::string::npos);
    }
}

TEST_F(BitTest, StatsCountChecksAndViolationsPerKind) {
    TestModeGuard guard;
    STC_CLASS_INVARIANT(true);
    STC_CLASS_INVARIANT(true);
    try {
        STC_CLASS_INVARIANT(false);
    } catch (const AssertionViolation&) {
    }
    STC_POSTCONDITION(true);

    auto& stats = AssertionStats::instance();
    EXPECT_EQ(stats.counters(AssertionKind::Invariant).checked, 3u);
    EXPECT_EQ(stats.counters(AssertionKind::Invariant).violated, 1u);
    EXPECT_EQ(stats.counters(AssertionKind::Postcondition).checked, 1u);
    EXPECT_EQ(stats.counters(AssertionKind::Precondition).checked, 0u);
    EXPECT_EQ(stats.total_checked(), 4u);
    EXPECT_EQ(stats.total_violated(), 1u);
}

TEST_F(BitTest, StatsAreThreadLocal) {
    // The concurrency contract documented on AssertionStats: per-thread
    // counters never observe another worker's checks.
    std::thread worker([] {
        TestModeGuard guard;
        STC_CLASS_INVARIANT(true);
        STC_PRECONDITION(true);
        try {
            STC_POSTCONDITION(false);
        } catch (const AssertionViolation&) {
        }
        // The worker sees only its own thread-local counts...
        EXPECT_EQ(AssertionStats::instance().total_checked(), 3u);
        EXPECT_EQ(AssertionStats::instance().total_violated(), 1u);
        AssertionStats::instance().reset();
    });
    worker.join();

    // ...and this thread's counters are untouched by the worker's activity.
    EXPECT_EQ(AssertionStats::instance().total_checked(), 0u);
}

TEST_F(BitTest, SuppressionGuardDisablesChecking) {
    TestModeGuard guard;
    {
        AssertionSuppressGuard off;
        EXPECT_NO_THROW(STC_CLASS_INVARIANT(false));
    }
    EXPECT_THROW(STC_CLASS_INVARIANT(false), AssertionViolation);
}

TEST_F(BitTest, StatsResetPreservesSuppression) {
    TestModeGuard guard;
    AssertionSuppressGuard off;
    AssertionStats::instance().reset();
    EXPECT_TRUE(AssertionStats::instance().suppressed());
    EXPECT_NO_THROW(STC_CLASS_INVARIANT(false));
}

TEST_F(BitTest, PredicateEvaluatedOnlyWhenActive) {
    int evaluations = 0;
    auto probe = [&evaluations] {
        ++evaluations;
        return true;
    };
    STC_PRECONDITION(probe());  // outside test mode: not evaluated
    EXPECT_EQ(evaluations, 0);
    {
        TestModeGuard guard;
        STC_PRECONDITION(probe());
        EXPECT_EQ(evaluations, 1);
    }
}

// ------------------------------------------------------------- BuiltInTest

class Probe final : public BuiltInTest {
public:
    void InvariantTest() const override { STC_CLASS_INVARIANT(healthy); }
    void Reporter(std::ostream& os) const override { os << "Probe{" << healthy << "}"; }
    bool healthy = true;
};

TEST_F(BitTest, ReportConvenienceUsesReporter) {
    Probe probe;
    EXPECT_EQ(probe.report(), "Probe{1}");
    probe.healthy = false;
    EXPECT_EQ(probe.report(), "Probe{0}");
}

TEST_F(BitTest, InvariantTestIntegrates) {
    Probe probe;
    TestModeGuard guard;
    EXPECT_NO_THROW(probe.InvariantTest());
    probe.healthy = false;
    EXPECT_THROW(probe.InvariantTest(), AssertionViolation);
}

TEST_F(BitTest, PaperMacroAliasesWork) {
// Verified in an inner scope so the aliases don't leak into other tests.
#include "stc/bit/paper_macros.h"
    TestModeGuard guard;
    EXPECT_NO_THROW(ClassInvariant(true));
    EXPECT_THROW(ClassInvariant(false), AssertionViolation);
    EXPECT_THROW(PreCondition(1 > 2), AssertionViolation);
    EXPECT_THROW(PostCondition(false), AssertionViolation);
    try {
        ClassInvariant(false);
    } catch (const AssertionViolation& v) {
        // Fig. 5 wording.
        EXPECT_NE(std::string(v.what()).find("Invariant is violated!"),
                  std::string::npos);
    }
#undef ClassInvariant
#undef PreCondition
#undef PostCondition
}

TEST_F(BitTest, KindNames) {
    EXPECT_STREQ(to_string(AssertionKind::Invariant), "Invariant");
    EXPECT_STREQ(to_string(AssertionKind::Precondition), "Pre-condition");
    EXPECT_STREQ(to_string(AssertionKind::Postcondition), "Post-condition");
}

// ------------------------------------------------------------- report()
//
// report() renders into a stream its thread keeps, so each call must see
// what a freshly built std::ostringstream would: no text, no error bits
// and default format state, whatever the previous Reporter left behind.

/// Writes an int, a double and a bool with the stream's format state.
class Plain final : public BuiltInTest {
public:
    Plain(int number, double real) : number_(number), real_(real) {}
    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << "Plain{" << number_ << ", " << real_ << ", " << true << "}";
    }

private:
    int number_;
    double real_;
};

/// Leaves every piece of format state it can changed, a width pending
/// and the stream failed.
class Messy final : public BuiltInTest {
public:
    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << std::hex << std::showbase << std::boolalpha << std::setprecision(2)
           << "Messy" << std::setw(12) << std::setfill('*');
        os.setstate(std::ios_base::failbit);
    }
};

class Throwing final : public BuiltInTest {
public:
    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << "half a report";
        throw std::runtime_error("reporter failed");
    }
};

/// Asks another object for its report in the middle of its own.
class Outer final : public BuiltInTest {
public:
    explicit Outer(const BuiltInTest& inner) : inner_(inner) {}
    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << "Outer{" << std::hex << 255 << ":" << inner_.report() << "}";
    }

private:
    const BuiltInTest& inner_;
};

TEST(BuiltInTestReport, FormatStateDoesNotLeakIntoTheNextReport) {
    const Plain plain(255, 3.14159);
    EXPECT_EQ(plain.report(), "Plain{255, 3.14159, 1}");
    EXPECT_EQ(Messy().report(), "Messy");
    EXPECT_EQ(plain.report(), "Plain{255, 3.14159, 1}");
}

TEST(BuiltInTestReport, AThrowingReporterLeavesNoText) {
    EXPECT_THROW((void)Throwing().report(), std::runtime_error);
    EXPECT_EQ(Plain(7, 0.5).report(), "Plain{7, 0.5, 1}");
}

TEST(BuiltInTestReport, ANestedReportGetsItsOwnStream) {
    const Plain inner(255, 3.14159);
    EXPECT_EQ(Outer(inner).report(), "Outer{ff:Plain{255, 3.14159, 1}}");
    EXPECT_EQ(inner.report(), "Plain{255, 3.14159, 1}");
}

TEST(BuiltInTestReport, EachThreadRendersItsOwnObjects) {
    const std::vector<std::string> expected = {
        "Plain{0, 0.5, 1}", "Plain{1000, 1.5, 1}", "Plain{2000, 2.5, 1}",
        "Plain{3000, 3.5, 1}"};
    std::vector<int> wrong(expected.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < expected.size(); ++t) {
        threads.emplace_back([t, &expected, &wrong] {
            const int n = static_cast<int>(t);
            const Plain mine(n * 1000, n + 0.5);
            for (int i = 0; i < 200; ++i) {
                if (mine.report() != expected[t]) ++wrong[t];
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 0; t < expected.size(); ++t) {
        EXPECT_EQ(wrong[t], 0) << "thread " << t;
    }
}

}  // namespace
}  // namespace stc::bit
