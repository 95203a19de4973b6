// Tests for golden-record persistence and the regression workflow — the
// Table 3 "new release" scenario end to end: freeze suite + baseline of
// version N, replay against version N+1.
#include <gtest/gtest.h>

#include <sstream>

#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/oracle/golden_io.h"
#include "test_component.h"

namespace stc::oracle {
namespace {

driver::SuiteResult make_suite_result(
    std::vector<std::tuple<std::string, driver::Verdict, std::string>> rows) {
    driver::SuiteResult out;
    for (auto& [id, verdict, report] : rows) {
        driver::TestResult r;
        r.case_id = id;
        r.verdict = verdict;
        r.report = report;
        out.results.push_back(std::move(r));
    }
    return out;
}

// ---------------------------------------------------------------- save/load

TEST(GoldenIo, RoundTripPreservesEntries) {
    const auto golden = GoldenRecord::from(make_suite_result({
        {"TC0", driver::Verdict::Pass, "state|with|pipes\nand newlines"},
        {"TC1", driver::Verdict::AssertionViolation, ""},
    }));

    std::stringstream buffer;
    save_golden(buffer, golden);
    const GoldenRecord loaded = load_golden(buffer);

    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.find("TC0")->report, "state|with|pipes\nand newlines");
    EXPECT_EQ(loaded.find("TC0")->verdict, driver::Verdict::Pass);
    EXPECT_EQ(loaded.find("TC1")->verdict, driver::Verdict::AssertionViolation);
    EXPECT_FALSE(loaded.all_passed());
}

TEST(GoldenIo, MalformedInputRejected) {
    std::stringstream not_magic("nope\n");
    EXPECT_THROW((void)load_golden(not_magic), Error);
    std::stringstream bad_fields("concat-golden 1\nTC0|pass\n");
    EXPECT_THROW((void)load_golden(bad_fields), Error);
    std::stringstream bad_verdict("concat-golden 1\nTC0|exploded|r|m\n");
    EXPECT_THROW((void)load_golden(bad_verdict), Error);
    std::stringstream bad_escape("concat-golden 1\nTC0|pass|r%zz|m\n");
    EXPECT_THROW((void)load_golden(bad_escape), Error);
    std::stringstream short_escape("concat-golden 1\nTC0|pass|r|m%4\n");
    EXPECT_THROW((void)load_golden(short_escape), Error);
}

// --------------------------------------------------------------- comparison

TEST(Regression, CleanWhenBehaviourIdentical) {
    const auto golden = GoldenRecord::from(
        make_suite_result({{"TC0", driver::Verdict::Pass, "a"}}));
    const auto report = compare_against_golden(
        golden, make_suite_result({{"TC0", driver::Verdict::Pass, "a"}}));
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.cases_compared, 1u);
}

TEST(Regression, FlagsDivergencesWithReasons) {
    const auto golden = GoldenRecord::from(make_suite_result({
        {"TC0", driver::Verdict::Pass, "a"},
        {"TC1", driver::Verdict::Pass, "b"},
        {"TC2", driver::Verdict::Pass, "c"},
    }));
    const auto observed = make_suite_result({
        {"TC0", driver::Verdict::Pass, "a"},                   // unchanged
        {"TC1", driver::Verdict::Pass, "CHANGED"},             // output diff
        {"TC2", driver::Verdict::AssertionViolation, ""},      // new failure
    });
    const auto report = compare_against_golden(golden, observed);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].case_id, "TC1");
    EXPECT_EQ(report.findings[0].reason, KillReason::OutputDiff);
    EXPECT_EQ(report.findings[1].case_id, "TC2");
    EXPECT_EQ(report.findings[1].reason, KillReason::Assertion);
    EXPECT_NE(report.summary().find("TC1"), std::string::npos);
}

TEST(Regression, MissingCasesCounted) {
    const auto golden = GoldenRecord::from(
        make_suite_result({{"TC0", driver::Verdict::Pass, "a"},
                           {"TC9", driver::Verdict::Pass, "z"}}));
    const auto report = compare_against_golden(
        golden, make_suite_result({{"TC0", driver::Verdict::Pass, "a"}}));
    EXPECT_EQ(report.cases_missing, 1u);
    EXPECT_FALSE(report.clean());
}

// ----------------------------------------------- full workflow on Counter

TEST(Regression, NewReleaseScenarioEndToEnd) {
    // Version N: generate, run, freeze suite + golden.
    const auto spec = stc::testing::counter_spec();
    const auto suite = driver::DriverGenerator(spec).generate();
    reflect::Registry v1;
    v1.add(stc::testing::counter_binding());
    const auto baseline = driver::TestRunner(v1).run(suite);

    std::stringstream frozen_suite;
    driver::save_suite(frozen_suite, suite);
    std::stringstream frozen_golden;
    save_golden(frozen_golden, GoldenRecord::from(baseline));

    // Version N+1 (healthy): replay — clean.
    {
        const auto replay_suite = driver::load_suite(frozen_suite);
        const auto golden = load_golden(frozen_golden);
        const auto rerun = driver::TestRunner(v1).run(replay_suite);
        EXPECT_TRUE(compare_against_golden(golden, rerun).clean());
    }

    // Version N+2 (regressed: Inc wired to a double increment).
    {
        frozen_suite.clear();
        frozen_suite.seekg(0);
        frozen_golden.clear();
        frozen_golden.seekg(0);
        const auto replay_suite = driver::load_suite(frozen_suite);
        const auto golden = load_golden(frozen_golden);

        reflect::Binder<stc::testing::Counter> b("Counter");
        b.ctor<>();
        b.ctor<int>();
        b.custom("Inc", 0, [](stc::testing::Counter& c, const reflect::Args&) {
            c.Inc();
            c.Inc();  // the regression
            return domain::Value{};
        });
        b.method("Dec", &stc::testing::Counter::Dec);
        b.method("Reset", &stc::testing::Counter::Reset);
        b.method("Get", &stc::testing::Counter::Get);
        reflect::Registry v2;
        v2.add(b.take());

        const auto rerun = driver::TestRunner(v2).run(replay_suite);
        const auto report = compare_against_golden(golden, rerun);
        EXPECT_FALSE(report.clean());
        EXPECT_GT(report.findings.size(), 0u);
    }
}

}  // namespace
}  // namespace stc::oracle
