#include <gtest/gtest.h>

#include "stc/oracle/oracle.h"

namespace stc::oracle {
namespace {

using driver::TestResult;
using driver::Verdict;

driver::SuiteResult make_suite(std::vector<TestResult> results) {
    driver::SuiteResult out;
    out.results = std::move(results);
    return out;
}

TestResult passing(const std::string& id, const std::string& report) {
    TestResult r;
    r.case_id = id;
    r.verdict = Verdict::Pass;
    r.report = report;
    return r;
}

TestResult failing(const std::string& id, Verdict verdict) {
    TestResult r;
    r.case_id = id;
    r.verdict = verdict;
    r.message = "boom";
    return r;
}

TestResult diverging(const std::string& id, const std::string& report,
                     const std::string& divergence) {
    TestResult r = passing(id, report);
    r.model_divergence = divergence;
    return r;
}

// ------------------------------------------------------------ GoldenRecord

TEST(GoldenRecord, CapturesBaselineBehaviour) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "state-a"), passing("TC1", "state-b")}));
    EXPECT_EQ(golden.size(), 2u);
    EXPECT_TRUE(golden.all_passed());
    ASSERT_NE(golden.find("TC1"), nullptr);
    EXPECT_EQ(golden.find("TC1")->report, "state-b");
    EXPECT_EQ(golden.find("TC9"), nullptr);
}

TEST(GoldenRecord, PositionalFindChecksTheId) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "state-a"), passing("TC1", "state-b")}));
    ASSERT_NE(golden.find(1, "TC1"), nullptr);
    EXPECT_EQ(golden.find(1, "TC1"), &golden.entries()[1]);
    // A position holding another case falls back to the lookup by id.
    EXPECT_EQ(golden.find(0, "TC1"), &golden.entries()[1]);
    EXPECT_EQ(golden.find(7, "TC0"), &golden.entries()[0]);
    EXPECT_EQ(golden.find(1, "TC9"), nullptr);
}

TEST(GoldenRecord, AllPassedFalseWhenBaselineDirty) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "x"), failing("TC1", Verdict::Crash)}));
    EXPECT_FALSE(golden.all_passed());
}

// ---------------------------------------------------------------- classify

TEST(Classify, IdenticalBehaviourIsAlive) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(golden, passing("TC0", "same")), KillReason::None);
}

TEST(Classify, CrashKillsWithHighestPriority) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::Crash)), KillReason::Crash);
}

TEST(Classify, AssertionKillRequiresCleanBaseline) {
    const GoldenEntry clean{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(clean, failing("TC0", Verdict::AssertionViolation)),
              KillReason::Assertion);
    // Paper §4 condition (ii): "given that this was not the case with the
    // original program".
    const GoldenEntry dirty{"TC0", Verdict::AssertionViolation, "", "boom", ""};
    OracleConfig no_output;
    no_output.use_output_diff = false;
    EXPECT_EQ(classify(dirty, failing("TC0", Verdict::AssertionViolation), no_output),
              KillReason::None);
}

TEST(Classify, OutputDifferenceKills) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "expected", "", ""};
    EXPECT_EQ(classify(golden, passing("TC0", "different")), KillReason::OutputDiff);
    // Verdict change also counts as an output difference.
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::UncaughtException)),
              KillReason::OutputDiff);
}

TEST(Classify, ChannelsCanBeDisabled) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "expected", "", ""};
    OracleConfig assertions_only;
    assertions_only.use_output_diff = false;
    EXPECT_EQ(classify(golden, passing("TC0", "different"), assertions_only),
              KillReason::None);

    OracleConfig output_only;
    output_only.use_assertions = false;
    // An assertion failure still differs in verdict -> output diff channel.
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::AssertionViolation),
                       output_only),
              KillReason::OutputDiff);

    OracleConfig nothing;
    nothing.use_crashes = false;
    nothing.use_assertions = false;
    nothing.use_output_diff = false;
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::Crash), nothing),
              KillReason::None);
}

TEST(Classify, ManualOracleComplementsAssertions) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "sorted: 1 2 3", "", ""};
    // The observed run passes and matches the golden output; only a
    // manually derived oracle can reject it (paper §3.3).
    const ManualPredicate reject_all = [](const std::string&, const std::string&) {
        return false;
    };
    OracleConfig config;
    config.use_output_diff = false;
    EXPECT_EQ(classify(golden, passing("TC0", "sorted: 1 2 3"), config, reject_all),
              KillReason::ManualOracle);
    const ManualPredicate accept_all = [](const std::string&, const std::string&) {
        return true;
    };
    EXPECT_EQ(classify(golden, passing("TC0", "sorted: 1 2 3"), config, accept_all),
              KillReason::None);
}

// --------------------------------------------------- model channel / interplay

TEST(ClassifyModel, DivergenceKillsWhenGoldenConforms) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(golden, diverging("TC0", "same", "call#3 Find: state")),
              KillReason::ModelDivergence);
}

TEST(ClassifyModel, DivergenceRequiresCleanBaseline) {
    // Condition (ii) for the model channel: the baseline run already
    // diverged, so a diverging mutant run proves nothing.
    const GoldenEntry dirty{"TC0", Verdict::Pass, "same", "", "call#1 base"};
    EXPECT_EQ(classify(dirty, diverging("TC0", "same", "call#1 base")),
              KillReason::None);
}

TEST(ClassifyModel, ChannelCanBeDisabled) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    OracleConfig no_model;
    no_model.use_model = false;
    EXPECT_EQ(classify(golden, diverging("TC0", "same", "call#3 Find: state"),
                       no_model),
              KillReason::None);
}

TEST(ClassifyModel, AssertionOutranksDivergence) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    TestResult observed = failing("TC0", Verdict::AssertionViolation);
    observed.model_divergence = "call#2 GetCount: return";
    EXPECT_EQ(classify(golden, observed), KillReason::Assertion);
}

TEST(ClassifyModel, DivergenceOutranksOutputDiff) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "expected", "", ""};
    EXPECT_EQ(classify(golden, diverging("TC0", "different", "call#1 AddHead")),
              KillReason::ModelDivergence);
}

// Satellite (d): golden/model interplay.  A run that diverges from the
// reference model but still matches the golden output, and vice versa,
// must be reported distinctly by the differential classification.

TEST(Interplay, DivergesFromModelButMatchesGolden) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto observed =
        make_suite({diverging("TC0", "same", "call#4 RemoveAt: state")});
    const auto kill = classify_suite_differential(golden, observed);
    EXPECT_EQ(kill.with_model, KillReason::ModelDivergence);
    EXPECT_EQ(kill.without_model, KillReason::None);
    EXPECT_TRUE(kill.model_only());
}

TEST(Interplay, MatchesModelButDiffersFromGolden) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto observed = make_suite({passing("TC0", "DIFFERENT")});
    const auto kill = classify_suite_differential(golden, observed);
    EXPECT_EQ(kill.with_model, KillReason::OutputDiff);
    EXPECT_EQ(kill.without_model, KillReason::OutputDiff);
    EXPECT_FALSE(kill.model_only());
}

TEST(Interplay, BothFindingsReportedDistinctly) {
    // Diverges from the model AND from the golden output: the combined
    // oracle reports the stronger model finding while the without-model
    // leg still records the output diff -- both visible, not conflated.
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto observed =
        make_suite({diverging("TC0", "DIFFERENT", "call#1 AddHead: state")});
    const auto kill = classify_suite_differential(golden, observed);
    EXPECT_EQ(kill.with_model, KillReason::ModelDivergence);
    EXPECT_EQ(kill.without_model, KillReason::OutputDiff);
    EXPECT_FALSE(kill.model_only());
}

TEST(Interplay, CleanRunKillsNeitherLeg) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto kill =
        classify_suite_differential(golden, make_suite({passing("TC0", "same")}));
    EXPECT_EQ(kill.with_model, KillReason::None);
    EXPECT_EQ(kill.without_model, KillReason::None);
    EXPECT_FALSE(kill.model_only());
}

// ------------------------------------------------------------ whole suites

TEST(ClassifySuite, StrongestReasonWins) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "a"), passing("TC1", "b"), passing("TC2", "c")}));
    const auto observed = make_suite({
        passing("TC0", "a"),
        passing("TC1", "DIFFERENT"),
        failing("TC2", Verdict::AssertionViolation),
    });
    EXPECT_EQ(classify_suite(golden, observed), KillReason::Assertion);
}

TEST(ClassifySuite, AliveWhenEverythingMatches) {
    const auto golden =
        GoldenRecord::from(make_suite({passing("TC0", "a"), passing("TC1", "b")}));
    const auto observed = make_suite({passing("TC0", "a"), passing("TC1", "b")});
    EXPECT_EQ(classify_suite(golden, observed), KillReason::None);
}

TEST(ClassifySuite, UnknownCasesAreIgnored) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "a")}));
    const auto observed =
        make_suite({passing("TC0", "a"), failing("TC99", Verdict::Crash)});
    EXPECT_EQ(classify_suite(golden, observed), KillReason::None);
}

// ------------------------------------------------------ incremental fold

/// A baseline with one crashing case, and an observed run touching every
/// reason: model-only divergence, output diff, a crash the baseline also
/// had (no kill), an assertion, a new crash, and a case after it.
struct FoldFixture {
    GoldenRecord golden = GoldenRecord::from(make_suite({
        passing("TC0", "a"), passing("TC1", "b"), passing("TC2", "c"),
        failing("TC3", Verdict::Crash), passing("TC4", "e"),
        passing("TC5", "f"), passing("TC6", "g"),
    }));
    std::vector<TestResult> observed = {
        passing("TC0", "a"),
        diverging("TC1", "b", "call#2 AddTail: state"),
        passing("TC2", "DIFFERENT"),
        failing("TC3", Verdict::Crash),
        failing("TC4", Verdict::AssertionViolation),
        failing("TC5", Verdict::Crash),
        diverging("TC6", "DIFFERENT", "call#1 AddHead: state"),
    };
};

TEST(DifferentialFold, EveryPrefixMatchesTheSuiteClassifiers) {
    const FoldFixture f;
    OracleConfig no_model;
    no_model.use_model = false;
    OracleConfig no_crashes;
    no_crashes.use_crashes = false;
    OracleConfig no_output;
    no_output.use_output_diff = false;
    for (const OracleConfig& config : {OracleConfig{}, no_model, no_crashes, no_output}) {
        DifferentialFold fold(config);
        for (std::size_t k = 0; k <= f.observed.size(); ++k) {
            if (k > 0) fold.add(f.golden.entries()[k - 1], f.observed[k - 1]);
            const driver::SuiteResult prefix = make_suite(
                {f.observed.begin(), f.observed.begin() + static_cast<long>(k)});
            const DifferentialKill whole =
                classify_suite_differential(f.golden, prefix, config);
            EXPECT_EQ(fold.kill().with_model, whole.with_model) << k;
            EXPECT_EQ(fold.kill().without_model, whole.without_model) << k;
            EXPECT_EQ(fold.kill().model_only(), whole.model_only()) << k;
            EXPECT_EQ(fold.kill().with_model, classify_suite(f.golden, prefix, config))
                << k;
        }
    }
}

TEST(DifferentialFold, SaturatesAtTheFirstCrashKillOnly) {
    const FoldFixture f;
    DifferentialFold fold;
    for (std::size_t i = 0; i < f.observed.size(); ++i) {
        fold.add(f.golden.entries()[i], f.observed[i]);
        // TC3 crashes like its baseline (no kill); TC5 is the first crash kill.
        EXPECT_EQ(fold.saturated(), i >= 5) << i;
    }
    EXPECT_EQ(fold.kill().with_model, KillReason::Crash);
    EXPECT_EQ(fold.kill().without_model, KillReason::Crash);

    OracleConfig no_crashes;
    no_crashes.use_crashes = false;
    DifferentialFold blind(no_crashes);
    for (std::size_t i = 0; i < f.observed.size(); ++i) {
        blind.add(f.golden.entries()[i], f.observed[i]);
        EXPECT_FALSE(blind.saturated()) << i;
    }
    EXPECT_EQ(blind.kill().with_model, KillReason::Assertion);
}

TEST(KillReasonNames, AreStable) {
    EXPECT_STREQ(to_string(KillReason::None), "alive");
    EXPECT_STREQ(to_string(KillReason::Crash), "crash");
    EXPECT_STREQ(to_string(KillReason::Assertion), "assertion");
    EXPECT_STREQ(to_string(KillReason::ModelDivergence), "model-divergence");
    EXPECT_STREQ(to_string(KillReason::OutputDiff), "output-diff");
    EXPECT_STREQ(to_string(KillReason::ManualOracle), "manual-oracle");
}

}  // namespace
}  // namespace stc::oracle
