// Unit tests of the stc::fuzz subsystem — the coverage-guided fuzz
// loop, the delta-debugging shrinker, and the replayable regression
// corpus — exercised against the instrumented Counter component with
// its hand-countable mutant population (test_component.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/fuzz/shrink.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/mutant.h"
#include "stc/support/error.h"
#include "test_component.h"

namespace stc::fuzz {
namespace {

std::string case_bytes(const driver::TestCase& tc) {
    driver::TestSuite wrapper;
    wrapper.class_name = "Counter";
    wrapper.cases = {tc};
    std::ostringstream out;
    driver::save_suite(out, wrapper);
    return out.str();
}

class FuzzTest : public ::testing::Test {
protected:
    FuzzTest() : spec_(stc::testing::counter_spec()) {
        registry_.add(stc::testing::counter_binding());
    }

    /// A CaseRunner over the Counter binding; `mutant` (may be null)
    /// must outlive the returned closure.
    [[nodiscard]] CaseRunner runner_for(const mutation::Mutant* mutant) const {
        const driver::TestRunner& runner = runner_;
        const reflect::ClassBinding& binding = registry_.at("Counter");
        return [&runner, &binding, mutant](const driver::TestCase& tc) {
            if (mutant) {
                const mutation::MutantActivation active(*mutant);
                return runner.run_case(binding, tc);
            }
            return runner.run_case(binding, tc);
        };
    }

    [[nodiscard]] FuzzResult fuzz(const mutation::Mutant* mutant,
                                  std::uint64_t seed = 5,
                                  std::size_t iters = 80) const {
        FuzzOptions options;
        options.seed = seed;
        options.iterations = iters;
        if (mutant) options.mutant_id = mutant->id();
        Fuzzer fuzzer(spec_, options);
        return fuzzer.case_runner(runner_for(mutant)).run();
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
    driver::TestRunner runner_{registry_};
};

TEST_F(FuzzTest, PristineCounterYieldsNoFindings) {
    const FuzzResult result = fuzz(nullptr, 7, 120);
    EXPECT_TRUE(result.findings.empty());
    EXPECT_EQ(result.stats.iterations, 120u);
    EXPECT_GE(result.stats.executions, result.stats.iterations);
    // Everything a valid transaction throws at a correct component
    // passes; the verdict histogram must say exactly that.
    ASSERT_EQ(result.stats.verdict_counts.size(), 1u);
    EXPECT_EQ(result.stats.verdict_counts.count("pass"), 1u);
    EXPECT_GT(result.stats.nodes_covered, 0u);
    EXPECT_GT(result.stats.edges_covered, 0u);
}

TEST_F(FuzzTest, FindsKillableMutantsAndShrinksTheirFailures) {
    const auto mutants =
        mutation::enumerate_mutants(stc::testing::Counter::inc_descriptor());
    const auto graph = spec_.build_tfm();

    std::size_t mutants_with_findings = 0;
    for (const auto& mutant : mutants) {
        const FuzzResult result = fuzz(&mutant);
        if (result.findings.empty()) continue;
        ++mutants_with_findings;
        for (const Finding& finding : result.findings) {
            // The shrinker's contract: no longer than the original, a
            // structurally valid transaction, and still failing with
            // the same verdict on replay.
            EXPECT_LE(finding.reproducer.calls.size(),
                      finding.original.calls.size());
            EXPECT_TRUE(graph.is_valid_transaction(finding.reproducer.transaction.path));
            const auto replay = runner_for(&mutant)(finding.reproducer);
            EXPECT_EQ(replay.verdict, finding.verdict) << mutant.id();
            EXPECT_NE(finding.verdict, driver::Verdict::Pass);
        }
    }
    // The Inc population (18 mutants) contains several that break the
    // postcondition or the class invariant; the fuzzer must catch some.
    EXPECT_GT(mutants_with_findings, 0u);
}

TEST_F(FuzzTest, FuzzRunsAreDeterministic) {
    const auto mutants =
        mutation::enumerate_mutants(stc::testing::Counter::inc_descriptor());
    ASSERT_FALSE(mutants.empty());
    const mutation::Mutant& mutant = mutants.front();

    const FuzzResult a = fuzz(&mutant, 13, 100);
    const FuzzResult b = fuzz(&mutant, 13, 100);
    EXPECT_EQ(a.stats.render(), b.stats.render());
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].key(), b.findings[i].key());
        EXPECT_EQ(a.findings[i].iteration, b.findings[i].iteration);
        EXPECT_EQ(case_bytes(a.findings[i].reproducer),
                  case_bytes(b.findings[i].reproducer));
    }

    // A different seed explores differently (coverage or findings move).
    const FuzzResult c = fuzz(&mutant, 14, 100);
    EXPECT_TRUE(a.stats.render() != c.stats.render() ||
                a.findings.size() != c.findings.size() ||
                (!a.findings.empty() &&
                 case_bytes(a.findings[0].reproducer) !=
                     case_bytes(c.findings[0].reproducer)) ||
                a.stats.interesting != c.stats.interesting);
}

TEST_F(FuzzTest, ShrinkerMinimizesUnderAnAlwaysTruePredicate) {
    driver::GeneratorOptions options;
    options.seed = 9;
    const auto suite = driver::DriverGenerator(spec_, options).generate();
    const driver::TestCase* longest = nullptr;
    for (const auto& tc : suite.cases) {
        if (!longest || tc.calls.size() > longest->calls.size()) longest = &tc;
    }
    ASSERT_NE(longest, nullptr);
    ASSERT_GE(longest->calls.size(), 3u);

    const auto graph = spec_.build_tfm();
    const Predicate always = [](const driver::TestCase&) { return true; };
    const ShrinkResult result = shrink_case(spec_, graph, *longest, always);

    // Under an unconstrained predicate everything interior is noise:
    // the minimum is the shortest birth->death transaction through the
    // original endpoints.
    EXPECT_LT(result.minimized.calls.size(), longest->calls.size());
    EXPECT_TRUE(graph.is_valid_transaction(result.minimized.transaction.path));
    EXPECT_GT(result.steps, 0u);
    EXPECT_FALSE(result.budget_exhausted);

    // Deterministic: shrinking the same case twice yields the same bytes.
    const ShrinkResult again = shrink_case(spec_, graph, *longest, always);
    EXPECT_EQ(case_bytes(result.minimized), case_bytes(again.minimized));
}

TEST_F(FuzzTest, ShrinkerAlternatesItsPassesToAFixpoint) {
    // The failure needs two Inc calls unless the constructor's step is
    // 1: ddmin can drop neither Inc until the value pass has pulled the
    // step down, so a single ddmin-then-values pass stops short.
    const Predicate two_incs_or_unit_step = [](const driver::TestCase& tc) {
        std::size_t incs = 0;
        bool unit_step = false;
        for (const auto& call : tc.calls) {
            if (call.method_name == "Inc") ++incs;
            if (call.method_id == "m2" &&
                call.arguments.at(0) == domain::Value::make_int(1)) {
                unit_step = true;
            }
        }
        return unit_step || incs >= 2;
    };
    driver::GeneratorOptions options;
    options.seed = 9;
    const auto suite = driver::DriverGenerator(spec_, options).generate();
    driver::TestCase failing;
    for (const auto& tc : suite.cases) {
        if (tc.calls.front().method_id == "m2" && two_incs_or_unit_step(tc)) {
            failing = tc;
            break;
        }
    }
    ASSERT_FALSE(failing.calls.empty()) << "no Counter(step) case with two Incs";
    failing.calls.front().arguments.at(0) = domain::Value::make_int(5);
    ASSERT_TRUE(two_incs_or_unit_step(failing));

    const auto graph = spec_.build_tfm();
    const ShrinkResult result =
        shrink_case(spec_, graph, failing, two_incs_or_unit_step);
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(result.minimized.calls.front().arguments.at(0),
              domain::Value::make_int(1));
    for (const auto& call : result.minimized.calls) {
        EXPECT_NE(call.method_name, "Inc") << case_bytes(result.minimized);
    }

    // The result is the fixpoint: shrinking it again changes nothing.
    const ShrinkResult again =
        shrink_case(spec_, graph, result.minimized, two_incs_or_unit_step);
    EXPECT_EQ(case_bytes(again.minimized), case_bytes(result.minimized));
    EXPECT_EQ(again.sequence_removals, 0u);
    EXPECT_EQ(again.value_reductions, 0u);
}

TEST_F(FuzzTest, ShrinkBudgetIsHonoured) {
    driver::GeneratorOptions options;
    options.seed = 9;
    const auto suite = driver::DriverGenerator(spec_, options).generate();
    const driver::TestCase* longest = nullptr;
    for (const auto& tc : suite.cases) {
        if (!longest || tc.calls.size() > longest->calls.size()) longest = &tc;
    }
    ASSERT_NE(longest, nullptr);

    ShrinkOptions tight;
    tight.max_steps = 1;
    const auto graph = spec_.build_tfm();
    const ShrinkResult result = shrink_case(
        spec_, graph, *longest, [](const driver::TestCase&) { return true; },
        tight);
    EXPECT_LE(result.steps, 1u);
    EXPECT_TRUE(result.budget_exhausted);
    // The result still satisfies the predicate (trivially here) and is
    // never longer than the input.
    EXPECT_LE(result.minimized.calls.size(), longest->calls.size());
}

TEST_F(FuzzTest, CorpusEntriesRoundTripByteIdentically) {
    driver::GeneratorOptions options;
    options.seed = 4;
    const auto suite = driver::DriverGenerator(spec_, options).generate();
    ASSERT_FALSE(suite.cases.empty());

    CorpusEntry entry;
    entry.suite = suite;
    entry.suite.cases = {suite.cases.front()};
    entry.verdict = driver::Verdict::AssertionViolation;
    entry.failed_method = "Inc";
    entry.mutant_id = "Counter::Inc@s0.BitNeg";
    entry.kill_reason = "assertion";

    std::ostringstream first;
    save_entry(first, entry);
    std::istringstream in(first.str());
    const CorpusEntry reloaded = load_entry(in);
    EXPECT_EQ(reloaded.verdict, entry.verdict);
    EXPECT_EQ(reloaded.failed_method, entry.failed_method);
    EXPECT_EQ(reloaded.mutant_id, entry.mutant_id);
    EXPECT_EQ(reloaded.kill_reason, entry.kill_reason);
    ASSERT_EQ(reloaded.suite.size(), 1u);

    std::ostringstream second;
    save_entry(second, reloaded);
    EXPECT_EQ(first.str(), second.str());

    // The canonical filename is a pure function of the content.
    const std::string name = entry_filename(entry);
    EXPECT_EQ(name, entry_filename(reloaded));
    EXPECT_EQ(name.find("Counter-assertion-violation-"), 0u);
    EXPECT_EQ(name.substr(name.size() - 6), ".suite");
}

TEST_F(FuzzTest, CorpusLoaderRejectsMalformedEntries) {
    std::istringstream bad_magic("concat-whatever 1\n");
    EXPECT_THROW((void)load_entry(bad_magic), Error);
    std::istringstream bad_verdict(
        "concat-corpus 1\nverdict not-a-verdict\n");
    EXPECT_THROW((void)load_entry(bad_verdict), Error);
    std::istringstream no_suite("concat-corpus 1\nverdict crash\n");
    EXPECT_THROW((void)load_entry(no_suite), Error);
}

TEST_F(FuzzTest, PersistedFindingsReplayFromDisk) {
    const auto mutants =
        mutation::enumerate_mutants(stc::testing::Counter::inc_descriptor());
    // Find one mutant the fuzzer can kill; the loop is deterministic.
    for (const auto& mutant : mutants) {
        const FuzzResult result = fuzz(&mutant);
        if (result.findings.empty()) continue;

        const std::string dir = ::testing::TempDir() + "stc_fuzz_corpus";
        std::filesystem::remove_all(dir);
        const Finding& finding = result.findings.front();
        const CaseRunner runner = runner_for(&mutant);
        const PersistOutcome outcome = persist_entry(
            dir, finding.to_corpus_entry("Counter"), nullptr, runner, 99);
        ASSERT_TRUE(outcome.reproducible);
        ASSERT_FALSE(outcome.path.empty());

        const auto listed = list_corpus(dir);
        ASSERT_EQ(listed.size(), 1u);
        EXPECT_EQ(listed.front(), outcome.path);

        // Reload from disk and replay: the recorded verdict holds.
        const CorpusEntry reloaded = load_entry_file(outcome.path);
        EXPECT_EQ(reloaded.suite.seed, 99u);
        const auto replay = runner(reloaded.reproducer());
        EXPECT_EQ(replay.verdict, reloaded.verdict);
        return;  // one killable mutant is enough
    }
    FAIL() << "no Counter mutant produced a finding";
}

TEST_F(FuzzTest, ListCorpusOnMissingDirectoryIsEmpty) {
    EXPECT_TRUE(list_corpus("/tmp/definitely/not/a/corpus/dir").empty());
}

}  // namespace
}  // namespace stc::fuzz
