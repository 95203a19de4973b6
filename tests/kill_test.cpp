// stc::kill tests: bounded product-state search for killers of campaign
// survivors.  The load-bearing contracts: a reachable divergent site is
// found within budget; an unreachable site is a fast, classified
// give-up (not a hang); budget exhaustion is deterministic; a verified
// killer really kills its mutant when replayed through the ordinary
// runner; and the whole pass — report, updated records, telemetry,
// corpus files — is byte-identical across repeated same-seed runs and
// across --jobs 1/4.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "stc/campaign/result_store.h"
#include "stc/core/self_testable.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/kill/kill.h"
#include "stc/kill/search.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/descriptor.h"
#include "stc/mutation/engine.h"
#include "stc/obs/jsonl_sink.h"
#include "stc/support/error.h"

namespace stc {
namespace {

// The two CObList campaign survivors that are equivalent within the TFM
// language but killable through the widened spec alphabet (RemoveTail
// after RemoveHead needs three elements first) — the mutants the kill
// pass exists for — plus one that stays unkilled at any budget we can
// afford in a unit test.
constexpr const char* kKillableA =
    "CObList::RemoveHead@s4.IndVarRepGlob.m_pNodeTail";
constexpr const char* kKillableB = "CObList::RemoveHead@s4.IndVarRepLoc.pOldNode";
constexpr const char* kStubborn = "CObList::AddHead@s4.IndVarRepGlob.m_pNodeTail";

class KillSearchTest : public ::testing::Test {
protected:
    KillSearchTest()
        : component_(mfc::coblist_spec(), mfc::coblist_binding()),
          completions_(mfc::make_completions(pool_)) {
        component_.set_completions(completions_);
        mutants_ = mutation::enumerate_mutants(mfc::descriptors(), "CObList");
        model_ = model::binding_for("CObList");
    }

    [[nodiscard]] const mutation::Mutant& mutant(const std::string& id) const {
        for (const mutation::Mutant& m : mutants_) {
            if (m.id() == id) return m;
        }
        throw Error("test names unknown mutant: " + id);
    }

    [[nodiscard]] kill::SearchOptions search_options() const {
        kill::SearchOptions options;
        options.runner.model = model_;
        return options;
    }

    [[nodiscard]] kill::ProductSearch make_search(
        const kill::SearchOptions& options) const {
        return {component_.spec(), component_.registry(), &completions_,
                options};
    }

    mfc::ElementPool pool_;
    core::SelfTestableComponent component_;
    driver::CompletionRegistry completions_;
    std::vector<mutation::Mutant> mutants_;
    const driver::ModelBinding* model_ = nullptr;
};

TEST_F(KillSearchTest, FindsKillerForReachableDivergentSite) {
    const kill::ProductSearch search = make_search(search_options());
    const kill::SearchOutcome outcome = search.find_killer(mutant(kKillableB));
    ASSERT_EQ(outcome.status, kill::SearchStatus::Verified);
    EXPECT_FALSE(outcome.killer.calls.empty());
    EXPECT_NE(outcome.reason, oracle::KillReason::None);
    // This survivor is equivalent within the TFM language; the killer
    // must come from the widened spec alphabet.
    EXPECT_TRUE(outcome.widened);
    EXPECT_LE(outcome.stats.states_expanded, search_options().budget_states);
    EXPECT_GT(outcome.stats.armed_states, 0u);
}

TEST_F(KillSearchTest, VerifiedKillerReplaysToARealKill) {
    const kill::ProductSearch search = make_search(search_options());
    const kill::SearchOutcome outcome = search.find_killer(mutant(kKillableB));
    ASSERT_EQ(outcome.status, kill::SearchStatus::Verified);

    driver::RunnerOptions ro;
    ro.model = model_;
    const driver::TestRunner runner(component_.registry(), ro);
    const reflect::ClassBinding& binding = component_.registry().at("CObList");

    // Clean leg: the killer is a passing test of the unmutated CUT.
    const driver::TestResult clean = runner.run_case(binding, outcome.killer);
    EXPECT_EQ(clean.verdict, driver::Verdict::Pass) << clean.message;

    // Mutated leg: with the target mutant active it must fail outright
    // (the search verified an assertion-class kill, not a silent diff).
    driver::TestResult mutated;
    {
        const mutation::MutantActivation activation(mutant(kKillableB));
        mutated = runner.run_case(binding, outcome.killer);
    }
    EXPECT_NE(mutated.verdict, driver::Verdict::Pass);
}

TEST_F(KillSearchTest, UnreachableSiteIsAFastClassifiedGiveUp) {
    // A mutant in a method the t-spec does not know: no transaction of
    // either phase can ever traverse its site, so the search must
    // return site-unreachable without consuming the budget (a hang or a
    // full-budget crawl here would make every equivalent mutant cost
    // the worst case).
    static const mutation::MethodDescriptor phantom = [] {
        mutation::MethodDescriptor::Builder b("CObList", "Phantom");
        b.local("x", mutation::int_type());
        b.site("x");
        return b.build();
    }();
    const std::vector<mutation::Mutant> ghosts =
        mutation::enumerate_mutants(phantom);
    ASSERT_FALSE(ghosts.empty());

    const kill::ProductSearch search = make_search(search_options());
    const kill::SearchOutcome outcome = search.find_killer(ghosts.front());
    EXPECT_EQ(outcome.status, kill::SearchStatus::SiteUnreachable);
    EXPECT_EQ(outcome.stats.states_expanded, 0u);
}

TEST_F(KillSearchTest, BudgetExhaustionIsDeterministic) {
    kill::SearchOptions options = search_options();
    options.budget_states = 64;  // far too small to decide anything
    const kill::ProductSearch search = make_search(options);

    const kill::SearchOutcome first = search.find_killer(mutant(kStubborn));
    const kill::SearchOutcome second = search.find_killer(mutant(kStubborn));
    EXPECT_EQ(first.status, kill::SearchStatus::BudgetExhausted);
    EXPECT_EQ(second.status, first.status);
    EXPECT_EQ(second.stats.states_expanded, first.stats.states_expanded);
    EXPECT_EQ(second.stats.candidates_executed, first.stats.candidates_executed);
    EXPECT_EQ(second.stats.armed_states, first.stats.armed_states);
    EXPECT_EQ(first.stats.states_expanded, options.budget_states);
}

TEST_F(KillSearchTest, DepthCutIsNotExhaustion) {
    // Three calls after birth cannot reach this survivor's killer.  The
    // search explores everything above the cut without touching its
    // budget, but it dropped states that had successors: that is an
    // inconclusive stop, never an exhausted product.
    kill::SearchOptions options = search_options();
    options.max_depth = 3;
    const kill::SearchOutcome outcome =
        make_search(options).find_killer(mutant(kKillableA));
    EXPECT_EQ(outcome.status, kill::SearchStatus::BudgetExhausted);
    EXPECT_LT(outcome.stats.states_expanded, options.budget_states);
    EXPECT_GT(outcome.stats.armed_states, 0u);
}

// Search effort at default options.  The values were recorded from the
// search that re-ran every candidate from its constructor; a faster way
// of executing candidates may drop executed calls but must not move the
// outcome or any counter.  A class without a cloner runs the same search
// with every leg starting at the constructor, and lands on the same
// values and the same killers.
TEST_F(KillSearchTest, DefaultSearchEffortIsPinned) {
    struct Pin {
        const char* mutant;
        kill::SearchStatus status;
        oracle::KillReason reason;
        bool widened;
        std::size_t killer_calls;
        kill::SearchStats stats;
    };
    const Pin pins[] = {
        {kKillableA, kill::SearchStatus::Verified,
         oracle::KillReason::Assertion, true, 7, {285, 194, 71, 47, 1}},
        {kKillableB, kill::SearchStatus::Verified,
         oracle::KillReason::Assertion, true, 6, {202, 133, 51, 31, 1}},
        {kStubborn, kill::SearchStatus::BudgetExhausted,
         oracle::KillReason::None, false, 0, {4096, 4682, 22, 22, 1}},
    };
    reflect::ClassBinding uncloned_binding = mfc::coblist_binding();
    uncloned_binding.set_cloner({});
    core::SelfTestableComponent uncloned(mfc::coblist_spec(), uncloned_binding);
    uncloned.set_completions(completions_);
    ASSERT_FALSE(uncloned.registry().at("CObList").has_cloner());

    const kill::ProductSearch with_cloner = make_search(search_options());
    const kill::ProductSearch without_cloner(uncloned.spec(), uncloned.registry(),
                                             &completions_, search_options());
    for (const Pin& pin : pins) {
        std::vector<kill::SearchOutcome> outcomes;
        for (const kill::ProductSearch* search : {&with_cloner, &without_cloner}) {
            SCOPED_TRACE(std::string(pin.mutant) +
                         (search == &with_cloner ? "" : " without a cloner"));
            const kill::SearchOutcome outcome =
                search->find_killer(mutant(pin.mutant));
            EXPECT_EQ(outcome.status, pin.status);
            EXPECT_EQ(outcome.reason, pin.reason);
            EXPECT_EQ(outcome.widened, pin.widened);
            EXPECT_EQ(outcome.killer.calls.size(), pin.killer_calls);
            EXPECT_EQ(outcome.stats.states_expanded, pin.stats.states_expanded);
            EXPECT_EQ(outcome.stats.candidates_executed,
                      pin.stats.candidates_executed);
            EXPECT_EQ(outcome.stats.arming_checks, pin.stats.arming_checks);
            EXPECT_EQ(outcome.stats.armed_states, pin.stats.armed_states);
            EXPECT_EQ(outcome.stats.rounds, pin.stats.rounds);
            outcomes.push_back(outcome);
        }
        EXPECT_EQ(outcomes[0].killer.id, outcomes[1].killer.id);
        EXPECT_EQ(outcomes[0].killer.transaction_text,
                  outcomes[1].killer.transaction_text);
    }
}

TEST_F(KillSearchTest, SpecificationGraphCoversTheWholeAlphabet) {
    const tfm::Graph graph =
        kill::ProductSearch::specification_graph(component_.spec());
    EXPECT_TRUE(graph.diagnose().empty());
    // Every spec method appears in exactly one node, so the fuzz
    // shrinker's call/node alignment works on widened killers.
    std::size_t methods = 0;
    for (tfm::NodeIndex n = 0; n < graph.node_count(); ++n) {
        methods += graph.node(n).method_ids.size();
        EXPECT_EQ(graph.node(n).method_ids.size(), 1u);
    }
    EXPECT_EQ(methods, component_.spec().methods.size());
}

// ------------------------------------------------------------ kill pass

class KillRunTest : public KillSearchTest {
protected:
    /// A miniature result store: the two killable survivors, one
    /// stubborn survivor, one killed record and one equivalent record
    /// for the score bookkeeping.
    [[nodiscard]] static std::vector<campaign::ItemRecord> make_records() {
        auto record = [](const std::string& id, const std::string& fate) {
            campaign::ItemRecord r;
            r.key = "k-" + id;
            r.mutant_id = id;
            r.fate = fate;
            if (fate == "killed") r.reason = "crash";
            return r;
        };
        return {
            record("CObList::AddHead@s0.IndVarRepReq.NULL", "killed"),
            record(kKillableA, "alive"),
            record(kKillableB, "alive"),
            record(kStubborn, "alive"),
            record("CObList::RemoveAt@s2.IndVarRepGlob.m_pNodeHead",
                   "equivalent"),
        };
    }

    [[nodiscard]] kill::KillOptions kill_options(std::size_t jobs,
                                                 std::ostream& telemetry) const {
        kill::KillOptions options;
        options.jobs = jobs;
        options.search = search_options();
        options.search.budget_states = 1024;  // killers need < 300 states
        options.telemetry = obs::JsonlSink::to_stream(telemetry);
        return options;
    }

    [[nodiscard]] kill::KillContext context() const {
        kill::KillContext ctx;
        ctx.spec = &component_.spec();
        ctx.registry = &component_.registry();
        ctx.completions = &completions_;
        ctx.mutants = &mutants_;
        return ctx;
    }

    /// One full pass; returns (report, serialized records, telemetry).
    struct PassOutput {
        std::string report;
        std::string records;
        std::string telemetry;
        std::size_t verified = 0;
    };
    [[nodiscard]] PassOutput run_pass(std::size_t jobs) const {
        std::vector<campaign::ItemRecord> records = make_records();
        std::ostringstream telemetry;
        const kill::KillOptions options = kill_options(jobs, telemetry);
        const kill::KillRun run = kill::kill_survivors(context(), records, options);

        PassOutput out;
        std::ostringstream report;
        kill::render_kill_report(report, run, "CObList", options);
        out.report = report.str();
        std::ostringstream serialized;
        for (const campaign::ItemRecord& r : records) {
            serialized << r.to_json().to_line() << "\n";
        }
        out.records = serialized.str();
        out.telemetry = telemetry.str();
        out.verified = run.verified;
        return out;
    }
};

TEST_F(KillRunTest, RaisesTheScoreAndUpdatesRecordsInPlace) {
    std::vector<campaign::ItemRecord> records = make_records();
    std::ostringstream telemetry;
    const kill::KillOptions options = kill_options(1, telemetry);
    const kill::KillRun run = kill::kill_survivors(context(), records, options);

    EXPECT_EQ(run.survivors, 3u);
    EXPECT_EQ(run.verified, 2u);
    EXPECT_EQ(run.killed_before, 1u);
    EXPECT_EQ(run.killed_after, 3u);
    EXPECT_GT(run.score_after(), run.score_before());

    // The killable survivors' records were raised in place, flagged as
    // synthesized; the stubborn one and the bookkeeping rows are
    // untouched.
    EXPECT_EQ(records[1].fate, "killed");
    EXPECT_TRUE(records[1].synthesized);
    EXPECT_EQ(records[2].fate, "killed");
    EXPECT_TRUE(records[2].synthesized);
    EXPECT_EQ(records[3].fate, "alive");
    EXPECT_FALSE(records[3].synthesized);
    EXPECT_EQ(records[0].fate, "killed");
    EXPECT_FALSE(records[0].synthesized);
    EXPECT_EQ(records[4].fate, "equivalent");

    // Verified items carry a shrunk killer no longer than the candidate.
    for (const kill::KillItem& item : run.items) {
        if (item.status != kill::SearchStatus::Verified) continue;
        EXPECT_LE(item.killer.calls.size(), item.candidate_calls);
        EXPECT_FALSE(item.killer.calls.empty());
    }
}

TEST_F(KillRunTest, SameSeedPassesAreByteIdenticalAcrossJobs) {
    const PassOutput once = run_pass(1);
    const PassOutput again = run_pass(1);
    const PassOutput parallel = run_pass(4);

    ASSERT_EQ(once.verified, 2u);
    // Two same-seed runs: byte-identical report, records, telemetry.
    EXPECT_EQ(again.report, once.report);
    EXPECT_EQ(again.records, once.records);
    EXPECT_EQ(again.telemetry, once.telemetry);
    // --jobs only distributes survivors across threads.
    EXPECT_EQ(parallel.report, once.report);
    EXPECT_EQ(parallel.records, once.records);
    EXPECT_EQ(parallel.telemetry, once.telemetry);
}

TEST_F(KillRunTest, PersistedKillersReplayFromTheCorpus) {
    const std::string dir =
        "/tmp/stc_kill_corpus_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    std::vector<campaign::ItemRecord> records = make_records();
    std::ostringstream telemetry;
    kill::KillOptions options = kill_options(1, telemetry);
    options.corpus_dir = dir;
    const kill::KillRun run = kill::kill_survivors(context(), records, options);
    ASSERT_EQ(run.verified, 2u);

    std::size_t persisted = 0;
    for (const kill::KillItem& item : run.items) {
        if (item.status != kill::SearchStatus::Verified) continue;
        ASSERT_FALSE(item.corpus_file.empty()) << item.mutant_id;
        ++persisted;

        // The entry replays: load, recomplete, run with the mutant
        // active — the recorded verdict must reproduce.
        fuzz::CorpusEntry entry =
            fuzz::load_entry_file(dir + "/" + item.corpus_file);
        EXPECT_EQ(entry.mutant_id, item.mutant_id);
        (void)driver::recomplete_suite(entry.suite, completions_,
                                       entry.suite.seed);
        driver::RunnerOptions ro;
        ro.model = model_;
        ro.promote_divergence = true;
        const driver::TestRunner runner(component_.registry(), ro);
        const reflect::ClassBinding& binding =
            component_.registry().at("CObList");
        driver::TestResult replayed;
        {
            const mutation::MutantActivation activation(
                mutant(item.mutant_id));
            replayed = runner.run_case(binding, entry.reproducer());
        }
        EXPECT_EQ(replayed.verdict, entry.verdict) << item.mutant_id;
    }
    EXPECT_EQ(persisted, 2u);
    std::filesystem::remove_all(dir);
}

TEST_F(KillRunTest, UnknownSurvivorMutantIsAHardError) {
    std::vector<campaign::ItemRecord> records = make_records();
    records[1].mutant_id = "CObList::NoSuchMethod@s0.IndVarRepReq.NULL";
    std::ostringstream telemetry;
    const kill::KillOptions options = kill_options(1, telemetry);
    EXPECT_THROW(
        { (void)kill::kill_survivors(context(), records, options); }, Error);
}

}  // namespace
}  // namespace stc
