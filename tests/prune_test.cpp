// Fast-tier tests: the coverage-signature index, checkpoint
// memoization, and — the load-bearing contract — the differential
// harness proving that pruned campaigns produce byte-identical fates,
// reports and stored JSONL records to unpruned ones, at every jobs
// count and under --isolate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "stc/campaign/jsonl.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/session.h"
#include "stc/core/self_testable.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/mutation/coverage.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"
#include "stc/mutation/report.h"
#include "stc/support/error.h"
#include "test_component.h"

namespace stc::mutation {
namespace {

/// Counter binding plus the behavioural-copy capability the memoization
/// half needs (the stock test binding registers none, which must keep
/// pruning working with memoization silently off).
reflect::ClassBinding counter_binding_with_cloner() {
    reflect::ClassBinding binding = stc::testing::counter_binding();
    binding.set_cloner([](const void* object) -> void* {
        return new stc::testing::Counter(
            *static_cast<const stc::testing::Counter*>(object));
    });
    return binding;
}

bool calls_inc(const driver::TestCase& tc) {
    return std::any_of(tc.calls.begin(), tc.calls.end(),
                       [](const driver::MethodCall& call) {
                           return call.method_name == "Inc";
                       });
}

class PruneTest : public ::testing::Test {
protected:
    PruneTest() : spec_(stc::testing::counter_spec()) {
        registry_.add(counter_binding_with_cloner());
        suite_ = driver::DriverGenerator(spec_).generate();
        mutants_ = enumerate_mutants(stc::testing::counter_descriptors(),
                                     "Counter");
    }

    [[nodiscard]] const reflect::ClassBinding& binding() const {
        return registry_.at("Counter");
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
    driver::TestSuite suite_;
    std::vector<Mutant> mutants_;
};

// ------------------------------------------------------- coverage index

TEST_F(PruneTest, GoldenRunRecordsFirstHitPerSite) {
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    ASSERT_EQ(covered.index.cases().size(), suite_.size());
    ASSERT_FALSE(mutants_.empty());
    const Mutant& inc_mutant = mutants_.front();  // every mutant is in Inc

    for (const driver::TestCase& tc : suite_.cases) {
        const auto* coverage = covered.index.find(tc.id);
        ASSERT_NE(coverage, nullptr) << tc.id;
        if (!calls_inc(tc)) continue;
        // CaseObserver convention: calls[0] is the constructor (index
        // 0 covers construction + entry state), so the first body call
        // that consults a site IS its position in `calls`.
        std::size_t first_inc = 0;
        for (std::size_t i = 1; i < tc.calls.size(); ++i) {
            if (tc.calls[i].method_name == "Inc") {
                first_inc = i;
                break;
            }
        }
        ASSERT_GT(first_inc, 0u) << tc.id;
        EXPECT_TRUE(covered.index.covers(tc.id, inc_mutant)) << tc.id;
        EXPECT_EQ(covered.index.first_hit(tc.id, inc_mutant), first_inc)
            << tc.id;
    }
}

TEST_F(PruneTest, CaseReachingNoSiteIsIndexedEmpty) {
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    bool saw_siteless_case = false;
    for (const driver::TestCase& tc : suite_.cases) {
        if (calls_inc(tc)) continue;
        saw_siteless_case = true;
        const auto* coverage = covered.index.find(tc.id);
        ASSERT_NE(coverage, nullptr) << tc.id;
        EXPECT_TRUE(coverage->first_hit.empty()) << tc.id;
        for (const Mutant& m : mutants_) {
            EXPECT_FALSE(covered.index.covers(tc.id, m)) << tc.id;
            EXPECT_FALSE(covered.index.first_hit(tc.id, m).has_value());
        }
    }
    // The Counter TFM has Get-only transactions; if this stops holding
    // the test must move to a suite that still has an uncovering case.
    ASSERT_TRUE(saw_siteless_case);
}

TEST_F(PruneTest, IndexFingerprintTracksSuiteAndCoverage) {
    const CoveredRun a =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    const CoveredRun b =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    EXPECT_EQ(a.index.fingerprint(), b.index.fingerprint());
    EXPECT_EQ(a.index.pair_count(), b.index.pair_count());

    driver::TestSuite shorter = suite_;
    ASSERT_GT(shorter.cases.size(), 1u);
    shorter.cases.pop_back();
    const CoveredRun c =
        run_with_coverage(registry_, driver::RunnerOptions{}, shorter);
    EXPECT_NE(a.index.fingerprint(), c.index.fingerprint());
}

TEST_F(PruneTest, IndexFingerprintIsPinned) {
    // The digest is a pointer-free FNV-1a over (case id, qualified method
    // name, site, first hit); telemetry readers correlate runs by it, so
    // its value must not drift.
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    EXPECT_EQ(covered.index.fingerprint(), 0x0016253c88305209ULL);
}

TEST_F(PruneTest, NestedCoverageScopeThrows) {
    CoverageIndex index;
    CoverageRecorder recorder(index);
    const CoverageScope outer(recorder);
    EXPECT_THROW(CoverageScope inner(recorder), ContractError);
}

// ------------------------------------------------ pruned single mutants

TEST_F(PruneTest, UnreachedMutantIsNotCoveredWithoutExecuting) {
    // Sub-suite of the cases that never call Inc: every mutant's site is
    // provably unreached, so the pruned evaluator must classify
    // NotCovered from the index alone, executing zero pairs.
    driver::TestSuite uncovering;
    uncovering.class_name = suite_.class_name;
    uncovering.seed = suite_.seed;
    for (const driver::TestCase& tc : suite_.cases) {
        if (!calls_inc(tc)) uncovering.cases.push_back(tc);
    }
    ASSERT_FALSE(uncovering.cases.empty());

    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, uncovering);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan =
        build_prune_plan(binding(), uncovering, covered.index, nullptr, {});
    const EngineOptions options;

    for (const Mutant& mutant : mutants_) {
        PruneStats stats;
        const MutantOutcome pruned = evaluate_mutant_pruned(
            mutant, runner, binding(), uncovering, golden, nullptr, nullptr,
            {}, plan, options, &stats);
        EXPECT_EQ(pruned.fate, MutantFate::NotCovered) << mutant.id();
        EXPECT_FALSE(pruned.hit_by_suite);
        EXPECT_EQ(stats.executed_pairs, 0u);
        EXPECT_EQ(stats.pruned_pairs, uncovering.cases.size());

        const MutantOutcome full = evaluate_mutant(
            mutant, runner, uncovering, golden, nullptr, nullptr, {}, options);
        EXPECT_EQ(full.fate, pruned.fate) << mutant.id();
        EXPECT_EQ(full.reason, pruned.reason) << mutant.id();
        EXPECT_EQ(full.hit_by_suite, pruned.hit_by_suite) << mutant.id();
    }
}

TEST_F(PruneTest, MemoizationResumesPastTheUninstrumentedPrefix) {
    // Hand-built case whose first site consult happens at body call 4:
    // the plan must checkpoint there, and the pruned evaluator must skip
    // the three un-mutated calls before it — fate-identically.  The
    // ladder is captured when the first mutant runs the case.
    auto call = [](const char* id, const char* name) {
        driver::MethodCall c;
        c.method_id = id;
        c.method_name = name;
        return c;
    };
    driver::TestCase tc;
    tc.id = "TCmemo";
    tc.transaction_text = "hand-built";
    driver::MethodCall ctor = call("m1", "Counter");
    ctor.is_constructor = true;
    tc.calls = {ctor,
                call("m7", "Get"),
                call("m6", "Reset"),
                call("m7", "Get"),
                call("m4", "Inc"),
                call("m7", "Get")};
    driver::TestSuite suite;
    suite.class_name = "Counter";
    suite.cases = {tc};

    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite);
    ASSERT_EQ(covered.index.first_hit(tc.id, mutants_.front()), 4u);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan =
        build_prune_plan(binding(), suite, covered.index, nullptr, {});
    ASSERT_EQ(plan.case_plans.size(), 1u);
    ASSERT_FALSE(plan.case_plans[0].boundaries.empty());
    EXPECT_EQ(plan.case_plans[0].boundaries.back(), 4u);

    const EngineOptions options;
    for (const Mutant& mutant : mutants_) {
        PruneStats stats;
        const MutantOutcome pruned = evaluate_mutant_pruned(
            mutant, runner, binding(), suite, golden, nullptr, nullptr, {},
            plan, options, &stats);
        EXPECT_EQ(stats.executed_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.memoized_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.memoized_calls, 3u) << mutant.id();

        const MutantOutcome full = evaluate_mutant(
            mutant, runner, suite, golden, nullptr, nullptr, {}, options);
        EXPECT_EQ(full.fate, pruned.fate) << mutant.id();
        EXPECT_EQ(full.reason, pruned.reason) << mutant.id();
        EXPECT_EQ(full.hit_by_suite, pruned.hit_by_suite) << mutant.id();
    }

    const std::vector<driver::CaseCheckpoint>& ladder =
        plan.case_plans[0].ladder(runner, binding(), tc);
    ASSERT_FALSE(ladder.empty());
    EXPECT_EQ(ladder.back().resume_call, 4u);
}

TEST_F(PruneTest, ManualOracleRejectsPrunedEvaluation) {
    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan =
        build_prune_plan(binding(), suite_, covered.index, nullptr, {});
    EngineOptions options;
    options.manual_oracle = [](const std::string&, const std::string&) {
        return true;
    };
    EXPECT_THROW(
        (void)evaluate_mutant_pruned(mutants_.front(), runner, binding(),
                                     suite_, golden, nullptr, nullptr, {},
                                     plan, options),
        ContractError);
}

// --------------------------------------------- campaign-level contracts

using StoredFates =
    std::map<std::string, std::tuple<std::string, std::string, bool, bool>>;

/// fate/reason/hit/probe_kill per mutant id, parsed back out of a
/// result-store JSONL file (header and malformed lines skipped).
StoredFates read_store_fates(const std::string& path) {
    StoredFates fates;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto object = campaign::JsonObject::parse(line);
        if (!object) continue;
        const auto record = campaign::ItemRecord::from_json(*object);
        if (!record) continue;
        fates[record->mutant_id] = {record->fate, record->reason,
                                    record->hit_by_suite,
                                    record->killed_by_probe};
    }
    return fates;
}

void expect_same_outcomes(const MutationRun& a, const MutationRun& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].mutant, b.outcomes[i].mutant) << i;
        EXPECT_EQ(a.outcomes[i].fate, b.outcomes[i].fate) << i;
        EXPECT_EQ(a.outcomes[i].reason, b.outcomes[i].reason) << i;
        EXPECT_EQ(a.outcomes[i].hit_by_suite, b.outcomes[i].hit_by_suite) << i;
        EXPECT_EQ(a.outcomes[i].killed_by_probe, b.outcomes[i].killed_by_probe)
            << i;
    }
}

std::string render(const campaign::CampaignResult& result,
                   const driver::TestSuite& suite) {
    std::ostringstream os;
    render_campaign_report(os, result.run, suite.class_name, suite.size(),
                           suite.seed);
    return os.str();
}

/// The differential harness: one generated Counter campaign per seed,
/// executed unpruned (the reference) and pruned at --jobs 1/2/4 and
/// under --isolate; fates, rendered reports, scores and stored JSONL
/// records must be byte-identical throughout.
class PruneDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneDifferential, PrunedFatesReportsAndStoresMatchUnpruned) {
    const std::uint64_t seed = GetParam();
    const tspec::ComponentSpec spec = stc::testing::counter_spec();
    reflect::Registry registry;
    registry.add(counter_binding_with_cloner());

    driver::GeneratorOptions generator;
    generator.seed = seed;
    generator.cases_per_transaction = 2;
    const driver::TestSuite suite =
        driver::DriverGenerator(spec, generator).generate();
    driver::GeneratorOptions probe_options = generator;
    probe_options.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    probe_options.cases_per_transaction = 3;
    const driver::TestSuite probe =
        driver::DriverGenerator(spec, probe_options).generate();
    const auto mutants =
        enumerate_mutants(stc::testing::counter_descriptors(), "Counter");

    auto run_campaign = [&](bool prune, std::size_t jobs, bool isolate,
                            const std::string& store_path) {
        std::remove(store_path.c_str());  // fresh run, not a resume
        campaign::CampaignOptions options;
        options.seed = seed;
        options.jobs = jobs;
        options.prune = prune;
        options.isolate = isolate;
        options.store_path = store_path;
        const campaign::CampaignScheduler scheduler(registry, options);
        return scheduler.run(suite, mutants, &probe);
    };

    const std::string dir = ::testing::TempDir();
    const std::string tag = std::to_string(seed);
    const std::string baseline_store = dir + "prune_base_" + tag + ".jsonl";
    const campaign::CampaignResult baseline =
        run_campaign(false, 1, false, baseline_store);
    EXPECT_FALSE(baseline.stats.pruned);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
        const std::string store =
            dir + "prune_j" + std::to_string(jobs) + "_" + tag + ".jsonl";
        const campaign::CampaignResult pruned =
            run_campaign(true, jobs, false, store);
        EXPECT_TRUE(pruned.stats.pruned);
        expect_same_outcomes(baseline.run, pruned.run);
        EXPECT_EQ(render(baseline, suite), render(pruned, suite));
        EXPECT_DOUBLE_EQ(baseline.run.score(), pruned.run.score());
        EXPECT_DOUBLE_EQ(baseline.run.covered_score(),
                         pruned.run.covered_score());
        EXPECT_EQ(read_store_fates(baseline_store), read_store_fates(store));
        // The tier must actually avoid work, not just agree.
        EXPECT_GT(pruned.stats.pruned_pairs, 0u);
        EXPECT_LT(pruned.stats.executed_pairs,
                  mutants.size() * (suite.size() + probe.size()));
    }

    const std::string isolate_store = dir + "prune_iso_" + tag + ".jsonl";
    const campaign::CampaignResult isolated =
        run_campaign(true, 1, true, isolate_store);
    EXPECT_TRUE(isolated.stats.pruned);
    expect_same_outcomes(baseline.run, isolated.run);
    EXPECT_EQ(render(baseline, suite), render(isolated, suite));
    EXPECT_EQ(read_store_fates(baseline_store),
              read_store_fates(isolate_store));
    EXPECT_GT(isolated.stats.pruned_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneDifferential,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST_F(PruneTest, FingerprintSeparatesPrunedFromUnprunedStores) {
    const driver::TestSuite probe;  // unused: fingerprint only
    campaign::CampaignOptions pruned_options;
    pruned_options.prune = true;
    campaign::CampaignOptions unpruned_options;
    unpruned_options.prune = false;
    const campaign::CampaignScheduler pruned(registry_, pruned_options);
    const campaign::CampaignScheduler unpruned(registry_, unpruned_options);
    EXPECT_NE(pruned.fingerprint(suite_, mutants_, nullptr),
              unpruned.fingerprint(suite_, mutants_, nullptr));

    // A manual oracle disengages the tier, so the fingerprint must fall
    // back to the unpruned identity (same rule the scheduler applies
    // when deciding whether to prune at all).
    campaign::CampaignOptions manual_options;
    manual_options.prune = true;
    manual_options.engine.manual_oracle =
        [](const std::string&, const std::string&) { return true; };
    campaign::CampaignOptions manual_unpruned = manual_options;
    manual_unpruned.prune = false;
    const campaign::CampaignScheduler a(registry_, manual_options);
    const campaign::CampaignScheduler b(registry_, manual_unpruned);
    EXPECT_EQ(a.fingerprint(suite_, mutants_, nullptr),
              b.fingerprint(suite_, mutants_, nullptr));
}

TEST_F(PruneTest, PrunedStoreIsNotResumedUnpruned) {
    const std::string store =
        ::testing::TempDir() + "prune_invalidation.jsonl";
    std::remove(store.c_str());
    campaign::CampaignOptions options;
    options.prune = true;
    options.store_path = store;
    const campaign::CampaignScheduler pruned(registry_, options);
    const auto first = pruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(first.stats.resumed, 0u);
    EXPECT_EQ(first.stats.executed, mutants_.size());

    // Same tier, same store: everything resumes.
    const auto again = pruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(again.stats.resumed, mutants_.size());
    EXPECT_EQ(again.stats.executed, 0u);

    // Pruning off: different fingerprint, so the store is invalidated
    // and rebuilt from scratch — fates produced under a different
    // execution tier never resume (mirroring the --model rule).
    options.prune = false;
    const campaign::CampaignScheduler unpruned(registry_, options);
    const auto second = unpruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(second.stats.resumed, 0u);
    EXPECT_EQ(second.stats.executed, mutants_.size());

    // And back on: the unpruned store is equally foreign to the pruned
    // tier — invalidated again, every item re-executed.
    options.prune = true;
    const campaign::CampaignScheduler repruned(registry_, options);
    const auto third = repruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(third.stats.resumed, 0u);
    EXPECT_EQ(third.stats.executed, mutants_.size());
}

// ------------------------------------------------------ per-case ladders
//
// Every case captures its own checkpoints, so two cases that differ in
// one argument value never resume from each other's prefix.

/// Keeps a real and a key/value pair.  Only Touch() consults a site, so
/// a case's first hit is its first Touch().
class Register : public bit::BuiltInTest {
public:
    static const MethodDescriptor& touch_descriptor() {
        static const MethodDescriptor d =
            MethodDescriptor::Builder("Register", "Touch")
                .attr("touches_", int_type(), true)
                .site("touches_", "old count")  // s0
                .build();
        return d;
    }

    void Set(double real) { real_ = real; }
    void Put(const std::string& key, const std::string& value) {
        key_ = key;
        value_ = value;
    }
    void Touch() {
        MutFrame frame(touch_descriptor());
        frame.bind("touches_", &touches_);
        touches_ = frame.use(0, touches_) + 1;
    }

    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << std::setprecision(17) << "Register{" << real_ << ", " << key_
           << "=" << value_ << ", " << touches_ << "}";
    }

private:
    double real_ = 0;
    std::string key_;
    std::string value_;
    int touches_ = 0;
};

TEST(PruneSignature, DistinctArgumentsGetDistinctCheckpoints) {
    reflect::Binder<Register> b("Register");
    b.ctor<>();
    b.method("Set", &Register::Set);
    b.method("Put", &Register::Put);
    b.method("Touch", &Register::Touch);
    b.cloner([](const Register& source) { return new Register(source); });
    reflect::Registry registry;
    registry.add(b.take());
    const reflect::ClassBinding& binding = registry.at("Register");
    const driver::TestRunner runner(registry, {});
    const std::vector<Mutant> mutants =
        enumerate_mutants(Register::touch_descriptor());
    ASSERT_FALSE(mutants.empty());

    using domain::Value;
    const auto call = [](const char* name, std::vector<Value> arguments) {
        driver::MethodCall c;
        c.method_name = name;
        c.arguments = std::move(arguments);
        return c;
    };
    // Register(); <first>; Touch(): the first hit is at call 2.
    const auto make_case = [&](const char* id, driver::MethodCall first) {
        driver::MethodCall ctor = call("Register", {});
        ctor.is_constructor = true;
        driver::TestCase tc;
        tc.id = id;
        tc.transaction_text = "hand-built";
        tc.calls = {ctor, std::move(first), call("Touch", {})};
        return tc;
    };
    // Each pair differs only in the 7th significant digit of a real, or
    // only in where ";s" splits two strings.
    const std::vector<std::pair<driver::TestCase, driver::TestCase>> pairs = {
        {make_case("TCa", call("Set", {Value::make_real(1.0000001)})),
         make_case("TCb", call("Set", {Value::make_real(1.0000002)}))},
        {make_case("TCc", call("Put", {Value::make_string("a;sb"),
                                       Value::make_string("c")})),
         make_case("TCd", call("Put", {Value::make_string("a"),
                                       Value::make_string("b;sc")}))},
    };
    for (const auto& [first, second] : pairs) {
        SCOPED_TRACE(first.id + " / " + second.id);
        driver::TestSuite suite;
        suite.class_name = "Register";
        suite.cases = {first, second};
        const CoveredRun covered =
            run_with_coverage(registry, driver::RunnerOptions{}, suite);
        const auto golden = oracle::GoldenRecord::from(covered.result);
        const PrunePlan plan =
            build_prune_plan(binding, suite, covered.index, nullptr, {});
        // First use: the mutant runs both cases (it kills by output, not
        // by a crash that would end the leg).
        (void)evaluate_mutant_pruned(mutants.front(), runner, binding, suite,
                                     golden, nullptr, nullptr, {}, plan,
                                     EngineOptions{});
        ASSERT_EQ(plan.case_plans.size(), 2u);
        const std::vector<driver::CaseCheckpoint>& first_ladder =
            plan.case_plans[0].ladder(runner, binding, first);
        const std::vector<driver::CaseCheckpoint>& second_ladder =
            plan.case_plans[1].ladder(runner, binding, second);
        ASSERT_EQ(first_ladder.size(), 1u);
        ASSERT_EQ(second_ladder.size(), 1u);
        const driver::CaseCheckpoint& own = second_ladder[0];
        EXPECT_EQ(own.resume_call, 2u);
        EXPECT_NE(own.prototype.get(), first_ladder[0].prototype.get());

        const driver::TestResult full = runner.run_case(binding, second);
        const driver::TestResult resumed =
            runner.run_case_from(binding, second, own);
        EXPECT_EQ(resumed.verdict, full.verdict);
        EXPECT_EQ(resumed.report, full.report);
    }
}

// The real components: CObList has pointer-valued arguments (checkpoint
// signatures must be identity-exact) and a mixed instrumented /
// uninstrumented method population — the closest in-tree stand-in for
// the paper's production component — and CSortableObList is the
// sparse-coverage Experiment 1 subject.  With the lockstep model and a
// probe suite every leg the stop rule cuts (suite, model, probe) runs.
TEST(PruneCObList, PrunedCampaignMatchesUnprunedOnTheRealComponent) {
    struct Input {
        bool sortable;
        bool model;
        bool probe;
    };
    for (const Input input : {Input{false, false, false}, Input{false, true, true},
                              Input{true, false, true}}) {
        SCOPED_TRACE(std::string(input.sortable ? "sortable" : "coblist") +
                     (input.model ? " --model" : "") +
                     (input.probe ? " --probe" : ""));
        mfc::ElementPool pool;
        core::SelfTestableComponent component(
            input.sortable ? mfc::sortable_spec() : mfc::coblist_spec(),
            input.sortable ? mfc::sortable_binding() : mfc::coblist_binding());
        const driver::CompletionRegistry completions = mfc::make_completions(pool);
        component.set_completions(completions);
        driver::GeneratorOptions generator;
        generator.seed = 7;
        const driver::TestSuite suite = component.generate_tests(generator);
        driver::TestSuite probe;
        if (input.probe) {
            probe = component.generate_tests(campaign::probe_generator(generator));
        }
        const auto mutants =
            enumerate_mutants(mfc::descriptors(), suite.class_name);
        ASSERT_FALSE(mutants.empty());

        auto run_campaign = [&](bool prune, std::size_t jobs) {
            campaign::CampaignOptions options;
            options.seed = generator.seed;
            options.prune = prune;
            options.jobs = jobs;
            if (input.model) {
                options.engine.runner.model = model::binding_for(suite.class_name);
            }
            const campaign::CampaignScheduler scheduler(component.registry(),
                                                        options);
            return scheduler.run(suite, mutants, input.probe ? &probe : nullptr);
        };

        const campaign::CampaignResult baseline = run_campaign(false, 2);
        const campaign::CampaignResult pruned = run_campaign(true, 2);
        expect_same_outcomes(baseline.run, pruned.run);
        for (std::size_t i = 0; i < baseline.run.outcomes.size(); ++i) {
            EXPECT_EQ(baseline.run.outcomes[i].model_only,
                      pruned.run.outcomes[i].model_only)
                << i;
        }
        EXPECT_EQ(render(baseline, suite), render(pruned, suite));
        EXPECT_TRUE(pruned.stats.pruned);
        // Strictly fewer executed pairs, and full accounting: each leg's
        // (mutant, case) pairs are either executed or pruned, the probe
        // leg running for every mutant the suite did not kill.
        const std::uint64_t total =
            static_cast<std::uint64_t>(mutants.size()) * suite.size() +
            static_cast<std::uint64_t>(mutants.size() - pruned.run.killed()) *
                probe.size();
        EXPECT_EQ(pruned.stats.executed_pairs + pruned.stats.pruned_pairs, total);
        EXPECT_LT(pruned.stats.executed_pairs, total);
        EXPECT_GT(pruned.stats.pruned_pairs, 0u);
        // Memoization runs with or without a lockstep model: checkpoints
        // carry the model's state.
        EXPECT_GT(pruned.stats.memoized_pairs, 0u);
    }
}

/// The CObList campaign pieces the evaluator-level tests share: suite,
/// probe suite, mutants, runners and their recorded coverage.
class PruneRealComponent : public ::testing::Test {
protected:
    PruneRealComponent()
        : component_(mfc::coblist_spec(), mfc::coblist_binding()),
          completions_(mfc::make_completions(pool_)) {
        component_.set_completions(completions_);
        driver::GeneratorOptions generator;
        generator.seed = 7;
        suite_ = component_.generate_tests(generator);
        probe_ = component_.generate_tests(campaign::probe_generator(generator));
        mutants_ = enumerate_mutants(mfc::descriptors(), suite_.class_name);
    }

    [[nodiscard]] const reflect::Registry& registry() const {
        return component_.registry();
    }
    [[nodiscard]] const reflect::ClassBinding& binding() const {
        return registry().at(suite_.class_name);
    }

    mfc::ElementPool pool_;
    core::SelfTestableComponent component_;
    driver::CompletionRegistry completions_;
    driver::TestSuite suite_;
    driver::TestSuite probe_;
    std::vector<Mutant> mutants_;
};

TEST_F(PruneRealComponent, PostingsInvertTheCoverageIndex) {
    driver::RunnerOptions probe_options;
    probe_options.observe_each_call = true;
    const CoveredRun covered = run_with_coverage(registry(), {}, suite_);
    const CoveredRun probe_covered =
        run_with_coverage(registry(), probe_options, probe_);
    const PrunePlan plan = build_prune_plan(binding(), suite_, covered.index,
                                            &probe_, probe_covered.index);

    // Every mutant's postings list exactly the cases first_hit knows,
    // in suite order, with first_hit's call index.
    using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;
    const auto expected = [](const CoverageIndex& index,
                             const driver::TestSuite& suite, const Mutant& m) {
        Pairs out;
        for (std::size_t i = 0; i < suite.cases.size(); ++i) {
            if (const auto hit = index.first_hit(suite.cases[i].id, m)) {
                out.emplace_back(i, *hit);
            }
        }
        return out;
    };
    const auto actual = [](const SitePostings& postings, const Mutant& m) {
        Pairs out;
        for (const SitePosting& p : postings.of(m)) {
            out.emplace_back(p.case_index, p.first_hit);
        }
        return out;
    };
    std::size_t reached = 0;
    for (const Mutant& mutant : mutants_) {
        EXPECT_EQ(actual(plan.postings, mutant),
                  expected(covered.index, suite_, mutant))
            << mutant.id();
        EXPECT_EQ(actual(plan.probe_postings, mutant),
                  expected(probe_covered.index, probe_, mutant))
            << mutant.id();
        reached += plan.postings.of(mutant).empty() ? 0 : 1;
    }
    EXPECT_GT(reached, 0u);
}

TEST_F(PruneRealComponent, FirstCrashKillEndsTheSuiteLeg) {
    // A mutant whose first covering case crashes where the golden run
    // did not: no later case can change its fate (Crash is the
    // strongest reason, and the crash proves the site was reached), so
    // the evaluator runs that one case and counts the rest as pruned.
    const driver::TestRunner runner(registry(), {});
    const CoveredRun covered = run_with_coverage(registry(), {}, suite_);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan =
        build_prune_plan(binding(), suite_, covered.index, nullptr, {});
    const EngineOptions options;

    std::size_t checked = 0;
    for (const Mutant& mutant : mutants_) {
        const std::vector<SitePosting>& covering = plan.postings.of(mutant);
        if (covering.size() < 2) continue;
        const driver::TestCase& first = suite_.cases[covering.front().case_index];
        driver::TestResult result;
        {
            const MutantActivation activation(mutant);
            result = runner.run_case(binding(), first);
        }
        const oracle::GoldenEntry* entry = golden.find(first.id);
        ASSERT_NE(entry, nullptr);
        if (oracle::classify(*entry, result) != oracle::KillReason::Crash) continue;
        ++checked;

        PruneStats stats;
        const MutantOutcome pruned =
            evaluate_mutant_pruned(mutant, runner, binding(), suite_, golden,
                                   nullptr, nullptr, {}, plan, options, &stats);
        EXPECT_EQ(stats.executed_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.pruned_pairs, suite_.size() - 1) << mutant.id();
        EXPECT_EQ(pruned.fate, MutantFate::Killed) << mutant.id();
        EXPECT_EQ(pruned.reason, oracle::KillReason::Crash) << mutant.id();
        EXPECT_TRUE(pruned.hit_by_suite) << mutant.id();

        const MutantOutcome full = evaluate_mutant(
            mutant, runner, suite_, golden, nullptr, nullptr, {}, options);
        EXPECT_EQ(full.fate, pruned.fate) << mutant.id();
        EXPECT_EQ(full.reason, pruned.reason) << mutant.id();
        EXPECT_EQ(full.hit_by_suite, pruned.hit_by_suite) << mutant.id();
    }
    EXPECT_GT(checked, 0u);
}

// ------------------------------------------------------ lazy capture
//
// A case's ladder is captured the first time a mutant runs it, with no
// mutant active, and never before: building the plan executes nothing.

/// Counts, per case id, the runs that begin with no mutant active.
/// Under the pruned evaluator those are exactly the ladder captures.
class CaptureCounter final : public driver::CaseObserver {
public:
    void on_case_begin(const driver::TestCase& test_case) override {
        if (MutationController::instance().any_active()) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        ++captures_[test_case.id];
    }
    void on_call(std::size_t) override {}

    [[nodiscard]] std::map<std::string, int> captures() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return captures_;
    }

private:
    mutable std::mutex mutex_;
    std::map<std::string, int> captures_;
};

/// Holds a count of 7 and crashes (a StructuralFault) whenever Touch()'s
/// one site reads anything else — which every mutant of that site does,
/// since no operator reproduces 7.
class Fragile : public bit::BuiltInTest {
public:
    static const MethodDescriptor& touch_descriptor() {
        static const MethodDescriptor d =
            MethodDescriptor::Builder("Fragile", "Touch")
                .attr("count_", int_type(), true)
                .site("count_", "count")  // s0
                .build();
        return d;
    }

    void Nop() {}
    void Touch() {
        MutFrame frame(touch_descriptor());
        frame.bind("count_", &count_);
        if (frame.use(0, count_) != count_) {
            throw StructuralFault("Fragile: count corrupted");
        }
    }

    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << "Fragile{" << count_ << "}";
    }

private:
    int count_ = 7;
};

class PruneLazyLadder : public PruneRealComponent {};

TEST_F(PruneLazyLadder, CaseNoMutantRunsIsNeverCaptured) {
    reflect::Binder<Fragile> b("Fragile");
    b.ctor<>();
    b.method("Nop", &Fragile::Nop);
    b.method("Touch", &Fragile::Touch);
    b.cloner([](const Fragile& source) { return new Fragile(source); });
    reflect::Registry registry;
    registry.add(b.take());
    const reflect::ClassBinding& binding = registry.at("Fragile");

    const auto call = [](const char* name) {
        driver::MethodCall c;
        c.method_name = name;
        return c;
    };
    const auto make_case = [&](const char* id, std::size_t nops) {
        driver::MethodCall ctor = call("Fragile");
        ctor.is_constructor = true;
        driver::TestCase tc;
        tc.id = id;
        tc.transaction_text = "hand-built";
        tc.calls = {ctor};
        for (std::size_t i = 0; i < nops; ++i) tc.calls.push_back(call("Nop"));
        tc.calls.push_back(call("Touch"));
        return tc;
    };
    // Both cases reach the site (first hits at calls 2 and 3), but every
    // mutant crashes in the first, which ends the leg.
    driver::TestSuite suite;
    suite.class_name = "Fragile";
    suite.cases = {make_case("TCcrash", 1), make_case("TCnever", 2)};

    const CoveredRun covered =
        run_with_coverage(registry, driver::RunnerOptions{}, suite);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    CaptureCounter counter;
    driver::RunnerOptions options;
    options.observer = &counter;
    const driver::TestRunner runner(registry, options);
    const PrunePlan plan =
        build_prune_plan(binding, suite, covered.index, nullptr, {});
    ASSERT_EQ(plan.case_plans.size(), 2u);
    EXPECT_EQ(plan.case_plans[0].boundaries, std::vector<std::size_t>{2});
    EXPECT_EQ(plan.case_plans[1].boundaries, std::vector<std::size_t>{3});
    EXPECT_TRUE(counter.captures().empty()) << "planning captured";

    const std::vector<Mutant> mutants =
        enumerate_mutants(Fragile::touch_descriptor());
    ASSERT_FALSE(mutants.empty());
    for (const Mutant& mutant : mutants) {
        PruneStats stats;
        const MutantOutcome outcome =
            evaluate_mutant_pruned(mutant, runner, binding, suite, golden,
                                   nullptr, nullptr, {}, plan, EngineOptions{},
                                   &stats);
        EXPECT_EQ(outcome.fate, MutantFate::Killed) << mutant.id();
        EXPECT_EQ(outcome.reason, oracle::KillReason::Crash) << mutant.id();
        EXPECT_EQ(stats.executed_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.pruned_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.memoized_pairs, 1u) << mutant.id();
    }
    EXPECT_EQ(counter.captures(), (std::map<std::string, int>{{"TCcrash", 1}}));
}

TEST_F(PruneLazyLadder, ConcurrentFirstUseCapturesOnce) {
    driver::RunnerOptions probe_options;
    probe_options.observe_each_call = true;
    const CoveredRun covered = run_with_coverage(registry(), {}, suite_);
    const CoveredRun probe_covered =
        run_with_coverage(registry(), probe_options, probe_);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const auto probe_golden = oracle::GoldenRecord::from(probe_covered.result);
    const EngineOptions engine;

    struct Run {
        std::vector<std::tuple<MutantFate, oracle::KillReason, bool, bool>> fates;
        PruneStats stats;
        std::map<std::string, int> captures;
        std::map<std::string, int> probe_captures;
    };
    // One fresh plan per run, its mutants spread over `threads` threads.
    const auto run = [&](std::size_t threads) {
        CaptureCounter counter;
        CaptureCounter probe_counter;
        driver::RunnerOptions options;
        options.observer = &counter;
        driver::RunnerOptions probe_runner_options = probe_options;
        probe_runner_options.observer = &probe_counter;
        const driver::TestRunner runner(registry(), options);
        const driver::TestRunner probe_runner(registry(), probe_runner_options);
        const PrunePlan plan = build_prune_plan(binding(), suite_, covered.index,
                                                &probe_, probe_covered.index);
        Run out;
        out.fates.resize(mutants_.size());
        std::vector<PruneStats> stats(threads);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                for (std::size_t i = next++; i < mutants_.size(); i = next++) {
                    const MutantOutcome o = evaluate_mutant_pruned(
                        mutants_[i], runner, binding(), suite_, golden,
                        &probe_runner, &probe_, probe_golden, plan, engine,
                        &stats[t]);
                    out.fates[i] = {o.fate, o.reason, o.hit_by_suite,
                                    o.killed_by_probe};
                }
            });
        }
        for (std::thread& thread : pool) thread.join();
        for (const PruneStats& s : stats) out.stats += s;
        out.captures = counter.captures();
        out.probe_captures = probe_counter.captures();
        return out;
    };

    const Run serial = run(1);
    const Run parallel = run(4);
    EXPECT_EQ(parallel.fates, serial.fates);
    EXPECT_EQ(parallel.stats.executed_pairs, serial.stats.executed_pairs);
    EXPECT_EQ(parallel.stats.pruned_pairs, serial.stats.pruned_pairs);
    EXPECT_EQ(parallel.stats.memoized_pairs, serial.stats.memoized_pairs);
    EXPECT_EQ(parallel.stats.memoized_calls, serial.stats.memoized_calls);
    EXPECT_GT(serial.stats.memoized_pairs, 0u);
    // The same cases are captured, each once, however the threads race.
    EXPECT_EQ(parallel.captures, serial.captures);
    EXPECT_EQ(parallel.probe_captures, serial.probe_captures);
    EXPECT_FALSE(serial.captures.empty());
    EXPECT_FALSE(serial.probe_captures.empty());
    for (const Run* r : {&serial, &parallel}) {
        for (const auto& captures : {r->captures, r->probe_captures}) {
            for (const auto& [id, n] : captures) EXPECT_EQ(n, 1) << id;
        }
    }
}

}  // namespace
}  // namespace stc::mutation
