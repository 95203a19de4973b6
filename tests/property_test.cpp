// Cross-cutting property tests: randomized sweeps over generated specs,
// graphs, and suites, checking invariants that must hold for *every*
// instance — the complement of the per-module example-based tests.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "stc/campaign/result_store.h"
#include "stc/core/self_testable.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/shrink.h"
#include "stc/kill/kill.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/coverage.h"
#include "stc/mutation/prune.h"
#include "stc/support/rng.h"
#include "stc/tfm/coverage.h"
#include "stc/tspec/builder.h"
#include "stc/tspec/parser.h"
#include "test_component.h"

namespace stc {
namespace {

// ----------------------------------------------------- random spec factory

/// Builds a random but semantically valid ComponentSpec: layered TFM,
/// random method signatures over all generatable domain kinds.
tspec::ComponentSpec random_spec(std::uint64_t seed) {
    support::Pcg32 rng(seed);
    tspec::SpecBuilder b("Rnd" + std::to_string(seed));

    const int n_attrs = static_cast<int>(rng.uniform(0, 3));
    for (int i = 0; i < n_attrs; ++i) {
        b.attr_range("attr" + std::to_string(i), rng.uniform(-100, 0),
                     rng.uniform(1, 100));
    }

    b.method("m1", "Rnd", tspec::MethodCategory::Constructor);
    b.method("m2", "~Rnd", tspec::MethodCategory::Destructor);
    const int n_methods = static_cast<int>(rng.uniform(1, 6));
    std::vector<std::string> body_methods;
    for (int i = 0; i < n_methods; ++i) {
        const std::string id = "b" + std::to_string(i);
        b.method(id, "Do" + std::to_string(i), tspec::MethodCategory::New);
        switch (rng.index(4)) {
            case 0: b.param_range("x", -10, 10); break;
            case 1: b.param_string("s", 0, 8); break;
            case 2: b.param_int_set("k", {1, 2, 3}); break;
            default: break;  // no parameter
        }
        body_methods.push_back(id);
    }

    // Layered TFM: birth -> L1 -> [L2] -> death, with random extra edges
    // forward between layers (always acyclic: guaranteed sound).  The
    // edge set is deduplicated — a doubled link is a model defect the
    // TFM diagnostics rightly flag.
    b.node("n_birth", true, {"m1"});
    std::set<std::pair<std::string, std::string>> edges;
    auto edge_once = [&](const std::string& from, const std::string& to) {
        if (edges.insert({from, to}).second) b.edge(from, to);
    };
    std::vector<std::string> previous{"n_birth"};
    const int layers = static_cast<int>(rng.uniform(1, 3));
    int node_counter = 0;
    for (int l = 0; l < layers; ++l) {
        std::vector<std::string> current;
        const int width = static_cast<int>(rng.uniform(1, 3));
        for (int w = 0; w < width; ++w) {
            const std::string id = "n" + std::to_string(node_counter++);
            b.node(id, false,
                   {body_methods[rng.index(body_methods.size())]});
            current.push_back(id);
        }
        for (const auto& p : previous) {
            // every node connects to at least one next-layer node
            edge_once(p, current[rng.index(current.size())]);
        }
        for (const auto& c : current) {
            // and every next-layer node is reachable
            edge_once(previous[rng.index(previous.size())], c);
        }
        previous = current;
    }
    b.node("n_death", false, {"m2"});
    for (const auto& p : previous) edge_once(p, "n_death");
    return b.build();
}

class SpecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpecProperty, RandomSpecsValidateAndRoundTrip) {
    const auto spec = random_spec(GetParam());
    EXPECT_TRUE(spec.validate().empty());

    // print -> parse -> print is a fixpoint.
    const std::string once = tspec::print_tspec(spec);
    const auto reparsed = tspec::parse_tspec(once);
    EXPECT_TRUE(reparsed.validate().empty());
    EXPECT_EQ(tspec::print_tspec(reparsed), once);
}

TEST_P(SpecProperty, GenerationRunsAreConsistent) {
    const auto spec = random_spec(GetParam());
    const auto graph = spec.build_tfm();
    EXPECT_TRUE(graph.diagnose().empty());

    driver::GeneratorOptions options;
    options.seed = GetParam() * 7 + 1;
    const auto suite = driver::DriverGenerator(spec, options).generate();
    EXPECT_EQ(suite.size(), suite.transactions_enumerated);

    // Suite ids are unique; every case starts with a constructor and every
    // argument obeys its declared domain.
    std::set<std::string> ids;
    for (const auto& tc : suite.cases) {
        EXPECT_TRUE(ids.insert(tc.id).second);
        EXPECT_TRUE(tc.calls.front().is_constructor);
        for (const auto& call : tc.calls) {
            const auto* method = spec.find_method(call.method_id);
            ASSERT_NE(method, nullptr);
            ASSERT_EQ(call.arguments.size(), method->parameters.size());
            for (std::size_t i = 0; i < call.arguments.size(); ++i) {
                const auto& slot = method->parameters[i];
                if (slot.domain) {
                    EXPECT_TRUE(slot.domain->contains(call.arguments[i]))
                        << call.render();
                }
            }
        }
    }

    // Transaction coverage subsumes node and link coverage (acyclic model).
    std::vector<tfm::Transaction> transactions;
    for (const auto& tc : suite.cases) transactions.push_back(tc.transaction);
    const auto coverage = tfm::measure_coverage(graph, transactions);
    EXPECT_DOUBLE_EQ(coverage.node_ratio(), 1.0);
    EXPECT_DOUBLE_EQ(coverage.edge_ratio(), 1.0);
}

TEST_P(SpecProperty, SuitesSurviveSaveLoadByteIdentically) {
    const auto spec = random_spec(GetParam());
    const auto suite = driver::DriverGenerator(spec).generate();

    std::stringstream first;
    driver::save_suite(first, suite);
    const auto loaded = driver::load_suite(first);
    std::stringstream second;
    driver::save_suite(second, loaded);
    EXPECT_EQ(first.str(), second.str());
}

TEST_P(SpecProperty, ShrinkerPreservesPredicateValidityAndLength) {
    const auto spec = random_spec(GetParam());
    const auto graph = spec.build_tfm();
    driver::GeneratorOptions options;
    options.seed = GetParam() + 17;
    const auto suite = driver::DriverGenerator(spec, options).generate();

    const driver::TestCase* longest = nullptr;
    for (const auto& tc : suite.cases) {
        if (!longest || tc.calls.size() > longest->calls.size()) longest = &tc;
    }
    ASSERT_NE(longest, nullptr);

    // The synthetic "failure": the case still calls the method of its
    // middle call.  Execution-free, so the property holds for every
    // random spec, not just ones with a runnable binding.
    const std::string target =
        longest->calls[longest->calls.size() / 2].method_id;
    const auto still_calls_target = [&target](const driver::TestCase& tc) {
        for (const auto& call : tc.calls) {
            if (call.method_id == target) return true;
        }
        return false;
    };
    ASSERT_TRUE(still_calls_target(*longest));

    const auto result =
        fuzz::shrink_case(spec, graph, *longest, still_calls_target);
    // The shrinker's three invariants: the failure is preserved, the
    // output is a structurally valid transaction, and it never grows.
    EXPECT_TRUE(still_calls_target(result.minimized));
    EXPECT_TRUE(graph.is_valid_transaction(result.minimized.transaction.path));
    EXPECT_LE(result.minimized.calls.size(), longest->calls.size());

    // And it is a deterministic function of its input.
    const auto again =
        fuzz::shrink_case(spec, graph, *longest, still_calls_target);
    driver::TestSuite wrap_a = suite, wrap_b = suite;
    wrap_a.cases = {result.minimized};
    wrap_b.cases = {again.minimized};
    std::stringstream bytes_a, bytes_b;
    driver::save_suite(bytes_a, wrap_a);
    driver::save_suite(bytes_b, wrap_b);
    EXPECT_EQ(bytes_a.str(), bytes_b.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808,
                                           909, 1010, 1111, 1212));

// ------------------------------------------------------------- parser fuzz

class ParserRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserRobustness, GarbageNeverCrashesOnlyThrows) {
    support::Pcg32 rng(GetParam());
    // Character soup biased toward the t-spec alphabet to reach deep
    // parser states.
    const std::string alphabet =
        "Clas METHODnode dgePrmtr'\",()[]<>-_0123456789.\n //~";
    for (int round = 0; round < 200; ++round) {
        std::string input;
        const auto len = rng.index(120);
        for (std::size_t i = 0; i < len; ++i) {
            input += alphabet[rng.index(alphabet.size())];
        }
        try {
            (void)tspec::parse_tspec(input);
        } catch (const Error&) {
            // ParseError / SpecError are the only acceptable outcomes.
        }
    }
    SUCCEED();
}

TEST_P(ParserRobustness, TruncationsOfAValidSpecNeverCrash) {
    const std::string valid = tspec::print_tspec(random_spec(GetParam()));
    for (std::size_t cut = 0; cut < valid.size(); cut += 7) {
        try {
            (void)tspec::parse_tspec(valid.substr(0, cut));
        } catch (const Error&) {
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Values(7, 77, 777));

// --------------------------------------------------- mutation run algebra

class MutationAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationAlgebra, OutcomesPartitionAndScoreIsBounded) {
    reflect::Registry registry;
    registry.add(stc::testing::counter_binding());
    driver::GeneratorOptions options;
    options.seed = GetParam();
    const auto suite =
        driver::DriverGenerator(stc::testing::counter_spec(), options).generate();
    const auto mutants =
        mutation::enumerate_mutants(stc::testing::counter_descriptors(), "Counter");

    driver::GeneratorOptions probe_options;
    probe_options.seed = GetParam() + 1;
    probe_options.cases_per_transaction = 2;
    const auto probe =
        driver::DriverGenerator(stc::testing::counter_spec(), probe_options)
            .generate();

    const mutation::MutationEngine engine(registry);
    const auto run = engine.run(suite, mutants, &probe);

    EXPECT_TRUE(run.baseline_clean);
    EXPECT_EQ(run.total(), mutants.size());
    EXPECT_GE(run.score(), 0.0);
    EXPECT_LE(run.score(), 1.0);

    std::size_t killed = 0;
    std::size_t alive = 0;
    std::size_t equivalent = 0;
    std::size_t not_covered = 0;
    for (const auto& o : run.outcomes) {
        switch (o.fate) {
            case mutation::MutantFate::Killed:
                ++killed;
                EXPECT_NE(o.reason, oracle::KillReason::None);
                EXPECT_TRUE(o.hit_by_suite);  // a kill implies execution
                break;
            case mutation::MutantFate::Alive: ++alive; break;
            case mutation::MutantFate::EquivalentPresumed: ++equivalent; break;
            case mutation::MutantFate::NotCovered:
                ++not_covered;
                EXPECT_FALSE(o.hit_by_suite);
                break;
        }
    }
    EXPECT_EQ(killed + alive + equivalent + not_covered, run.total());
    EXPECT_EQ(killed, run.killed());
    EXPECT_EQ(equivalent, run.equivalent());
}

TEST_P(MutationAlgebra, MoreTestCasesNeverKillFewerMutants) {
    reflect::Registry registry;
    registry.add(stc::testing::counter_binding());
    const auto spec = stc::testing::counter_spec();
    const auto mutants =
        mutation::enumerate_mutants(stc::testing::counter_descriptors(), "Counter");

    driver::GeneratorOptions small_options;
    small_options.seed = GetParam();
    auto small = driver::DriverGenerator(spec, small_options).generate();
    auto large = small;
    driver::GeneratorOptions more;
    more.seed = GetParam() + 99;
    more.cases_per_transaction = 2;
    const auto extra = driver::DriverGenerator(spec, more).generate();
    for (auto tc : extra.cases) {
        tc.id = "X" + tc.id;  // keep ids unique in the merged suite
        large.cases.push_back(std::move(tc));
    }

    const mutation::MutationEngine engine(registry);
    const auto small_run = engine.run(small, mutants, nullptr);
    const auto large_run = engine.run(large, mutants, nullptr);
    EXPECT_GE(large_run.killed(), small_run.killed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationAlgebra, ::testing::Values(31, 41, 59));

// ----------------------------------------------- pruned-fate equivalence

class PruneEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneEquivalence, PrunedEvaluationIsFateIdenticalPerMutant) {
    // The fast campaign tier (coverage-signature pruning + per-case prefix
    // memoization) must be invisible in every reported fate: for any
    // generated suite/probe pair and every mutant, evaluate_mutant_pruned
    // classifies exactly as the exhaustive evaluate_mutant — while
    // provably executing fewer (mutant, case) pairs.
    const std::uint64_t seed = GetParam();
    reflect::Registry registry;
    reflect::ClassBinding cloning = stc::testing::counter_binding();
    cloning.set_cloner([](const void* object) -> void* {
        return new stc::testing::Counter(
            *static_cast<const stc::testing::Counter*>(object));
    });
    registry.add(std::move(cloning));
    const reflect::ClassBinding& binding = registry.at("Counter");

    driver::GeneratorOptions gen;
    gen.seed = seed;
    gen.cases_per_transaction = 1 + static_cast<int>(seed % 3);
    const auto suite =
        driver::DriverGenerator(stc::testing::counter_spec(), gen).generate();
    driver::GeneratorOptions probe_gen;
    probe_gen.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    probe_gen.cases_per_transaction = 2;
    const auto probe =
        driver::DriverGenerator(stc::testing::counter_spec(), probe_gen)
            .generate();
    const auto mutants = mutation::enumerate_mutants(
        stc::testing::counter_descriptors(), "Counter");

    const mutation::EngineOptions options;
    driver::RunnerOptions probe_opts = options.runner;
    probe_opts.observe_each_call = true;
    const driver::TestRunner runner(registry, options.runner);
    const driver::TestRunner probe_runner(registry, probe_opts);

    // Unpruned reference leg.
    const auto golden = oracle::GoldenRecord::from(runner.run(suite));
    const auto probe_golden = oracle::GoldenRecord::from(probe_runner.run(probe));

    // Pruned leg: coverage index from the instrumented golden run, then
    // the plan (each case's checkpoint ladder is captured on first use).
    auto covered = mutation::run_with_coverage(registry, options.runner, suite);
    auto probe_covered = mutation::run_with_coverage(registry, probe_opts, probe);
    ASSERT_EQ(covered.result.results.size(), golden.size());
    const mutation::PrunePlan plan =
        mutation::build_prune_plan(binding, suite, std::move(covered.index),
                                   &probe, std::move(probe_covered.index));

    mutation::PruneStats stats;
    for (const auto& mutant : mutants) {
        const auto slow = mutation::evaluate_mutant(
            mutant, runner, suite, golden, &probe_runner, &probe, probe_golden,
            options);
        const auto fast = mutation::evaluate_mutant_pruned(
            mutant, runner, binding, suite, golden, &probe_runner, &probe,
            probe_golden, plan, options, &stats);
        EXPECT_EQ(fast.fate, slow.fate) << mutant.id();
        EXPECT_EQ(fast.reason, slow.reason) << mutant.id();
        EXPECT_EQ(fast.hit_by_suite, slow.hit_by_suite) << mutant.id();
        EXPECT_EQ(fast.killed_by_probe, slow.killed_by_probe) << mutant.id();
        EXPECT_EQ(fast.model_only, slow.model_only) << mutant.id();
    }

    // The fast tier really pruned: strictly fewer executed (mutant, case)
    // pairs than the exhaustive mutants x (suite + probe) product, and
    // memoized pairs are a subset of executed ones.
    EXPECT_GT(stats.pruned_pairs, 0u);
    EXPECT_LT(stats.executed_pairs,
              mutants.size() * (suite.cases.size() + probe.cases.size()));
    EXPECT_LE(stats.memoized_pairs, stats.executed_pairs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneEquivalence,
                         ::testing::Values(5, 23, 47, 91, 137, 4242));

// --------------------------------------------------------- runner algebra

class RunnerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunnerProperty, SuiteRunsAreOrderIndependentPerCase) {
    // Counter test cases are independent (fresh object per case): running
    // a reversed suite yields the same per-case verdicts and reports.
    reflect::Registry registry;
    registry.add(stc::testing::counter_binding());
    driver::GeneratorOptions options;
    options.seed = GetParam();
    auto suite =
        driver::DriverGenerator(stc::testing::counter_spec(), options).generate();

    const driver::TestRunner runner(registry);
    const auto forward = runner.run(suite);

    std::reverse(suite.cases.begin(), suite.cases.end());
    const auto backward = runner.run(suite);

    ASSERT_EQ(forward.results.size(), backward.results.size());
    for (const auto& fr : forward.results) {
        const driver::TestResult* matching = nullptr;
        for (const auto& br : backward.results) {
            if (br.case_id == fr.case_id) {
                matching = &br;
                break;
            }
        }
        ASSERT_NE(matching, nullptr);
        EXPECT_EQ(matching->verdict, fr.verdict);
        EXPECT_EQ(matching->report, fr.report);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunnerProperty, ::testing::Values(3, 33, 333));

// ------------------------------------------------------- model conformance

class ModelConformance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelConformance, RandomTransactionsNeverDivergeUnmutated) {
    // The reference models claim to implement the components' specified
    // behaviour; on the unmutated build that claim must hold for every
    // generated transaction, across seeds and value policies — a
    // divergence here is a modelling bug, not a component bug.
    mfc::ElementPool pool;
    const auto completions = mfc::make_completions(pool);
    for (const char* class_name : {"CObList", "CSortableObList"}) {
        core::SelfTestableComponent component(
            std::string(class_name) == "CObList" ? mfc::coblist_spec()
                                                 : mfc::sortable_spec(),
            std::string(class_name) == "CObList" ? mfc::coblist_binding()
                                                 : mfc::sortable_binding());
        component.set_completions(completions);

        driver::GeneratorOptions gen;
        gen.seed = GetParam();
        gen.value_policy = GetParam() % 2 == 0 ? driver::ValuePolicy::Random
                                               : driver::ValuePolicy::Boundary;
        const auto suite = component.generate_tests(gen);

        driver::RunnerOptions options;
        options.model = model::binding_for(class_name);
        ASSERT_NE(options.model, nullptr);
        options.promote_divergence = true;
        const auto observed =
            driver::TestRunner(component.registry(), options).run(suite);
        for (const auto& r : observed.results) {
            EXPECT_EQ(r.verdict, driver::Verdict::Pass)
                << class_name << " " << r.case_id << ": " << r.message;
            EXPECT_TRUE(r.model_divergence.empty())
                << class_name << " " << r.case_id << ": " << r.model_divergence;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelConformance,
                         ::testing::Values(11, 22, 97, 1234, 98765));

// ---------------------------------------------- verified-killer contract

/// The differential contract every synthesized killer must honour, for
/// every search seed: a verified killer (a) passes on the unmutated
/// CUT — it is a legitimate test, not a crash reproducer — and
/// (b) fails with the target mutant active.  The kill pass shrinks
/// every killer before reporting it, so the checked test case is the
/// synthesized-then-shrunk one, proving ddmin preserves both legs.
class KillerContract : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KillerContract, VerifiedKillersPassCleanAndFailMutated) {
    mfc::ElementPool pool;
    core::SelfTestableComponent component(mfc::coblist_spec(),
                                          mfc::coblist_binding());
    driver::CompletionRegistry completions = mfc::make_completions(pool);
    component.set_completions(completions);
    const std::vector<mutation::Mutant> mutants =
        mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    const driver::ModelBinding* model = model::binding_for("CObList");
    ASSERT_NE(model, nullptr);

    // The two CObList survivors the kill pass verifiably kills through
    // the widened spec alphabet (EXPERIMENTS.md).
    std::vector<campaign::ItemRecord> records;
    for (const char* id :
         {"CObList::RemoveHead@s4.IndVarRepGlob.m_pNodeTail",
          "CObList::RemoveHead@s4.IndVarRepLoc.pOldNode"}) {
        campaign::ItemRecord r;
        r.key = std::string("k-") + id;
        r.mutant_id = id;
        r.fate = "alive";
        records.push_back(std::move(r));
    }

    kill::KillContext context;
    context.spec = &component.spec();
    context.registry = &component.registry();
    context.completions = &completions;
    context.mutants = &mutants;

    kill::KillOptions options;
    options.seed = GetParam();
    options.search.seed = GetParam();
    options.search.budget_states = 1024;
    options.search.runner.model = model;
    const kill::KillRun run =
        kill::kill_survivors(context, records, options);
    ASSERT_EQ(run.verified, records.size());

    driver::RunnerOptions ro;
    ro.model = model;
    const driver::TestRunner runner(component.registry(), ro);
    const reflect::ClassBinding& binding = component.registry().at("CObList");
    for (const kill::KillItem& item : run.items) {
        ASSERT_EQ(item.status, kill::SearchStatus::Verified)
            << item.mutant_id;
        // The reported killer is the shrunk one.
        ASSERT_FALSE(item.killer.calls.empty());
        EXPECT_LE(item.killer.calls.size(), item.candidate_calls);

        // (a) Clean leg: passes on the unmutated CUT.
        const driver::TestResult clean = runner.run_case(binding, item.killer);
        EXPECT_EQ(clean.verdict, driver::Verdict::Pass)
            << item.mutant_id << " seed " << GetParam() << ": "
            << clean.message;

        // (b) Mutated leg: fails with the target mutant active.
        const mutation::Mutant* target = nullptr;
        for (const mutation::Mutant& m : mutants) {
            if (m.id() == item.mutant_id) target = &m;
        }
        ASSERT_NE(target, nullptr) << item.mutant_id;
        driver::TestResult mutated;
        {
            const mutation::MutantActivation activation(*target);
            mutated = runner.run_case(binding, item.killer);
        }
        EXPECT_NE(mutated.verdict, driver::Verdict::Pass)
            << item.mutant_id << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KillerContract,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace stc
