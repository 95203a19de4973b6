#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "stc/core/self_testable.h"
#include "stc/history/incremental.h"
#include "stc/mfc/component.h"
#include "stc/mutation/engine.h"

namespace stc::mfc {
namespace {

// ------------------------------------------------------------------ specs

TEST(Specs, BothSpecsValidate) {
    EXPECT_TRUE(coblist_spec().validate().empty());
    EXPECT_TRUE(sortable_spec().validate().empty());
}

TEST(Specs, SortableModelMatchesThePaperSize) {
    // §4: "a test model composed of 16 nodes and 43 links".
    const auto graph = sortable_spec().build_tfm();
    EXPECT_EQ(graph.node_count(), 16u);
    EXPECT_EQ(graph.edge_count(), 43u);
    EXPECT_TRUE(graph.diagnose().empty());
}

TEST(Specs, CoblistTfmIsSound) {
    const auto graph = coblist_spec().build_tfm();
    EXPECT_TRUE(graph.diagnose().empty());
}

TEST(Specs, HierarchyConforms) {
    EXPECT_TRUE(history::validate_hierarchy(coblist_spec(), sortable_spec()).empty());
}

TEST(Specs, MethodCategoriesEncodeReuse) {
    const auto child = sortable_spec();
    EXPECT_EQ(child.find_method("m3")->category, tspec::MethodCategory::Inherited);
    EXPECT_EQ(child.find_method("m12")->category, tspec::MethodCategory::New);
    EXPECT_EQ(child.find_method("m1")->category, tspec::MethodCategory::Constructor);
    EXPECT_EQ(child.superclass, "CObList");
}

// ------------------------------------------------------------ element pool

TEST(ElementPool, OwnsComparableElements) {
    ElementPool pool;
    CObject* a = pool.make(3);
    CObject* b = pool.make(5);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_LT(a->Compare(*b), 0);
}

TEST(ElementPool, RegistryCompletionsSerializeConcurrentCallers) {
    // `kill --jobs` and `campaign --shrink-corpus --jobs` complete
    // CObject parameters from several threads at once; the pool is a
    // plain vector, so the registry must serialize the calls.
    ElementPool pool;
    const driver::CompletionRegistry registry = make_completions(pool);
    const driver::CompletionRegistry copy = registry;  // shares the lock
    constexpr int kThreads = 4;
    constexpr int kCalls = 400;
    std::vector<std::vector<const void*>> made(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const auto& completion =
                *(t % 2 == 0 ? registry : copy).find("CObject");
            support::Pcg32 rng(static_cast<std::uint64_t>(t));
            for (int i = 0; i < kCalls; ++i) {
                made[t].push_back(completion(rng).as_pointer());
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(pool.size(), static_cast<std::size_t>(kThreads * kCalls));
    std::set<const void*> distinct;
    for (const auto& list : made) distinct.insert(list.begin(), list.end());
    EXPECT_EQ(distinct.size(), pool.size());
}

TEST(ElementPool, CompletionDrawsFromRange) {
    ElementPool pool;
    auto completion = pool.completion(10, 20);
    support::Pcg32 rng(1);
    for (int i = 0; i < 50; ++i) {
        const auto v = completion(rng);
        const auto* element = static_cast<CInt*>(v.as_object().ptr);
        ASSERT_NE(element, nullptr);
        EXPECT_GE(element->value(), 10);
        EXPECT_LE(element->value(), 20);
    }
    EXPECT_EQ(pool.size(), 50u);
}

// --------------------------------------------------------------- baselines

class ComponentFixture : public ::testing::Test {
protected:
    ComponentFixture()
        : base_(coblist_spec(), coblist_binding()),
          derived_(sortable_spec(), sortable_binding()) {
        base_.set_completions(make_completions(pool_));
        derived_.set_completions(make_completions(pool_));
    }

    ElementPool pool_;
    core::SelfTestableComponent base_;
    core::SelfTestableComponent derived_;
};

TEST_F(ComponentFixture, CoblistBaselineIsClean) {
    const auto report = base_.self_test();
    EXPECT_TRUE(report.all_passed()) << report.summary();
    EXPECT_GT(report.assertions_checked, 0u);
    EXPECT_EQ(report.assertions_violated, 0u);
}

TEST_F(ComponentFixture, SortableBaselineIsClean) {
    const auto report = derived_.self_test();
    EXPECT_TRUE(report.all_passed()) << report.summary();
}

TEST_F(ComponentFixture, SortableBaselineCleanUnderBoundaryPolicy) {
    driver::GeneratorOptions options;
    options.value_policy = driver::ValuePolicy::Boundary;
    options.cases_per_transaction = 2;
    const auto report = derived_.self_test(options);
    EXPECT_TRUE(report.all_passed()) << report.summary();
}

TEST_F(ComponentFixture, SortableBaselineCleanAcrossSeeds) {
    for (std::uint64_t seed : {1ULL, 99ULL, 123456789ULL}) {
        driver::GeneratorOptions options;
        options.seed = seed;
        const auto report = derived_.self_test(options);
        EXPECT_TRUE(report.all_passed()) << "seed " << seed;
    }
}

TEST_F(ComponentFixture, IncrementalPlanSeparatesInheritedPaths) {
    const auto full = derived_.generate_tests();
    const auto plan = derived_.incremental_plan(full);
    EXPECT_GT(plan.reused_cases(), 0u);
    EXPECT_GT(plan.new_cases(), 0u);
    EXPECT_EQ(plan.new_cases() + plan.reused_cases(), full.size());
    // Reused cases never touch the sort/find methods.
    for (const auto& tc : plan.reused) {
        for (const auto& call : tc.calls) {
            EXPECT_NE(call.method_name, "Sort1");
            EXPECT_NE(call.method_name, "FindMax");
        }
    }
}

TEST_F(ComponentFixture, SuiteReportsObserveListState) {
    const auto suite = base_.generate_tests();
    const auto report = base_.self_test(suite);
    bool saw_state = false;
    for (const auto& r : report.result.results) {
        saw_state = saw_state || r.report.find("CObList count=") != std::string::npos;
    }
    EXPECT_TRUE(saw_state);
}

// ---------------------------------------------------------------- mutation

TEST_F(ComponentFixture, DescriptorsCoverThePaperMethods) {
    const auto& registry = descriptors();
    EXPECT_NE(registry.find("CObList", "AddHead"), nullptr);
    EXPECT_NE(registry.find("CObList", "RemoveHead"), nullptr);
    EXPECT_NE(registry.find("CObList", "RemoveAt"), nullptr);
    EXPECT_NE(registry.find("CSortableObList", "Sort1"), nullptr);
    EXPECT_NE(registry.find("CSortableObList", "Sort2"), nullptr);
    EXPECT_NE(registry.find("CSortableObList", "ShellSort"), nullptr);
    EXPECT_NE(registry.find("CSortableObList", "FindMax"), nullptr);
    EXPECT_NE(registry.find("CSortableObList", "FindMin"), nullptr);
    EXPECT_EQ(registry.for_class("CObList").size(), 3u);
    EXPECT_EQ(registry.for_class("CSortableObList").size(), 5u);
}

TEST_F(ComponentFixture, MutantPopulationsAreInThePaperBallpark) {
    const auto sortable = mutation::enumerate_mutants(descriptors(), "CSortableObList");
    const auto base = mutation::enumerate_mutants(descriptors(), "CObList");
    // Paper: 700 and 159.  Shape check: same order of magnitude, derived
    // class much richer.
    EXPECT_GT(sortable.size(), 400u);
    EXPECT_LT(sortable.size(), 1200u);
    EXPECT_GT(base.size(), 60u);
    EXPECT_LT(base.size(), 300u);
    EXPECT_GT(sortable.size(), 3 * base.size());
}

TEST_F(ComponentFixture, SampledMutantsAreKilledByTheFullSuite) {
    // Running all 700+ mutants belongs to the bench; here sample a few
    // for a fast regression signal.
    reflect::Registry registry;
    register_mfc(registry);
    const auto suite = derived_.generate_tests();
    auto mutants = mutation::enumerate_mutants(descriptors(), "CSortableObList");
    std::vector<mutation::Mutant> sample;
    for (std::size_t i = 0; i < mutants.size(); i += 97) sample.push_back(mutants[i]);

    const mutation::MutationEngine engine(registry);
    const auto run = engine.run(suite, sample, nullptr);
    EXPECT_TRUE(run.baseline_clean);
    std::size_t killed = 0;
    for (const auto& o : run.outcomes) killed += o.fate == mutation::MutantFate::Killed;
    EXPECT_GT(killed, sample.size() / 2);
}

TEST_F(ComponentFixture, AdoptedParentSuiteRunsGreenOnTheSubclass) {
    // §3.4.2 reuse direction: the base class's full suite, adopted to the
    // subclass, runs unchanged against CSortableObList instances.
    const auto parent_suite = base_.generate_tests();
    const auto adopted =
        history::adopt_parent_suite(parent_suite, mfc::sortable_spec());
    ASSERT_EQ(adopted.size(), parent_suite.size());
    EXPECT_EQ(adopted.class_name, "CSortableObList");

    const auto report = derived_.self_test(adopted);
    EXPECT_TRUE(report.all_passed()) << report.summary();
}

TEST_F(ComponentFixture, MutatedSortIsCaughtByPostcondition) {
    // Directly activate one specific, well-understood mutant: Sort1's
    // scan-advance replaced by NULL makes the insertion scan misbehave.
    const auto* sort1 = descriptors().find("CSortableObList", "Sort1");
    ASSERT_NE(sort1, nullptr);
    const mutation::Mutant m{
        sort1, 13, mutation::Operator::IndVarRepReq, "",
        mutation::required_constants(mutation::pointer_type("CNode")).front()};

    bit::TestModeGuard test_mode;
    ElementPool pool;
    CSortableObList list;
    // Ascending input forces the insertion scan to advance (site 13).
    list.AddTail(pool.make(1));
    list.AddTail(pool.make(2));
    list.AddTail(pool.make(3));

    const mutation::MutantActivation activation(m);
    EXPECT_THROW(list.Sort1(), Error);  // fault or assertion, never silence
}

}  // namespace
}  // namespace stc::mfc
