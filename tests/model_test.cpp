// stc::model — the differential conformance oracle.  Covers the
// binding registry, the ListModel's prediction semantics (which must
// mirror the mfc binding wrappers exactly), live-state projection,
// lockstep conformance of the unmutated components, divergence on a
// seeded mutant, the end-to-end differential classification that
// feeds the oracle-strength report, and the identity fast path of the
// state compare.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stc/core/self_testable.h"
#include "stc/driver/lockstep.h"
#include "stc/driver/runner.h"
#include "stc/mfc/coblist.h"
#include "stc/mfc/component.h"
#include "stc/mfc/sortable.h"
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/coverage.h"
#include "stc/mutation/descriptor.h"
#include "stc/mutation/mutant.h"
#include "stc/oracle/oracle.h"
#include "stc/support/rng.h"

namespace stc {
namespace {

// ----------------------------------------------------------------- registry

TEST(ModelRegistry, PaperComponentsAreModeled) {
    const driver::ModelBinding* coblist = model::binding_for("CObList");
    ASSERT_NE(coblist, nullptr);
    EXPECT_TRUE(coblist->valid());

    const driver::ModelBinding* sortable = model::binding_for("CSortableObList");
    ASSERT_NE(sortable, nullptr);
    EXPECT_TRUE(sortable->valid());

    EXPECT_EQ(model::binding_for("Counter"), nullptr);
    EXPECT_EQ(model::binding_for(""), nullptr);

    const auto classes = model::modeled_classes();
    EXPECT_TRUE(std::is_sorted(classes.begin(), classes.end()));
    ASSERT_EQ(classes.size(), 2u);
    EXPECT_EQ(classes[0], "CObList");
    EXPECT_EQ(classes[1], "CSortableObList");
}

// ------------------------------------------------------- model predictions

driver::MethodCall call(const std::string& name,
                        std::vector<domain::Value> args = {}) {
    driver::MethodCall c;
    c.method_name = name;
    c.arguments = std::move(args);
    return c;
}

driver::MethodCall add(const std::string& name, mfc::CObject& element) {
    return call(name, {domain::Value::make_pointer(&element, "CObject*")});
}

class ListModelFixture : public ::testing::Test {
protected:
    ListModelFixture()
        : model_(model::binding_for("CSortableObList")->factory()) {
        EXPECT_TRUE(model_->construct({}));
    }

    std::unique_ptr<driver::LockstepModel> model_;
    mfc::CInt three_{3}, seven_{7}, one_{1};
};

TEST_F(ListModelFixture, MirrorsWrapperRenderings) {
    // Empty-list probes render the wrapper markers, not errors.
    EXPECT_EQ(model_->apply(call("RemoveHead")).rendered_return, "<noop>");
    EXPECT_EQ(model_->apply(call("FindIndex", {domain::Value::make_int(5)}))
                  .rendered_return,
              "<none>");
    EXPECT_EQ(model_->apply(call("FindMax")).rendered_return, "<empty>");
    EXPECT_EQ(model_->apply(call("IsEmpty")).rendered_return, "1");

    const auto added = model_->apply(add("AddHead", three_));
    EXPECT_TRUE(added.modeled);
    EXPECT_TRUE(added.has_return);
    EXPECT_EQ(added.rendered_return, "<object>");
    EXPECT_EQ(model_->apply(add("AddTail", seven_)).rendered_return, "<object>");
    EXPECT_EQ(model_->apply(add("AddHead", one_)).rendered_return, "<object>");
    EXPECT_EQ(model_->abstract_state(),
              "count=3 [CInt(1), CInt(3), CInt(7)]");

    EXPECT_EQ(model_->apply(call("GetCount")).rendered_return, "3");
    // RemoveAt completes its index modulo the count (wrapper semantics)
    // and answers the new count.
    EXPECT_EQ(model_->apply(call("RemoveAt", {domain::Value::make_int(4)}))
                  .rendered_return,
              "2");
    EXPECT_EQ(model_->abstract_state(), "count=2 [CInt(1), CInt(7)]");
    EXPECT_EQ(model_->apply(call("RemoveHead")).rendered_return, "CInt(1)");
}

TEST_F(ListModelFixture, SortsAndExtremaFollowTheSpecifiedOrder) {
    (void)model_->apply(add("AddTail", seven_));
    (void)model_->apply(add("AddTail", one_));
    (void)model_->apply(add("AddTail", three_));
    EXPECT_EQ(model_->apply(call("FindMax")).rendered_return, "CInt(7)");
    EXPECT_EQ(model_->apply(call("FindMin")).rendered_return, "CInt(1)");

    const auto sorted = model_->apply(call("ShellSort"));
    EXPECT_TRUE(sorted.modeled);
    EXPECT_FALSE(sorted.has_return);
    EXPECT_EQ(model_->abstract_state(),
              "count=3 [CInt(1), CInt(3), CInt(7)]");
}

TEST_F(ListModelFixture, CloneIsADeepIndependentCopy) {
    (void)model_->apply(add("AddTail", three_));
    (void)model_->apply(add("AddTail", seven_));
    const std::string before = model_->abstract_state();

    const std::unique_ptr<driver::LockstepModel> copy = model_->clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->abstract_state(), before);
    // Mutating the clone leaves its source where it was...
    EXPECT_EQ(copy->apply(call("RemoveHead")).rendered_return, "CInt(3)");
    (void)copy->apply(add("AddHead", one_));
    (void)copy->apply(call("Sort1"));
    EXPECT_EQ(copy->abstract_state(), "count=2 [CInt(1), CInt(7)]");
    EXPECT_EQ(model_->abstract_state(), before);
    // ...and the source still predicts as if no clone had been taken.
    EXPECT_EQ(model_->apply(call("RemoveTail")).rendered_return, "CInt(7)");
    EXPECT_EQ(model_->abstract_state(), "count=1 [CInt(3)]");
    EXPECT_EQ(copy->abstract_state(), "count=2 [CInt(1), CInt(7)]");
}

TEST_F(ListModelFixture, UnknownCallsDisengageInsteadOfDiverging) {
    EXPECT_FALSE(model_->apply(call("Serialize")).modeled);
    // Unmodeled argument shape on a known method: same contract.
    EXPECT_FALSE(model_->apply(call("AddHead")).modeled);
}

TEST(ListModelScope, BaseModelDoesNotPredictSortableMethods) {
    auto base = model::binding_for("CObList")->factory();
    ASSERT_TRUE(base->construct({}));
    EXPECT_FALSE(base->apply(call("FindMax")).modeled);
    EXPECT_FALSE(base->apply(call("Sort1")).modeled);
}

// ----------------------------------------------------------- live projection

TEST(LiveProjection, AgreesWithModelAbstraction) {
    const driver::ModelBinding* binding = model::binding_for("CObList");
    ASSERT_NE(binding, nullptr);

    mfc::CInt three{3}, seven{7};
    mfc::CObList live;
    (void)live.AddTail(&three);
    (void)live.AddTail(&seven);

    auto model = binding->factory();
    ASSERT_TRUE(model->construct({}));
    (void)model->apply(add("AddTail", three));
    (void)model->apply(add("AddTail", seven));

    EXPECT_EQ(binding->project(&live), "count=2 [CInt(3), CInt(7)]");
    EXPECT_EQ(binding->project(&live), model->abstract_state());
}

TEST(LiveProjection, TruncatesPastSixtyFourElementsLikeTheModel) {
    const driver::ModelBinding* binding = model::binding_for("CObList");
    ASSERT_NE(binding, nullptr);
    std::vector<mfc::CInt> values;
    for (int i = 0; i < 65; ++i) values.emplace_back(i);

    mfc::CObList live;
    auto model = binding->factory();
    ASSERT_TRUE(model->construct({}));
    std::string expected = "count=65 [";
    for (mfc::CInt& value : values) {
        (void)live.AddTail(&value);
        (void)model->apply(add("AddTail", value));
        if (value.value() < 64) expected += value.ToText() + ", ";
    }
    expected += "...]";

    EXPECT_EQ(model->abstract_state(), expected);
    EXPECT_EQ(binding->project(&live), expected);
}

// --------------------------------------------------------------- lockstep

class LockstepFixture : public ::testing::Test {
protected:
    LockstepFixture()
        : component_(mfc::coblist_spec(), mfc::coblist_binding()) {
        component_.set_completions(mfc::make_completions(pool_));
    }

    driver::SuiteResult run_with_model(const driver::TestSuite& suite,
                                       bool promote = false) const {
        driver::RunnerOptions options;
        options.model = model::binding_for("CObList");
        options.promote_divergence = promote;
        return driver::TestRunner(component_.registry(), options).run(suite);
    }

    mfc::ElementPool pool_;
    core::SelfTestableComponent component_;
};

TEST_F(LockstepFixture, UnmutatedComponentNeverDiverges) {
    const auto suite = component_.generate_tests();
    const auto observed = run_with_model(suite, /*promote=*/true);
    for (const auto& r : observed.results) {
        EXPECT_EQ(r.verdict, driver::Verdict::Pass) << r.case_id;
        EXPECT_TRUE(r.model_divergence.empty())
            << r.case_id << ": " << r.model_divergence;
    }
}

TEST_F(LockstepFixture, ObservationIsASideChannel) {
    // Attaching the model must not change verdicts, reports, or logs —
    // byte-identical results aside from the divergence side channel.
    const auto suite = component_.generate_tests();
    const auto bare = driver::TestRunner(component_.registry()).run(suite);
    const auto modeled = run_with_model(suite);
    ASSERT_EQ(bare.results.size(), modeled.results.size());
    for (std::size_t i = 0; i < bare.results.size(); ++i) {
        EXPECT_EQ(bare.results[i].verdict, modeled.results[i].verdict);
        EXPECT_EQ(bare.results[i].report, modeled.results[i].report);
        EXPECT_EQ(bare.results[i].log, modeled.results[i].log);
    }
}

// The paper's assertion/golden oracle verifiably misses this mutant
// (EXPERIMENTS.md); only the reference model kills it.  Keep in sync
// with the oracle-strength CI gate.
constexpr const char* kModelOnlyMutant =
    "CObList::RemoveAt@s9.IndVarRepGlob.m_pNodeTail";

const mutation::Mutant* find_mutant(const std::vector<mutation::Mutant>& all,
                                    const std::string& id) {
    for (const auto& m : all) {
        if (m.id() == id) return &m;
    }
    return nullptr;
}

TEST_F(LockstepFixture, SeededMutantDiverges) {
    const auto mutants =
        mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    const auto* mutant = find_mutant(mutants, kModelOnlyMutant);
    ASSERT_NE(mutant, nullptr);

    const auto suite = component_.generate_tests();
    const mutation::MutantActivation activation(*mutant);
    const auto observed = run_with_model(suite, /*promote=*/true);

    std::size_t diverged = 0;
    for (const auto& r : observed.results) {
        if (!r.model_divergence.empty()) {
            ++diverged;
            EXPECT_EQ(r.verdict, driver::Verdict::ModelDivergence) << r.case_id;
            EXPECT_FALSE(r.failed_method.empty());
        }
    }
    EXPECT_GT(diverged, 0u);
}

TEST_F(LockstepFixture, DifferentialClassificationIsModelOnly) {
    // End-to-end reproduction of the oracle-strength measurement: the
    // seeded mutant survives the assertion/golden oracle but is killed
    // by the model channel of the same single execution.
    const auto mutants =
        mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    const auto* mutant = find_mutant(mutants, kModelOnlyMutant);
    ASSERT_NE(mutant, nullptr);

    const auto suite = component_.generate_tests();
    const auto golden = oracle::GoldenRecord::from(run_with_model(suite));
    ASSERT_TRUE(golden.all_passed());

    driver::SuiteResult mutated;
    {
        const mutation::MutantActivation activation(*mutant);
        mutated = run_with_model(suite);  // no promotion: campaign mode
    }

    const auto kill = oracle::classify_suite_differential(golden, mutated);
    EXPECT_EQ(kill.with_model, oracle::KillReason::ModelDivergence);
    EXPECT_EQ(kill.without_model, oracle::KillReason::None);
    EXPECT_TRUE(kill.model_only());
}

TEST_F(LockstepFixture, DivergenceTextIsPinnedByteForByte) {
    // Reports and stores carry these texts, and the abstractions they
    // quote, verbatim.
    const auto mutants =
        mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    mfc::CInt three{3}, seven{7};
    driver::MethodCall ctor = call("CObList");
    ctor.is_constructor = true;
    driver::TestCase tc;
    tc.id = "TC7";
    tc.calls = {ctor, add("AddHead", three), add("AddHead", seven),
                call("RemoveHead")};
    const reflect::ClassBinding& binding = component_.registry().at("CObList");

    const auto run = [&](const char* mutant_id, bool promote) {
        const auto* mutant = find_mutant(mutants, mutant_id);
        EXPECT_NE(mutant, nullptr) << mutant_id;
        if (mutant == nullptr) return driver::TestResult{};
        driver::RunnerOptions options;
        options.model = model::binding_for("CObList");
        options.promote_divergence = promote;
        const mutation::MutantActivation activation(*mutant);
        return driver::TestRunner(component_.registry(), options)
            .run_case(binding, tc);
    };

    // The second AddHead does not link the old head: the list's state
    // diverges.
    const driver::TestResult state =
        run("CObList::AddHead@s3.IndVarRepReq.NULL", false);
    EXPECT_EQ(state.model_divergence,
              "call 2 AddHead(/* completed by tester: CObject** */): state "
              "expected \"count=2 [CInt(7), CInt(3)]\" got \"count=2 "
              "[CInt(7), <short>]\"");

    // RemoveHead returns null: the return diverges, and a promoted
    // divergence names the call.
    const driver::TestResult returned =
        run("CObList::RemoveHead@s7.IndVarRepReq.NULL", true);
    EXPECT_EQ(returned.verdict, driver::Verdict::ModelDivergence);
    EXPECT_EQ(returned.model_divergence,
              "call 3 RemoveHead(): return expected \"CInt(7)\" got "
              "\"<null>\"");
    EXPECT_EQ(returned.failed_method, "RemoveHead()");
    EXPECT_EQ(returned.log,
              "TestCase TC7\n"
              "call 3 RemoveHead(): return expected \"CInt(7)\" got "
              "\"<null>\"\n"
              "Method called: RemoveHead()\n");
}

// ------------------------------------------------------ checkpoint resume
//
// TestRunner::run_case_from is the one way the campaign's memoization and
// the kill search skip executed calls, so its contract is pinned here
// directly: from a checkpoint captured at boundary k, a resumed run gives
// the full run's result field for field (model lockstep included), and an
// observer sees exactly the calls from k on.

void expect_same_result(const driver::TestResult& actual,
                        const driver::TestResult& expected,
                        const std::string& context) {
    SCOPED_TRACE(context);
    EXPECT_EQ(actual.case_id, expected.case_id);
    EXPECT_EQ(actual.verdict, expected.verdict);
    EXPECT_EQ(actual.message, expected.message);
    EXPECT_EQ(actual.failed_method, expected.failed_method);
    EXPECT_EQ(actual.assertion_kind, expected.assertion_kind);
    EXPECT_EQ(actual.report, expected.report);
    EXPECT_EQ(actual.log, expected.log);
    EXPECT_EQ(actual.model_divergence, expected.model_divergence);
}

std::string resumed_at(std::size_t k) {
    return "resumed at call " + std::to_string(k);
}

/// Records the call indices a run announces.
class CallLog final : public driver::CaseObserver {
public:
    void on_case_begin(const driver::TestCase&) override {
        ++begins;
        calls.clear();
    }
    void on_call(std::size_t call_index) override { calls.push_back(call_index); }

    std::size_t begins = 0;
    std::vector<std::size_t> calls;
};

void check_resume_contract(const tspec::ComponentSpec& spec,
                           const reflect::ClassBinding& class_binding) {
    mfc::ElementPool pool;
    core::SelfTestableComponent component(spec, class_binding);
    component.set_completions(mfc::make_completions(pool));
    const driver::TestSuite suite = component.generate_tests();
    const std::string& class_name = suite.class_name;
    const reflect::ClassBinding& binding = component.registry().at(class_name);
    ASSERT_TRUE(binding.has_cloner());

    driver::RunnerOptions options;
    options.model = model::binding_for(class_name);
    ASSERT_NE(options.model, nullptr);
    const driver::TestRunner runner(component.registry(), options);
    CallLog log;
    driver::RunnerOptions observed_options = options;
    observed_options.observer = &log;
    const driver::TestRunner observed(component.registry(), observed_options);

    // Every boundary of every case, the implicit wrap-up included.
    std::vector<std::vector<driver::CaseCheckpoint>> checkpoints;
    for (const driver::TestCase& tc : suite.cases) {
        SCOPED_TRACE(tc.id);
        std::vector<std::size_t> boundaries;
        for (std::size_t k = 1; k <= tc.calls.size(); ++k) boundaries.push_back(k);
        checkpoints.push_back(runner.capture_case(binding, tc, boundaries));
        const std::vector<driver::CaseCheckpoint>& captured = checkpoints.back();
        ASSERT_FALSE(captured.empty());

        (void)observed.run_case(binding, tc);
        const std::vector<std::size_t> full_calls = log.calls;
        const driver::TestResult full = runner.run_case(binding, tc);
        for (std::size_t j = 0; j < captured.size(); ++j) {
            const std::size_t k = captured[j].resume_call;
            ASSERT_EQ(k, j + 1);
            expect_same_result(runner.run_case_from(binding, tc, captured[j]),
                               full, resumed_at(k));

            const std::size_t begins = log.begins;
            (void)observed.run_case_from(binding, tc, captured[j]);
            EXPECT_EQ(log.begins, begins + 1);
            const std::vector<std::size_t> suffix(
                std::lower_bound(full_calls.begin(), full_calls.end(), k),
                full_calls.end());
            EXPECT_EQ(log.calls, suffix) << "resumed at call " << k;
        }
    }

    // Under every mutant that covers a case, resuming at any boundary up
    // to the case's first consultation of the site still gives the full
    // mutated run.
    const mutation::CoverageIndex coverage =
        mutation::run_with_coverage(component.registry(), options, suite).index;
    const std::vector<mutation::Mutant> mutants =
        mutation::enumerate_mutants(mfc::descriptors(), class_name);
    std::size_t resumed_under_mutants = 0;
    for (const mutation::Mutant& mutant : mutants) {
        const mutation::MutantActivation activation(mutant);
        for (std::size_t c = 0; c < suite.cases.size(); ++c) {
            const driver::TestCase& tc = suite.cases[c];
            const std::optional<std::size_t> hit = coverage.first_hit(tc.id, mutant);
            if (!hit || checkpoints[c].front().resume_call > *hit) continue;
            SCOPED_TRACE(mutant.id() + " on " + tc.id);
            const driver::TestResult full = runner.run_case(binding, tc);
            for (const driver::CaseCheckpoint& checkpoint : checkpoints[c]) {
                if (checkpoint.resume_call > *hit) break;
                expect_same_result(runner.run_case_from(binding, tc, checkpoint),
                                   full, resumed_at(checkpoint.resume_call));
                ++resumed_under_mutants;
            }
        }
    }
    EXPECT_GT(resumed_under_mutants, 0u);
}

TEST(RunnerResumeContract, CObListSuiteWithModel) {
    check_resume_contract(mfc::coblist_spec(), mfc::coblist_binding());
}

TEST(RunnerResumeContract, SortableSuiteWithModel) {
    check_resume_contract(mfc::sortable_spec(), mfc::sortable_binding());
}

// ------------------------------------------------------ identity fast path
//
// LockstepModel::conforms lets a state compare that conforms skip both
// renderings.  Its contract is one-way: true must imply
// project(live) == abstract_state(); false promises nothing and leaves
// the verdict to the rendered compare.  Pinned three ways: against the
// rendered compare over random and corrupted lists, by whole suites run
// with and without the hook under every mutant, and by counting the
// renderings a run asks for.

/// A live list whose links a test can corrupt the way a mutant does.
class OpenList : public mfc::CSortableObList {
public:
    using mfc::CObList::m_nCount;
    using mfc::CObList::m_pNodeHead;
};

/// The node at chain index `index` (the chain must reach it).
mfc::CNode* node_at(OpenList& list, std::size_t index) {
    mfc::CNode* node = list.m_pNodeHead;
    for (std::size_t i = 0; i < index; ++i) node = node->pNext;
    return node;
}

TEST(IdentityCheck, ConformsOnlyWhereTheRenderingsAreEqual) {
    const driver::ModelBinding* binding = model::binding_for("CSortableObList");
    ASSERT_NE(binding, nullptr);
    enum Corruption {
        kNone, kCountHigh, kCountLow, kShortChain, kExtraNode, kForeignNode,
        kCorruptions
    };
    const char* const sorts[] = {"Sort1", "Sort2", "ShellSort"};

    std::vector<std::unique_ptr<mfc::CInt>> pool;
    mfc::CInt stray{9};
    std::size_t corrupted_by[kCorruptions] = {};
    std::size_t ties_reordered = 0;
    std::size_t truncated = 0;
    support::Pcg32 rng(20010701);
    for (int round = 0; round < 600; ++round) {
        OpenList live;
        const std::unique_ptr<driver::LockstepModel> model = binding->factory();
        ASSERT_TRUE(model->construct({}));
        // The model's elements by pointer, as the test predicts them.
        std::vector<const mfc::CObject*> expected;
        const std::size_t n =
            rng.index(6) == 0 ? 64 + rng.index(3) : rng.index(12);
        for (std::size_t i = 0; i < n; ++i) {
            // Few distinct values, so sorts meet equal elements.
            pool.push_back(std::make_unique<mfc::CInt>(
                static_cast<int>(rng.uniform(0, 3))));
            mfc::CInt& element = *pool.back();
            const bool head = rng.index(2) == 0;
            if (head) {
                (void)live.AddHead(&element);
                expected.insert(expected.begin(), &element);
            } else {
                (void)live.AddTail(&element);
                expected.push_back(&element);
            }
            (void)model->apply(add(head ? "AddHead" : "AddTail", element));
        }
        if (rng.index(2) == 0) {
            const std::string sort = sorts[rng.index(3)];
            if (sort == "Sort1") live.Sort1();
            if (sort == "Sort2") live.Sort2();
            if (sort == "ShellSort") live.ShellSort();
            (void)model->apply(call(sort));
            std::stable_sort(expected.begin(), expected.end(),
                             [](const mfc::CObject* a, const mfc::CObject* b) {
                                 return a->Compare(*b) < 0;
                             });
        }

        mfc::CNode foreign{&stray, nullptr, nullptr};
        auto corruption = static_cast<Corruption>(rng.index(kCorruptions));
        switch (corruption) {
            case kCountHigh: ++live.m_nCount; break;
            case kCountLow:
                if (n == 0) corruption = kNone;
                else --live.m_nCount;
                break;
            case kShortChain:
                if (n < 2) corruption = kNone;
                else node_at(live, rng.index(n - 1))->pNext = nullptr;
                break;
            case kExtraNode:
                (void)live.AddTail(&stray);
                --live.m_nCount;
                break;
            case kForeignNode:
                if (n == 0) corruption = kNone;
                else node_at(live, rng.index(n))->pNext = &foreign;
                break;
            default: break;
        }

        SCOPED_TRACE("round " + std::to_string(round) + ", " +
                     std::to_string(n) + " elements, corruption " +
                     std::to_string(corruption));
        const void* object = static_cast<const mfc::CSortableObList*>(&live);
        const bool conforms = model->conforms(object);
        const std::string projected = binding->project(object);
        const std::string predicted = model->abstract_state();
        if (conforms) {
            EXPECT_EQ(projected, predicted);
        }
        if (corruption != kNone) {
            ++corrupted_by[corruption];
            EXPECT_FALSE(conforms);
        } else if (n > 64) {
            ++truncated;  // too long to check: the rendered compare decides
            EXPECT_FALSE(conforms);
            EXPECT_EQ(projected, predicted);
        } else {
            EXPECT_TRUE(conforms);
            std::vector<const mfc::CObject*> actual;
            for (mfc::POSITION p = live.GetHeadPosition(); p != nullptr;) {
                actual.push_back(live.GetNext(p));
            }
            if (actual != expected) ++ties_reordered;
        }
    }
    for (int kind = kCountHigh; kind < kCorruptions; ++kind) {
        EXPECT_GT(corrupted_by[kind], 0u) << "corruption " << kind;
    }
    EXPECT_GT(ties_reordered, 0u);
    EXPECT_GT(truncated, 0u);
}

/// What a lockstep run asked the model seam for.
struct Renders {
    std::size_t projected = 0;
    std::size_t abstracted = 0;
    std::size_t identity_checks = 0;
};

/// Delegates to a real model and counts its renderings.  With
/// `identity` false it never answers by identity: the model as it was
/// before the fast path.
class CountingModel final : public driver::LockstepModel {
public:
    CountingModel(std::unique_ptr<driver::LockstepModel> inner, Renders* renders,
                  bool identity)
        : inner_(std::move(inner)), renders_(renders), identity_(identity) {}

    bool construct(const std::vector<domain::Value>& args) override {
        return inner_->construct(args);
    }
    bool apply_state(const std::string& state) override {
        return inner_->apply_state(state);
    }
    driver::ModelPrediction apply(const driver::MethodCall& c) override {
        return inner_->apply(c);
    }
    [[nodiscard]] std::string abstract_state() const override {
        ++renders_->abstracted;
        return inner_->abstract_state();
    }
    [[nodiscard]] bool conforms(const void* object) const noexcept override {
        if (!identity_) return false;
        ++renders_->identity_checks;
        return inner_->conforms(object);
    }
    [[nodiscard]] std::unique_ptr<driver::LockstepModel> clone() const override {
        return std::make_unique<CountingModel>(inner_->clone(), renders_,
                                               identity_);
    }

private:
    std::unique_ptr<driver::LockstepModel> inner_;
    Renders* renders_;
    bool identity_;
};

driver::ModelBinding counted(const driver::ModelBinding& real, Renders* renders,
                             bool identity) {
    driver::ModelBinding binding;
    binding.factory = [&real, renders, identity] {
        return std::unique_ptr<driver::LockstepModel>(
            new CountingModel(real.factory(), renders, identity));
    };
    binding.project = [&real, renders](const void* object) {
        ++renders->projected;
        return real.project(object);
    };
    return binding;
}

/// Every case of the generated suite, clean and under every mutant that
/// reaches it, gives the same TestResult with the identity hook as
/// without it — divergence texts included.
void check_identity_is_invisible(const tspec::ComponentSpec& spec,
                                 const reflect::ClassBinding& class_binding) {
    mfc::ElementPool pool;
    core::SelfTestableComponent component(spec, class_binding);
    component.set_completions(mfc::make_completions(pool));
    const driver::TestSuite suite = component.generate_tests();
    const std::string& class_name = suite.class_name;
    const reflect::ClassBinding& binding = component.registry().at(class_name);
    const driver::ModelBinding* real = model::binding_for(class_name);
    ASSERT_NE(real, nullptr);

    Renders fast_renders;
    Renders rendered_renders;
    const driver::ModelBinding with_hook = counted(*real, &fast_renders, true);
    const driver::ModelBinding without_hook =
        counted(*real, &rendered_renders, false);
    driver::RunnerOptions options;
    options.promote_divergence = true;
    options.model = &with_hook;
    const driver::TestRunner fast(component.registry(), options);
    options.model = &without_hook;
    const driver::TestRunner rendered(component.registry(), options);

    for (const driver::TestCase& tc : suite.cases) {
        expect_same_result(fast.run_case(binding, tc),
                           rendered.run_case(binding, tc), tc.id);
    }
    const mutation::CoverageIndex coverage =
        mutation::run_with_coverage(component.registry(), {}, suite).index;
    std::size_t diverged = 0;
    for (const mutation::Mutant& mutant :
         mutation::enumerate_mutants(mfc::descriptors(), class_name)) {
        const mutation::MutantActivation activation(mutant);
        for (const driver::TestCase& tc : suite.cases) {
            if (!coverage.covers(tc.id, mutant)) continue;
            const driver::TestResult with = fast.run_case(binding, tc);
            expect_same_result(with, rendered.run_case(binding, tc),
                               mutant.id() + " on " + tc.id);
            if (!with.model_divergence.empty()) ++diverged;
        }
    }
    EXPECT_GT(diverged, 0u);
    EXPECT_GT(fast_renders.identity_checks, 0u);
    EXPECT_LT(fast_renders.projected, rendered_renders.projected);
    EXPECT_EQ(fast_renders.projected, fast_renders.abstracted);
}

TEST(IdentityCheck, CObListResultsMatchTheRenderedCompare) {
    check_identity_is_invisible(mfc::coblist_spec(), mfc::coblist_binding());
}

TEST(IdentityCheck, SortableResultsMatchTheRenderedCompare) {
    check_identity_is_invisible(mfc::sortable_spec(), mfc::sortable_binding());
}

TEST(IdentityCheck, AConformingSortableRunRendersNothing) {
    mfc::ElementPool pool;
    core::SelfTestableComponent component(mfc::sortable_spec(),
                                          mfc::sortable_binding());
    component.set_completions(mfc::make_completions(pool));
    const driver::TestSuite suite = component.generate_tests();

    Renders renders;
    const driver::ModelBinding binding =
        counted(*model::binding_for("CSortableObList"), &renders, true);
    driver::RunnerOptions options;
    options.model = &binding;
    options.promote_divergence = true;
    const driver::SuiteResult result =
        driver::TestRunner(component.registry(), options).run(suite);
    for (const driver::TestResult& r : result.results) {
        EXPECT_EQ(r.verdict, driver::Verdict::Pass) << r.case_id;
    }
    EXPECT_GT(renders.identity_checks, suite.cases.size());
    EXPECT_EQ(renders.projected, 0u);
    EXPECT_EQ(renders.abstracted, 0u);
}

TEST_F(LockstepFixture, ADivergingCaseRendersOnlyAtItsFirstDivergence) {
    const auto mutants =
        mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    const auto* mutant =
        find_mutant(mutants, "CObList::AddHead@s3.IndVarRepReq.NULL");
    ASSERT_NE(mutant, nullptr);
    mfc::CInt three{3}, seven{7}, one{1};
    driver::MethodCall ctor = call("CObList");
    ctor.is_constructor = true;
    driver::TestCase tc;
    tc.id = "TC1";
    tc.calls = {ctor, add("AddHead", three), add("AddHead", seven),
                add("AddTail", one), call("RemoveHead")};

    Renders renders;
    const driver::ModelBinding binding =
        counted(*model::binding_for("CObList"), &renders, true);
    driver::RunnerOptions options;
    options.model = &binding;
    const mutation::MutantActivation activation(*mutant);
    const driver::TestResult result =
        driver::TestRunner(component_.registry(), options)
            .run_case(component_.registry().at("CObList"), tc);

    // The second AddHead loses the old head; the compare after it is the
    // first that does not conform, and the model disengages there.
    EXPECT_EQ(result.model_divergence,
              "call 2 AddHead(/* completed by tester: CObject** */): state "
              "expected \"count=2 [CInt(7), CInt(3)]\" got \"count=2 "
              "[CInt(7), <short>]\"");
    EXPECT_EQ(renders.identity_checks, 3u);  // construction and two AddHeads
    EXPECT_EQ(renders.projected, 1u);
    EXPECT_EQ(renders.abstracted, 1u);
}

}  // namespace
}  // namespace stc
