// stc::model — the differential conformance oracle.  Covers the
// binding registry, the ListModel's prediction semantics (which must
// mirror the mfc binding wrappers exactly), live-state projection,
// lockstep conformance of the unmutated components, divergence on a
// seeded mutant, and the end-to-end differential classification that
// feeds the oracle-strength report.
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
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/coverage.h"
#include "stc/mutation/descriptor.h"
#include "stc/mutation/mutant.h"
#include "stc/oracle/oracle.h"

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

void expect_same_result(const driver::TestResult& resumed,
                        const driver::TestResult& full, std::size_t k) {
    SCOPED_TRACE("resumed at call " + std::to_string(k));
    EXPECT_EQ(resumed.case_id, full.case_id);
    EXPECT_EQ(resumed.verdict, full.verdict);
    EXPECT_EQ(resumed.message, full.message);
    EXPECT_EQ(resumed.failed_method, full.failed_method);
    EXPECT_EQ(resumed.assertion_kind, full.assertion_kind);
    EXPECT_EQ(resumed.report, full.report);
    EXPECT_EQ(resumed.log, full.log);
    EXPECT_EQ(resumed.model_divergence, full.model_divergence);
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
                               full, k);

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
                                   full, checkpoint.resume_call);
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

}  // namespace
}  // namespace stc
