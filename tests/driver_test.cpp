#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "test_component.h"

namespace stc::driver {
namespace {

using testing_fixture = stc::testing::Counter;

class DriverTest : public ::testing::Test {
protected:
    DriverTest() : spec_(stc::testing::counter_spec()) {
        registry_.add(stc::testing::counter_binding());
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
};

// ---------------------------------------------------------------- generator

TEST_F(DriverTest, GeneratesOneCasePerTransaction) {
    DriverGenerator generator(spec_);
    const TestSuite suite = generator.generate();
    EXPECT_EQ(suite.class_name, "Counter");
    EXPECT_EQ(suite.size(), suite.transactions_enumerated);
    EXPECT_EQ(suite.model_nodes, 7u);
    EXPECT_GT(suite.size(), 0u);
}

TEST_F(DriverTest, EveryCaseStartsWithConstructorAndEndsWithDestructorNode) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    for (const auto& tc : suite.cases) {
        ASSERT_FALSE(tc.calls.empty());
        EXPECT_TRUE(tc.calls.front().is_constructor) << tc.transaction_text;
        EXPECT_TRUE(tc.calls.back().is_destructor) << tc.transaction_text;
    }
}

TEST_F(DriverTest, ArgumentsDrawnFromDeclaredDomains) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.calls) {
            if (call.method_name == "Counter" && call.arguments.size() == 1) {
                const auto step = call.arguments[0].as_int();
                EXPECT_GE(step, 1);
                EXPECT_LE(step, 10);
            }
        }
        EXPECT_FALSE(tc.needs_completion);
    }
}

TEST_F(DriverTest, GenerationIsDeterministicPerSeed) {
    GeneratorOptions options;
    options.seed = 77;
    const TestSuite a = DriverGenerator(spec_, options).generate();
    const TestSuite b = DriverGenerator(spec_, options).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.cases[i].calls.size(), b.cases[i].calls.size());
        for (std::size_t c = 0; c < a.cases[i].calls.size(); ++c) {
            EXPECT_EQ(a.cases[i].calls[c].arguments, b.cases[i].calls[c].arguments);
        }
    }

    GeneratorOptions other;
    other.seed = 78;
    const TestSuite c = DriverGenerator(spec_, other).generate();
    bool any_difference = false;
    for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
        for (std::size_t k = 0; k < a.cases[i].calls.size(); ++k) {
            if (a.cases[i].calls[k].arguments != c.cases[i].calls[k].arguments) {
                any_difference = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST_F(DriverTest, CasesPerTransactionMultiplies) {
    GeneratorOptions options;
    options.cases_per_transaction = 3;
    const TestSuite suite = DriverGenerator(spec_, options).generate();
    EXPECT_EQ(suite.size(), suite.transactions_enumerated * 3);
}

TEST_F(DriverTest, BoundaryPolicyUsesDomainEnds) {
    GeneratorOptions options;
    options.value_policy = ValuePolicy::Boundary;
    options.cases_per_transaction = 2;
    const TestSuite suite = DriverGenerator(spec_, options).generate();
    bool saw_lo = false;
    bool saw_hi = false;
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.calls) {
            if (call.method_name == "Counter" && call.arguments.size() == 1) {
                saw_lo = saw_lo || call.arguments[0].as_int() == 1;
                saw_hi = saw_hi || call.arguments[0].as_int() == 10;
            }
        }
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST_F(DriverTest, WeakerCriteriaShrinkTheSuite) {
    GeneratorOptions options;
    options.criterion = tfm::Criterion::AllNodes;
    const TestSuite nodes = DriverGenerator(spec_, options).generate();
    const TestSuite all = DriverGenerator(spec_).generate();
    EXPECT_LT(nodes.size(), all.size());
    EXPECT_GT(nodes.size(), 0u);
}

TEST_F(DriverTest, StructuredParamWithoutCompletionFlagsManualWork) {
    tspec::SpecBuilder b("Counter");
    b.method("m1", "Counter", tspec::MethodCategory::Constructor);
    b.method("m2", "~Counter", tspec::MethodCategory::Destructor);
    b.method("m3", "Attach", tspec::MethodCategory::New)
        .param_pointer("peer", "Counter");
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});
    b.node("n3", false, {"m2"});
    b.edge("n1", "n2").edge("n2", "n3");
    const auto spec = b.build();

    const TestSuite suite = DriverGenerator(spec).generate();
    ASSERT_EQ(suite.size(), 1u);
    EXPECT_TRUE(suite.cases[0].needs_completion);

    // With a completion registered the flag clears and the value is live.
    CompletionRegistry completions;
    int target = 0;
    completions.provide("Counter", [&target](support::Pcg32&) {
        return domain::Value::make_pointer(&target, "Counter");
    });
    const TestSuite completed =
        DriverGenerator(spec).completions(&completions).generate();
    EXPECT_FALSE(completed.cases[0].needs_completion);
}

TEST_F(DriverTest, RenderedCallsMatchFig6Style) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    bool saw_inc = false;
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.calls) {
            if (call.method_name == "Inc") {
                EXPECT_EQ(call.render(), "Inc()");
                saw_inc = true;
            }
        }
    }
    EXPECT_TRUE(saw_inc);
}

// ------------------------------------------------------------------ runner

TEST_F(DriverTest, HealthyComponentPassesWholeSuite) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    const SuiteResult result = TestRunner(registry_).run(suite);
    EXPECT_EQ(result.passed(), suite.size());
    EXPECT_EQ(result.failed(), 0u);
    for (const auto& r : result.results) {
        EXPECT_EQ(r.verdict, Verdict::Pass);
        EXPECT_NE(r.log.find("OK!"), std::string::npos);
        EXPECT_NE(r.report.find("Counter{"), std::string::npos);
    }
}

TEST_F(DriverTest, LogFollowsFig6Format) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    const SuiteResult result = TestRunner(registry_).run(suite);
    EXPECT_NE(result.log.find("TestCase TC0 OK!"), std::string::npos);
}

TEST_F(DriverTest, ReportsCaptureObservableState) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    const SuiteResult result = TestRunner(registry_).run(suite);
    // Get() returns ints: the observation log records them.
    bool saw_return = false;
    for (const auto& r : result.results) {
        saw_return = saw_return || r.report.find("Get -> ") != std::string::npos;
    }
    EXPECT_TRUE(saw_return);
}

/// A counter whose Inc() breaks the class invariant after 2 increments.
class BrokenCounter : public stc::testing::Counter {
public:
    void BadInc() {
        // bypass instrumentation: directly corrupt via many increments
        for (int i = 0; i < stc::testing::Counter::kMax + 5; ++i) Inc();
    }
};

TEST_F(DriverTest, AssertionViolationVerdictNamesTheMethod) {
    reflect::Binder<BrokenCounter> b("BrokenCounter");
    b.ctor<>();
    b.method("BadInc", &BrokenCounter::BadInc);
    reflect::Registry registry;
    registry.add(b.take());

    tspec::SpecBuilder sb("BrokenCounter");
    sb.method("m1", "BrokenCounter", tspec::MethodCategory::Constructor);
    sb.method("m2", "~BrokenCounter", tspec::MethodCategory::Destructor);
    sb.method("m3", "BadInc", tspec::MethodCategory::New);
    sb.node("n1", true, {"m1"});
    sb.node("n2", false, {"m3"});
    sb.node("n3", false, {"m2"});
    sb.edge("n1", "n2").edge("n2", "n3");

    const TestSuite suite = DriverGenerator(sb.build()).generate();
    const SuiteResult result = TestRunner(registry).run(suite);
    ASSERT_EQ(result.results.size(), 1u);
    const TestResult& r = result.results[0];
    EXPECT_EQ(r.verdict, Verdict::AssertionViolation);
    ASSERT_TRUE(r.assertion_kind.has_value());
    EXPECT_EQ(r.failed_method, "BadInc()");
    EXPECT_NE(r.log.find("Method called: BadInc()"), std::string::npos);
    EXPECT_EQ(result.count(Verdict::AssertionViolation), 1u);
}

/// Fails on demand with fixed messages (no __FILE__), so the failure
/// blocks of the four labelled failure kinds can be pinned byte for byte.
class Strict : public bit::BuiltInTest {
public:
    explicit Strict(int limit) : limit_(limit) {
        if (limit < 0) fail(bit::AssertionKind::Precondition, "limit >= 0", 1);
    }

    void Push(int value) {
        if (value > limit_) {
            fail(bit::AssertionKind::Precondition, "value <= limit", 2);
        }
        ++count_;
    }

    void Fill(const std::string& state) {
        if (state == "overfull") {
            fail(bit::AssertionKind::Invariant, "count <= limit", 3);
        }
        count_ = limit_;
    }

    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override {
        os << "Strict{" << count_ << "/" << limit_ << "}";
    }

private:
    [[noreturn]] static void fail(bit::AssertionKind kind, const char* expression,
                                  int line) {
        throw bit::AssertionViolation(kind, expression, "strict.h", line);
    }

    int limit_;
    int count_ = 0;
};

reflect::Registry strict_registry() {
    reflect::Binder<Strict> b("Strict");
    b.ctor<int>();
    b.method("Push", &Strict::Push);
    b.state_setter([](Strict& s, const std::string& state) { s.Fill(state); });
    reflect::Registry registry;
    registry.add(b.take());
    return registry;
}

MethodCall strict_call(const char* name, std::vector<domain::Value> arguments) {
    MethodCall call;
    call.method_name = name;
    call.arguments = std::move(arguments);
    return call;
}

TestCase strict_case(const char* id, int limit, std::vector<MethodCall> body) {
    TestCase tc;
    tc.id = id;
    MethodCall ctor = strict_call("Strict", {domain::Value::make_int(limit)});
    ctor.is_constructor = true;
    tc.calls.push_back(std::move(ctor));
    for (MethodCall& call : body) tc.calls.push_back(std::move(call));
    return tc;
}

TEST_F(DriverTest, FailureBlocksNameTheFailingCallByteForByte) {
    const reflect::Registry registry = strict_registry();
    const TestRunner runner(registry);
    const reflect::ClassBinding& binding = registry.at("Strict");
    const auto push = [](int value) {
        return strict_call("Push", {domain::Value::make_int(value)});
    };

    // The constructor's label carries its arguments.
    const TestResult ctor = runner.run_case(binding, strict_case("TC0", -1, {}));
    EXPECT_EQ(ctor.verdict, Verdict::AssertionViolation);
    EXPECT_EQ(ctor.failed_method, "Strict(-1)");
    EXPECT_EQ(ctor.log,
              "TestCase TC0\n"
              "Pre-condition is violated! (limit >= 0 at strict.h:1)\n"
              "Method called: Strict(-1)\n");
    EXPECT_EQ(ctor.report, "");

    // A body call's assertion names that call, after a passing one.
    const TestResult body =
        runner.run_case(binding, strict_case("TC1", 2, {push(1), push(5)}));
    EXPECT_EQ(body.verdict, Verdict::AssertionViolation);
    EXPECT_EQ(body.failed_method, "Push(5)");
    EXPECT_EQ(body.log,
              "TestCase TC1\n"
              "Pre-condition is violated! (value <= limit at strict.h:2)\n"
              "Method called: Push(5)\n");
    EXPECT_EQ(body.report, "Strict{1/2}");

    // An out-of-contract call the component accepts keeps its "!" mark.
    MethodCall lax = push(1);
    lax.expect_rejection = true;
    const TestResult accepted =
        runner.run_case(binding, strict_case("TC2", 2, {std::move(lax)}));
    EXPECT_EQ(accepted.verdict, Verdict::ContractNotEnforced);
    EXPECT_EQ(accepted.failed_method, "!Push(1)");
    EXPECT_EQ(accepted.log,
              "TestCase TC2\n"
              "out-of-contract call was accepted\n"
              "Method called: !Push(1)\n");
    EXPECT_EQ(accepted.report, "");

    // A failing entry state is named by its marker.
    TestCase entry = strict_case("TC3", 2, {push(1)});
    entry.entry_state = "overfull";
    const TestResult state = runner.run_case(binding, entry);
    EXPECT_EQ(state.verdict, Verdict::AssertionViolation);
    EXPECT_EQ(state.failed_method, "<set-state:overfull>");
    EXPECT_EQ(state.log,
              "TestCase TC3\n"
              "Invariant is violated! (count <= limit at strict.h:3)\n"
              "Method called: <set-state:overfull>\n");
    EXPECT_EQ(state.report, "");
}

/// Synthetic components raising each exception family.
class Exploder : public bit::BuiltInTest {
public:
    void Crash() { throw CrashSignal("simulated wild pointer"); }
    void Exception() { throw std::runtime_error("plain failure"); }
    void InvariantTest() const override {}
    void Reporter(std::ostream& os) const override { os << "Exploder"; }
};

TestSuite exploder_suite(const char* method) {
    tspec::SpecBuilder sb("Exploder");
    sb.method("m1", "Exploder", tspec::MethodCategory::Constructor);
    sb.method("m2", "~Exploder", tspec::MethodCategory::Destructor);
    sb.method("m3", method, tspec::MethodCategory::New);
    sb.node("n1", true, {"m1"});
    sb.node("n2", false, {"m3"});
    sb.node("n3", false, {"m2"});
    sb.edge("n1", "n2").edge("n2", "n3");
    return DriverGenerator(sb.build()).generate();
}

reflect::Registry exploder_registry() {
    reflect::Binder<Exploder> b("Exploder");
    b.ctor<>();
    b.method("Crash", &Exploder::Crash);
    b.method("Exception", &Exploder::Exception);
    reflect::Registry registry;
    registry.add(b.take());
    return registry;
}

TEST_F(DriverTest, CrashSignalBecomesCrashVerdict) {
    const auto registry = exploder_registry();
    const SuiteResult result = TestRunner(registry).run(exploder_suite("Crash"));
    ASSERT_EQ(result.results.size(), 1u);
    EXPECT_EQ(result.results[0].verdict, Verdict::Crash);
}

TEST_F(DriverTest, CrashWhileApplyingAnEntryStateIsACrash) {
    // A simulated crash reads `crash` wherever it strikes: in the
    // constructor, in the body, and while the entry state is applied.
    reflect::Binder<Exploder> b("Exploder");
    b.ctor<>();
    b.state_setter([](Exploder&, const std::string&) {
        throw CrashSignal("wild pointer while entering the state");
    });
    reflect::Registry registry;
    registry.add(b.take());
    TestCase tc;
    tc.id = "TC0";
    MethodCall ctor;
    ctor.method_name = "Exploder";
    ctor.is_constructor = true;
    tc.calls.push_back(std::move(ctor));
    tc.entry_state = "corrupt";

    const TestResult result =
        TestRunner(registry).run_case(registry.at("Exploder"), tc);
    EXPECT_EQ(result.verdict, Verdict::Crash);
    EXPECT_EQ(result.message,
              CrashSignal("wild pointer while entering the state").what());
    EXPECT_EQ(result.failed_method, "<set-state:corrupt>");
}

TEST_F(DriverTest, OtherExceptionsBecomeUncaughtException) {
    const auto registry = exploder_registry();
    const SuiteResult result = TestRunner(registry).run(exploder_suite("Exception"));
    ASSERT_EQ(result.results.size(), 1u);
    EXPECT_EQ(result.results[0].verdict, Verdict::UncaughtException);
    EXPECT_EQ(result.results[0].message, "plain failure");
}

TEST_F(DriverTest, MissingBindingIsSetupError) {
    const auto registry = exploder_registry();
    auto suite = exploder_suite("Crash");
    for (auto& tc : suite.cases) {
        for (auto& call : tc.calls) {
            if (call.method_name == "Crash") call.method_name = "Vanished";
        }
    }
    const SuiteResult result = TestRunner(registry).run(suite);
    EXPECT_EQ(result.results[0].verdict, Verdict::SetupError);
}

TEST_F(DriverTest, UnknownClassThrows) {
    TestSuite suite;
    suite.class_name = "NotRegistered";
    EXPECT_THROW((void)TestRunner(registry_).run(suite), ReflectError);
}

TEST_F(DriverTest, ObserveEachCallProducesRicherReports) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    RunnerOptions verbose;
    verbose.observe_each_call = true;
    const SuiteResult observed = TestRunner(registry_, verbose).run(suite);
    const SuiteResult plain = TestRunner(registry_).run(suite);
    ASSERT_EQ(observed.results.size(), plain.results.size());
    std::size_t longer = 0;
    for (std::size_t i = 0; i < observed.results.size(); ++i) {
        longer += observed.results[i].report.size() > plain.results[i].report.size()
                      ? 1
                      : 0;
    }
    EXPECT_GT(longer, 0u);
}

TEST(VerdictText, RoundTripsExhaustively) {
    // Every verdict kind — including the two that early reporters tended
    // to drop, SetupError and ContractNotEnforced — survives the text
    // round-trip used by the corpus format and the telemetry stream.
    std::set<std::string> names;
    for (const Verdict v : kAllVerdicts) {
        const char* text = to_string(v);
        EXPECT_TRUE(names.insert(text).second) << text;  // names are distinct
        const auto back = verdict_from_string(text);
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_EQ(*back, v);
    }
    EXPECT_EQ(names.size(), std::size(kAllVerdicts));
    EXPECT_TRUE(names.count("setup-error") == 1);
    EXPECT_TRUE(names.count("contract-not-enforced") == 1);
    EXPECT_FALSE(verdict_from_string("no-such-verdict").has_value());
    EXPECT_FALSE(verdict_from_string("").has_value());
    EXPECT_FALSE(verdict_from_string("Pass").has_value());  // case-sensitive
}

TEST_F(DriverTest, RunsAreDeterministic) {
    const TestSuite suite = DriverGenerator(spec_).generate();
    const SuiteResult a = TestRunner(registry_).run(suite);
    const SuiteResult b = TestRunner(registry_).run(suite);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].verdict, b.results[i].verdict);
        EXPECT_EQ(a.results[i].report, b.results[i].report);
        EXPECT_EQ(a.results[i].log, b.results[i].log);
    }
}

// ------------------------------------------------------- checkpoint resume

/// A reference model that is wrong on purpose: it predicts that Get
/// always returns 0, so a run diverges at its first Get of a non-zero
/// counter.  The real models never diverge on an unmutated component,
/// so only a model like this one puts a divergence before a checkpoint.
class ZeroModel final : public LockstepModel {
public:
    bool construct(const std::vector<domain::Value>&) override { return true; }
    bool apply_state(const std::string&) override { return false; }
    ModelPrediction apply(const MethodCall& call) override {
        if (call.method_name == "Get") return ModelPrediction{true, true, "0"};
        return ModelPrediction{true, false, {}};
    }
    [[nodiscard]] std::string abstract_state() const override { return {}; }
    [[nodiscard]] std::unique_ptr<LockstepModel> clone() const override {
        return std::make_unique<ZeroModel>(*this);
    }
};

TEST_F(DriverTest, ResumedRunsCarryAnEarlierDivergence) {
    reflect::ClassBinding binding = stc::testing::counter_binding();
    binding.set_cloner([](const void* object) -> void* {
        return new stc::testing::Counter(
            *static_cast<const stc::testing::Counter*>(object));
    });
    ModelBinding model;
    model.factory = [] { return std::make_unique<ZeroModel>(); };
    model.project = [](const void*) { return std::string(); };
    const TestSuite suite = DriverGenerator(spec_).generate();

    std::size_t carried = 0;
    for (const bool promote : {false, true}) {
        RunnerOptions options;
        options.model = &model;
        options.promote_divergence = promote;
        const TestRunner runner(registry_, options);
        for (const TestCase& tc : suite.cases) {
            std::vector<std::size_t> boundaries;
            for (std::size_t k = 1; k <= tc.calls.size(); ++k) boundaries.push_back(k);
            const TestResult full = runner.run_case(binding, tc);
            for (const CaseCheckpoint& checkpoint :
                 runner.capture_case(binding, tc, boundaries)) {
                SCOPED_TRACE(tc.id + " resumed at call " +
                             std::to_string(checkpoint.resume_call));
                if (!checkpoint.model_divergence.empty()) ++carried;
                const TestResult resumed =
                    runner.run_case_from(binding, tc, checkpoint);
                EXPECT_EQ(resumed.verdict, full.verdict);
                EXPECT_EQ(resumed.message, full.message);
                EXPECT_EQ(resumed.failed_method, full.failed_method);
                EXPECT_EQ(resumed.report, full.report);
                EXPECT_EQ(resumed.log, full.log);
                EXPECT_EQ(resumed.model_divergence, full.model_divergence);
            }
        }
    }
    EXPECT_GT(carried, 0u);
}

/// The call indices one run enters, in order.
class CallTrace final : public CaseObserver {
public:
    void on_case_begin(const TestCase&) override { calls.clear(); }
    void on_call(std::size_t call_index) override { calls.push_back(call_index); }

    std::vector<std::size_t> calls;
};

TEST_F(DriverTest, CaptureCaseStopsAfterItsLastBoundary) {
    reflect::ClassBinding binding = stc::testing::counter_binding();
    binding.set_cloner([](const void* object) -> void* {
        return new stc::testing::Counter(
            *static_cast<const stc::testing::Counter*>(object));
    });
    const TestSuite suite = DriverGenerator(spec_).generate();
    CallTrace trace;
    RunnerOptions options;
    options.observer = &trace;
    options.obs.metrics = obs::Metrics::make();
    const TestRunner runner(registry_, options);

    std::size_t checked = 0;
    for (const TestCase& tc : suite.cases) {
        if (tc.calls.size() < 4) continue;
        SCOPED_TRACE(tc.id);
        const TestResult full = runner.run_case(binding, tc);
        if (!full.passed()) continue;
        // A ladder that ends two calls before the destructor.
        const std::size_t last = tc.calls.size() - 2;
        std::vector<std::size_t> boundaries;
        for (std::size_t k = 1; k <= last; ++k) boundaries.push_back(k);

        const std::uint64_t calls_before =
            options.obs.metrics.counter("runner.method_calls");
        const std::vector<CaseCheckpoint> ladder =
            runner.capture_case(binding, tc, boundaries);
        ASSERT_EQ(ladder.size(), boundaries.size());
        // Entered up to the last boundary, executed only the calls before it.
        EXPECT_EQ(trace.calls, boundaries);
        EXPECT_EQ(options.obs.metrics.counter("runner.method_calls") - calls_before,
                  last - 1);

        for (const CaseCheckpoint& checkpoint : ladder) {
            const TestResult resumed = runner.run_case_from(binding, tc, checkpoint);
            EXPECT_EQ(resumed.verdict, full.verdict) << checkpoint.resume_call;
            EXPECT_EQ(resumed.message, full.message) << checkpoint.resume_call;
            EXPECT_EQ(resumed.report, full.report) << checkpoint.resume_call;
            EXPECT_EQ(resumed.log, full.log) << checkpoint.resume_call;
        }
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace stc::driver
