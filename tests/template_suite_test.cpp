#include <gtest/gtest.h>

#include <sstream>

#include "stack_component.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/driver/template_suite.h"
#include "stc/support/error.h"
#include "test_component.h"

namespace stc::driver {
namespace {

// --------------------------------------------------------- template suites

TEST(TemplateSuites, InstantiatedNameFormatting) {
    EXPECT_EQ(instantiated_name("CStack", {}), "CStack");
    EXPECT_EQ(instantiated_name("CStack", {"int"}), "CStack<int>");
    EXPECT_EQ(instantiated_name("Map", {"int", "double"}), "Map<int, double>");
}

TEST(TemplateSuites, PlainSpecYieldsOneInstantiation) {
    const auto out = generate_template_suites(stc::testing::counter_spec());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].instantiated_class, "Counter");
    EXPECT_TRUE(out[0].type_arguments.empty());
}

TEST(TemplateSuites, OneParamExpandsPerType) {
    const auto spec = stc::examples::stack_spec();
    const auto out = generate_template_suites(spec);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].instantiated_class, "CTypedStack<int>");
    EXPECT_EQ(out[1].instantiated_class, "CTypedStack<double>");
    // Same seed: suites are structurally identical across instantiations.
    ASSERT_EQ(out[0].suite.size(), out[1].suite.size());
    for (std::size_t i = 0; i < out[0].suite.size(); ++i) {
        EXPECT_EQ(out[0].suite.cases[i].transaction_text,
                  out[1].suite.cases[i].transaction_text);
    }
}

TEST(TemplateSuites, CartesianProductForTwoParams) {
    tspec::SpecBuilder b("Pair");
    b.template_param("K", {"int", "double"});
    b.template_param("V", {"int", "double", "CInt"});
    b.method("m1", "Pair", tspec::MethodCategory::Constructor);
    b.method("m2", "~Pair", tspec::MethodCategory::Destructor);
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m2"});
    b.edge("n1", "n2");
    const auto out = generate_template_suites(b.build());
    EXPECT_EQ(out.size(), 6u);  // 2 x 3
    for (const auto& inst : out) {
        EXPECT_EQ(inst.type_arguments.size(), 2u);
        EXPECT_EQ(inst.suite.class_name, inst.instantiated_class);
    }
}

TEST(TemplateSuites, EmptyTypeListRejected) {
    tspec::SpecBuilder b("Bad");
    b.template_param("T", {});
    b.method("m1", "Bad", tspec::MethodCategory::Constructor);
    b.node("n1", true, {"m1"});
    EXPECT_THROW((void)generate_template_suites(b.build()), SpecError);
}

TEST(TemplateSuites, BothStackInstantiationsRunGreen) {
    reflect::Registry registry;
    stc::examples::register_stack_instantiations(registry);
    const TestRunner runner(registry);
    for (const auto& inst :
         generate_template_suites(stc::examples::stack_spec())) {
        const auto result = runner.run(inst.suite);
        EXPECT_EQ(result.failed(), 0u) << inst.instantiated_class;
        EXPECT_GT(result.passed(), 0u);
    }
}

// ----------------------------------------------------------- suite save/load

class SuiteIoTest : public ::testing::Test {
protected:
    SuiteIoTest() : suite_(DriverGenerator(stc::testing::counter_spec()).generate()) {
        registry_.add(stc::testing::counter_binding());
    }

    TestSuite suite_;
    reflect::Registry registry_;
};

TEST_F(SuiteIoTest, RoundTripPreservesEverything) {
    std::stringstream buffer;
    save_suite(buffer, suite_);
    const TestSuite loaded = load_suite(buffer);

    EXPECT_EQ(loaded.class_name, suite_.class_name);
    EXPECT_EQ(loaded.seed, suite_.seed);
    EXPECT_EQ(loaded.model_nodes, suite_.model_nodes);
    EXPECT_EQ(loaded.model_links, suite_.model_links);
    EXPECT_EQ(loaded.transactions_enumerated, suite_.transactions_enumerated);
    ASSERT_EQ(loaded.size(), suite_.size());
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        const TestCase& a = suite_.cases[i];
        const TestCase& b = loaded.cases[i];
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.transaction.path, a.transaction.path);
        EXPECT_EQ(b.transaction_text, a.transaction_text);
        ASSERT_EQ(b.calls.size(), a.calls.size());
        for (std::size_t c = 0; c < a.calls.size(); ++c) {
            EXPECT_EQ(b.calls[c].method_id, a.calls[c].method_id);
            EXPECT_EQ(b.calls[c].method_name, a.calls[c].method_name);
            EXPECT_EQ(b.calls[c].is_constructor, a.calls[c].is_constructor);
            EXPECT_EQ(b.calls[c].is_destructor, a.calls[c].is_destructor);
            EXPECT_EQ(b.calls[c].arguments, a.calls[c].arguments);
        }
    }
}

TEST_F(SuiteIoTest, ReloadedSuiteRunsIdentically) {
    std::stringstream buffer;
    save_suite(buffer, suite_);
    const TestSuite loaded = load_suite(buffer);

    const TestRunner runner(registry_);
    const SuiteResult original = runner.run(suite_);
    const SuiteResult rerun = runner.run(loaded);
    ASSERT_EQ(rerun.results.size(), original.results.size());
    for (std::size_t i = 0; i < original.results.size(); ++i) {
        EXPECT_EQ(rerun.results[i].verdict, original.results[i].verdict);
        EXPECT_EQ(rerun.results[i].report, original.results[i].report);
    }
}

TEST_F(SuiteIoTest, SpecialCharactersSurviveEncoding) {
    TestSuite tricky;
    tricky.class_name = "X";
    TestCase tc;
    tc.id = "TC0";
    tc.transaction_text = "n1 -> n2";
    MethodCall call;
    call.method_id = "m1";
    call.method_name = "Say";
    call.is_constructor = true;
    call.arguments.push_back(domain::Value::make_string("a|b%c\nd"));
    call.arguments.push_back(domain::Value::make_real(0.1));
    call.arguments.push_back(domain::Value::make_int(-7));
    tc.calls.push_back(call);
    tricky.cases.push_back(tc);

    std::stringstream buffer;
    save_suite(buffer, tricky);
    const TestSuite loaded = load_suite(buffer);
    ASSERT_EQ(loaded.cases.size(), 1u);
    EXPECT_EQ(loaded.cases[0].calls[0].arguments[0].as_string(), "a|b%c\nd");
    EXPECT_DOUBLE_EQ(loaded.cases[0].calls[0].arguments[1].as_real(), 0.1);
    EXPECT_EQ(loaded.cases[0].calls[0].arguments[2].as_int(), -7);
}

TEST_F(SuiteIoTest, PointerArgumentsBecomePlaceholders) {
    TestSuite suite;
    suite.class_name = "X";
    TestCase tc;
    tc.id = "TC0";
    MethodCall call;
    call.method_id = "m1";
    call.method_name = "X";
    call.is_constructor = true;
    int live = 0;
    call.arguments.push_back(domain::Value::make_pointer(&live, "Provider"));
    tc.calls.push_back(call);
    suite.cases.push_back(tc);

    std::stringstream buffer;
    save_suite(buffer, suite);
    TestSuite loaded = load_suite(buffer);
    const auto& arg = loaded.cases[0].calls[0].arguments[0];
    EXPECT_EQ(arg.as_pointer(), nullptr);  // live pointer did not persist
    EXPECT_EQ(arg.as_object().type_name, "Provider");

    // Re-completion restores executability.
    CompletionRegistry completions;
    int replacement = 0;
    completions.provide("Provider", [&replacement](support::Pcg32&) {
        return domain::Value::make_pointer(&replacement, "Provider");
    });
    const std::size_t completed = recomplete_suite(loaded, completions, 1);
    EXPECT_EQ(completed, 1u);
    EXPECT_EQ(loaded.cases[0].calls[0].arguments[0].as_pointer(), &replacement);
    EXPECT_FALSE(loaded.cases[0].needs_completion);
}

TEST_F(SuiteIoTest, RecompleteLeavesUnprovidedClassesPending) {
    TestSuite suite;
    suite.class_name = "X";
    TestCase tc;
    tc.id = "TC0";
    MethodCall call;
    call.method_id = "m1";
    call.method_name = "X";
    call.is_constructor = true;
    call.arguments.push_back(domain::Value::make_pointer(nullptr, "Unknown"));
    tc.calls.push_back(call);
    tc.needs_completion = true;
    suite.cases.push_back(tc);

    const CompletionRegistry empty;
    EXPECT_EQ(recomplete_suite(suite, empty, 1), 0u);
    EXPECT_TRUE(suite.cases[0].needs_completion);
}

TEST_F(SuiteIoTest, MalformedInputRejected) {
    std::stringstream not_magic("something else\n");
    EXPECT_THROW((void)load_suite(not_magic), Error);

    std::stringstream bad_case("concat-suite 1\nclass X\ncase onlyone\n");
    EXPECT_THROW((void)load_suite(bad_case), Error);

    std::stringstream orphan_call("concat-suite 1\ncall m1|f|0|0\n");
    EXPECT_THROW((void)load_suite(orphan_call), Error);

    std::stringstream bad_value(
        "concat-suite 1\ncase TC0|t|0|0\ncall m1|f|1|0|Q:zz\nend\n");
    EXPECT_THROW((void)load_suite(bad_value), Error);

    // Malformed numbers and percent escapes are stc::Errors naming the
    // line, not standard-library exceptions escaping the reader.
    const char* const malformed[] = {
        "concat-suite 1\nseed banana\n",
        "concat-suite 1\nseed 12x\n",
        "concat-suite 1\nseed -1\n",
        "concat-suite 1\nseed 99999999999999999999999\n",
        "concat-suite 1\nmodel 1 two 3\n",
        "concat-suite 1\ncase TC0|t|0,x,2|0\n",
        "concat-suite 1\ncase TC0|bad%zz|0|0\n",
        "concat-suite 1\ncase TC0|t|0|0|trailing%4\n",
        "concat-suite 1\ncase TC0|t|0|0\ncall m1|f%|1|0\n",
        "concat-suite 1\ncase TC0|t|0|0\ncall m1|f|0|0|0|P:CObj%zzect\n",
        "concat-suite 1\ncase TC0|t|0|0\ncall m1|f|0|0|0|S:%g1\n",
        "concat-suite 1\ncase TC0|t|0|0\ncall m1|f|0|0|0|I:4.5\n",
        "concat-suite 1\ncase TC0|t|0|0\ncall m1|f|0|0|0|R:fast\n",
    };
    for (const char* text : malformed) {
        std::stringstream in(text);
        try {
            (void)load_suite(in);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace stc::driver
