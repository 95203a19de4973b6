#include <gtest/gtest.h>

#include <cstdlib>

#include "product_component.h"
#include "stc/codegen/driver_codegen.h"
#include "stc/driver/generator.h"
#include "stc/tspec/parser.h"
#include "test_component.h"

namespace stc::codegen {
namespace {

class CodegenTest : public ::testing::Test {
protected:
    CodegenTest() : spec_(stc::testing::counter_spec()) {
        driver::GeneratorOptions options;
        options.enumeration.max_node_visits = 1;
        suite_ = driver::DriverGenerator(spec_, options).generate();
    }

    tspec::ComponentSpec spec_;
    driver::TestSuite suite_;
};

TEST_F(CodegenTest, TestCaseFollowsFig6Structure) {
    const DriverCodegen generator(spec_);
    const std::string src = generator.test_case_source(suite_.cases.front());

    // Template function reusable for subclass testing.
    EXPECT_NE(src.find("template <class ClassType>"), std::string::npos);
    EXPECT_NE(src.find("void TestCase0(ClassType* CUT)"), std::string::npos);
    // Invariant before call and after return.
    EXPECT_NE(src.find("CUT->InvariantTest();"), std::string::npos);
    // CurrentMethod bookkeeping and catch block.
    EXPECT_NE(src.find("CurrentMethod = "), std::string::npos);
    EXPECT_NE(src.find("catch (const std::exception& er)"), std::string::npos);
    EXPECT_NE(src.find("Method called: "), std::string::npos);
    // Reporter stores the internal state; the CUT dies at the end.
    EXPECT_NE(src.find("CUT->Reporter(LogFile);"), std::string::npos);
    EXPECT_NE(src.find("delete CUT;"), std::string::npos);
    // Log file matches the paper's name.
    EXPECT_NE(src.find("\"Result.txt\""), std::string::npos);
}

TEST_F(CodegenTest, PlainFunctionModeUsesConcreteClass) {
    CodegenOptions options;
    options.as_templates = false;
    const DriverCodegen generator(spec_, options);
    const std::string src = generator.test_case_source(suite_.cases.front());
    EXPECT_EQ(src.find("template"), std::string::npos);
    EXPECT_NE(src.find("Counter* CUT"), std::string::npos);
}

TEST_F(CodegenTest, SuiteHasMainInstantiatingTheCut) {
    const DriverCodegen generator(spec_);
    const std::string src = generator.suite_source(suite_);
    EXPECT_NE(src.find("int main() {"), std::string::npos);
    EXPECT_NE(src.find("new Counter("), std::string::npos);
    // One TestCase call per case.
    std::size_t calls = 0;
    for (std::size_t pos = 0; (pos = src.find("TestCase", pos)) != std::string::npos;
         ++pos) {
        ++calls;
    }
    EXPECT_GE(calls, suite_.size());
    // Header block records the generation metadata the paper reports.
    EXPECT_NE(src.find("node(s)"), std::string::npos);
}

TEST_F(CodegenTest, IncludesAndUsingsEmitted) {
    CodegenOptions options;
    options.includes = {"counter.h", "<vector>"};
    options.usings = {"stc::testing"};
    const DriverCodegen generator(spec_, options);
    const std::string src = generator.suite_source(suite_);
    EXPECT_NE(src.find("#include \"counter.h\""), std::string::npos);
    EXPECT_NE(src.find("#include <vector>"), std::string::npos);
    EXPECT_NE(src.find("using namespace stc::testing;"), std::string::npos);
}

TEST_F(CodegenTest, ValueReturningCallsAreDiscardedExplicitly) {
    const DriverCodegen generator(spec_);
    const std::string src = generator.suite_source(suite_);
    // Get() returns int -> (void) cast; Inc() returns void -> plain call.
    EXPECT_NE(src.find("(void)CUT->Get()"), std::string::npos);
    EXPECT_NE(src.find("CUT->Inc()"), std::string::npos);
    EXPECT_EQ(src.find("(void)CUT->Inc()"), std::string::npos);
}

TEST_F(CodegenTest, CustomLogFileName) {
    CodegenOptions options;
    options.log_file = "Custom.log";
    const DriverCodegen generator(spec_, options);
    EXPECT_NE(generator.test_case_source(suite_.cases.front()).find("\"Custom.log\""),
              std::string::npos);
}

TEST_F(CodegenTest, StructuredParametersBecomeTesterHooks) {
    tspec::SpecBuilder b("Holder");
    b.method("m1", "Holder", tspec::MethodCategory::Constructor);
    b.method("m2", "~Holder", tspec::MethodCategory::Destructor);
    b.method("m3", "Attach", tspec::MethodCategory::New)
        .param_pointer("peer", "Provider");
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});
    b.node("n3", false, {"m2"});
    b.edge("n1", "n2").edge("n2", "n3");
    const auto spec = b.build();
    const auto suite = driver::DriverGenerator(spec).generate();

    const DriverCodegen generator(spec);
    const std::string src = generator.suite_source(suite);
    EXPECT_NE(src.find("Provider* tester_supplied_Provider(int hint);"),
              std::string::npos);
    EXPECT_NE(src.find("Attach(tester_supplied_Provider(0))"), std::string::npos);
    EXPECT_EQ(generator.completion_classes(suite),
              (std::vector<std::string>{"Provider"}));
}

TEST_F(CodegenTest, NoHooksForPlainSuites) {
    const DriverCodegen generator(spec_);
    EXPECT_TRUE(generator.completion_classes(suite_).empty());
    EXPECT_EQ(generator.suite_source(suite_).find("tester_supplied"),
              std::string::npos);
}

TEST_F(CodegenTest, StringArgumentsAreEscaped) {
    tspec::SpecBuilder b("S");
    b.method("m1", "S", tspec::MethodCategory::Constructor);
    b.method("m2", "~S", tspec::MethodCategory::Destructor);
    b.method("m3", "Say", tspec::MethodCategory::New)
        .param_string_set("text", {"he\"llo"});
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});
    b.node("n3", false, {"m2"});
    b.edge("n1", "n2").edge("n2", "n3");
    const auto spec = b.build();
    const auto suite = driver::DriverGenerator(spec).generate();
    const std::string src = DriverCodegen(spec).suite_source(suite);
    EXPECT_NE(src.find("Say(\"he\\\"llo\")"), std::string::npos);
}

TEST(CodegenRealLiterals, RoundTripToTheSuiteValue) {
    // UpdatePrice(p) takes a real drawn from [0.01, 9999.99]: the driver
    // must pass, and a failure must name, exactly the value the suite
    // runs, not a 6-digit rounding of it.
    const tspec::ComponentSpec spec =
        tspec::parse_tspec(examples::product_tspec_text());
    const driver::TestSuite suite = driver::DriverGenerator(spec).generate();
    const DriverCodegen generator(spec);
    const auto literal_after = [](const std::string& text,
                                  const std::string& prefix) {
        const std::size_t at = text.find(prefix);
        if (at == std::string::npos) return std::string();
        const std::size_t begin = at + prefix.size();
        return text.substr(begin, text.find(')', begin) - begin);
    };
    std::size_t checked = 0;
    for (const driver::TestCase& tc : suite.cases) {
        const std::string src = generator.test_case_source(tc);
        for (const driver::MethodCall& call : tc.calls) {
            if (call.method_name != "UpdatePrice") continue;
            ASSERT_EQ(call.arguments.size(), 1u);
            const double value = call.arguments[0].as_real();
            const std::string in_driver = literal_after(src, "CUT->UpdatePrice(");
            const std::string in_label = literal_after(call.render(), "UpdatePrice(");
            ASSERT_FALSE(in_driver.empty()) << tc.id;
            EXPECT_EQ(std::strtod(in_driver.c_str(), nullptr), value)
                << tc.id << ": " << in_driver;
            EXPECT_EQ(std::strtod(in_label.c_str(), nullptr), value)
                << tc.id << ": " << in_label;
            ++checked;
            break;  // the driver's first UpdatePrice is this call
        }
    }
    EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace stc::codegen
