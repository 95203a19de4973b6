#include "stc/codegen/driver_codegen.h"

#include <set>

#include "stc/support/indent_writer.h"
#include "stc/support/strings.h"

namespace stc::codegen {

using support::IndentWriter;

DriverCodegen::DriverCodegen(tspec::ComponentSpec spec, CodegenOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

std::string DriverCodegen::render_argument(const domain::Value& value,
                                           int* hint_counter) const {
    using domain::ValueKind;
    if (value.kind() == ValueKind::Pointer || value.kind() == ValueKind::Object) {
        // Structured parameter: the tester completes it (§3.4.1).  The
        // class name travels in the value's type tag.
        const std::string cls = value.as_object().type_name.empty()
                                    ? "CObject"
                                    : value.as_object().type_name;
        return "tester_supplied_" + cls + "(" + std::to_string((*hint_counter)++) +
               ")";
    }
    return value.to_source();
}

std::string DriverCodegen::render_call(const driver::MethodCall& call,
                                       int* hint_counter) const {
    std::string out = call.method_name + "(";
    for (std::size_t i = 0; i < call.arguments.size(); ++i) {
        if (i != 0) out += ", ";
        out += render_argument(call.arguments[i], hint_counter);
    }
    out += ")";
    return out;
}

std::vector<std::string> DriverCodegen::completion_classes(
    const driver::TestSuite& suite) const {
    std::set<std::string> classes;
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.calls) {
            for (const auto& arg : call.arguments) {
                if (arg.kind() == domain::ValueKind::Pointer ||
                    arg.kind() == domain::ValueKind::Object) {
                    const std::string& cls = arg.as_object().type_name;
                    classes.insert(cls.empty() ? "CObject" : cls);
                }
            }
        }
    }
    return {classes.begin(), classes.end()};
}

std::string DriverCodegen::test_case_source(const driver::TestCase& test_case) const {
    IndentWriter w;
    int hints = 0;

    w.line("// Transaction: " + test_case.transaction_text);
    if (options_.as_templates) {
        // Test cases are template functions "to allow reuse when testing a
        // subclass" (§3.4.1, Fig. 6).
        w.line("template <class ClassType>");
        w.open("void TestCase" + test_case.id.substr(2) + "(ClassType* CUT) {");
    } else {
        w.open("void TestCase" + test_case.id.substr(2) + "(" + spec_.class_name +
               "* CUT) {");
    }

    w.line("const char* CurrentMethod = \"<constructor>\";");
    w.line("std::ofstream LogFile(" + support::cpp_string_literal(options_.log_file) +
           ", std::ios::app);");
    w.line("if (!LogFile) std::cout << \"Error opening log file! \\n\";");
    w.open("try {");

    for (std::size_t i = 1; i < test_case.calls.size(); ++i) {
        const driver::MethodCall& call = test_case.calls[i];
        if (call.is_destructor) continue;  // emitted as delete below
        const std::string rendered = render_call(call, &hints);
        // Discard (not ignore) returned values: keeps -Wunused-result
        // clean for [[nodiscard]] accessors.
        const tspec::MethodSpec* method = spec_.find_method(call.method_id);
        const bool returns_value = method != nullptr && !method->return_type.empty();
        // Invariant before the call and after its return (Fig. 6).
        w.line("CUT->InvariantTest();");
        w.line("CurrentMethod = " + support::cpp_string_literal(rendered) + ";");
        if (call.expect_rejection) {
            // Error-recovery call: the precondition must fire.
            w.open("try {");
            w.line((returns_value ? "(void)CUT->" : "CUT->") + rendered + ";");
            w.line("LogFile << \"CONTRACT NOT ENFORCED: \" << CurrentMethod "
                   "<< \"\\n\";");
            w.close("} catch (const stc::bit::AssertionViolation&) {");
            w.indent();
            w.line("// expected: the contract rejected the call");
            w.outdent();
            w.line("}");
        } else {
            w.line((returns_value ? "(void)CUT->" : "CUT->") + rendered + ";");
        }
        w.line("CUT->InvariantTest();");
    }

    w.line("LogFile << \"TestCase " + test_case.id + " OK!\\n\";");
    w.line("LogFile.flush();");
    w.line("// store the object's internal state");
    w.line("CUT->Reporter(LogFile);");
    w.line("LogFile << \"\\n\";");
    w.line("delete CUT;");
    w.close("} catch (const std::exception& er) {");
    w.indent();
    w.line("// the name of the called method is stored in the log file");
    w.line("LogFile << \"TestCase " + test_case.id + "\\n\";");
    w.line("LogFile << er.what() << \"\\n\";");
    w.line("LogFile << \"Method called: \" << CurrentMethod << \"\\n\";");
    w.line("LogFile.flush();");
    w.line("delete CUT;");
    w.outdent();
    w.line("}");
    w.line("LogFile.close();");
    w.close("}");
    return w.str();
}

std::string DriverCodegen::suite_source(const driver::TestSuite& suite) const {
    IndentWriter w;
    w.line("// Generated by the Concat Driver Generator.");
    w.line("// Class under test: " + suite.class_name);
    w.line("// Seed: " + std::to_string(suite.seed) + "; test model " +
           std::to_string(suite.model_nodes) + " node(s) / " +
           std::to_string(suite.model_links) + " link(s); " +
           std::to_string(suite.size()) + " test case(s).");
    w.line();
    w.line("#include <fstream>");
    w.line("#include <iostream>");
    for (const auto& inc : options_.includes) {
        w.line("#include " + (inc.front() == '<' ? inc : "\"" + inc + "\""));
    }
    for (const auto& ns : options_.usings) {
        w.line("using namespace " + ns + ";");
    }
    w.line();

    const auto classes = completion_classes(suite);
    if (!classes.empty()) {
        w.line("// Tester-supplied completions for structured parameter types");
        w.line("// (the suite is executable after these are implemented, §3.4.1):");
        for (const auto& cls : classes) {
            w.line(cls + "* tester_supplied_" + cls + "(int hint);");
        }
        w.line();
    }

    for (const auto& tc : suite.cases) {
        w.line(test_case_source(tc));
    }

    // Fig. 7: the executable suite constructs the CUT per test case and
    // applies the test-case functions.
    w.open("int main() {");
    for (const auto& tc : suite.cases) {
        int hints = 0;
        const auto& ctor = tc.calls.front();
        std::string args;
        for (std::size_t i = 0; i < ctor.arguments.size(); ++i) {
            if (i != 0) args += ", ";
            args += render_argument(ctor.arguments[i], &hints);
        }
        w.line("TestCase" + tc.id.substr(2) + "(new " + suite.class_name + "(" + args +
               "));");
    }
    w.line("return 0;");
    w.close("}");
    return w.str();
}

}  // namespace stc::codegen
