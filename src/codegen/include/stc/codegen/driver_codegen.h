// C++ driver source generation — the paper's actual Concat output.
//
// Concat generated *source code* drivers because C++ has no reflection:
// each test case is a template function (Fig. 6) so it can be reused to
// test a subclass, and the executable suite (Fig. 7) instantiates the
// class under test and applies the test cases.  This module reproduces
// that output format with compilable modern C++:
//   - the class invariant is checked before each call and after return;
//   - calls run in a try block; an assertion violation is logged with
//     the test case name and the method being executed;
//   - Reporter stores the object's internal state in the log file;
//   - structured parameters the tester must complete are emitted as
//     calls to tester_supplied_<Class>(hint) hooks, making the suite
//     "executable after being completed" exactly as §3.4.1 describes.
#pragma once

#include <string>
#include <vector>

#include "stc/driver/test_case.h"
#include "stc/tspec/model.h"

namespace stc::codegen {

struct CodegenOptions {
    /// #include lines to emit (the component's public header(s)).
    std::vector<std::string> includes;
    /// `using namespace ...;` lines to emit after the includes, so the
    /// generated driver resolves the component's types.
    std::vector<std::string> usings;
    /// Log file name used by the generated drivers (Fig. 6 uses
    /// "Result.txt").
    std::string log_file = "Result.txt";
    /// Emit test cases as template functions (Fig. 6) so a subclass can
    /// reuse them; when false, emits plain functions over the concrete
    /// class.
    bool as_templates = true;
};

class DriverCodegen {
public:
    DriverCodegen(tspec::ComponentSpec spec, CodegenOptions options = {});

    /// Source of one test-case function in the Fig. 6 format.
    [[nodiscard]] std::string test_case_source(const driver::TestCase& test_case) const;

    /// Complete translation unit: prologue, tester-completion hook
    /// declarations, all test cases, and the executable suite main()
    /// (Fig. 7).
    [[nodiscard]] std::string suite_source(const driver::TestSuite& suite) const;

    /// The tester-completion hook classes referenced by a suite (one
    /// declaration per structured parameter class).
    [[nodiscard]] std::vector<std::string> completion_classes(
        const driver::TestSuite& suite) const;

private:
    [[nodiscard]] std::string render_argument(const domain::Value& value,
                                              int* hint_counter) const;
    [[nodiscard]] std::string render_call(const driver::MethodCall& call,
                                          int* hint_counter) const;

    tspec::ComponentSpec spec_;  // owned: callers may pass temporaries
    CodegenOptions options_;
};

}  // namespace stc::codegen
