#include "stc/driver/suite_io.h"

#include <istream>
#include <ostream>

#include "stc/driver/wire_format.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"

namespace stc::driver {

namespace {

using wire::decode;
using wire::decode_value;
using wire::encode;
using wire::encode_value;
using wire::parse_number;

constexpr const char* kMagic = "concat-suite 1";

}  // namespace

void save_suite(std::ostream& os, const TestSuite& suite) {
    os << kMagic << "\n";
    os << "class " << suite.class_name << "\n";
    os << "seed " << suite.seed << "\n";
    os << "model " << suite.model_nodes << " " << suite.model_links << " "
       << suite.transactions_enumerated << "\n";
    for (const TestCase& tc : suite.cases) {
        os << "case " << tc.id << "|" << encode(tc.transaction_text) << "|";
        for (std::size_t i = 0; i < tc.transaction.path.size(); ++i) {
            if (i != 0) os << ",";
            os << tc.transaction.path[i];
        }
        os << "|" << (tc.needs_completion ? 1 : 0) << "|" << encode(tc.entry_state)
           << "\n";
        for (const MethodCall& call : tc.calls) {
            os << "call " << call.method_id << "|" << encode(call.method_name) << "|"
               << (call.is_constructor ? 1 : 0) << "|" << (call.is_destructor ? 1 : 0)
               << "|" << (call.expect_rejection ? 1 : 0);
            for (const auto& arg : call.arguments) os << "|" << encode_value(arg);
            os << "\n";
        }
        os << "end\n";
    }
}

TestSuite load_suite(std::istream& is) {
    TestSuite suite;
    std::string line;
    int lineno = 0;

    auto next_line = [&]() -> bool {
        while (std::getline(is, line)) {
            ++lineno;
            if (!support::trim(line).empty()) return true;
        }
        return false;
    };
    auto fail = [&](const std::string& message) -> void {
        throw Error("suite line " + std::to_string(lineno) + ": " + message);
    };

    if (!next_line() || line != kMagic) {
        throw Error("not a concat-suite file (bad magic)");
    }

    TestCase* current = nullptr;
    while (next_line()) {
        if (support::starts_with(line, "class ")) {
            suite.class_name = line.substr(6);
        } else if (support::starts_with(line, "seed ")) {
            suite.seed = parse_number<std::uint64_t>(line.substr(5), lineno);
        } else if (support::starts_with(line, "model ")) {
            const auto fields = support::split(line.substr(6), ' ');
            if (fields.size() != 3) fail("model line needs 3 fields");
            suite.model_nodes = parse_number<std::size_t>(fields[0], lineno);
            suite.model_links = parse_number<std::size_t>(fields[1], lineno);
            suite.transactions_enumerated =
                parse_number<std::size_t>(fields[2], lineno);
        } else if (support::starts_with(line, "case ")) {
            const auto fields = support::split(line.substr(5), '|');
            if (fields.size() != 4 && fields.size() != 5) {
                fail("case line needs 4 or 5 fields");
            }
            TestCase tc;
            tc.id = fields[0];
            tc.transaction_text = decode(fields[1], lineno);
            if (!fields[2].empty()) {
                for (const auto& idx : support::split(fields[2], ',')) {
                    tc.transaction.path.push_back(
                        parse_number<tfm::NodeIndex>(idx, lineno));
                }
            }
            tc.needs_completion = fields[3] == "1";
            if (fields.size() == 5) tc.entry_state = decode(fields[4], lineno);
            suite.cases.push_back(std::move(tc));
            current = &suite.cases.back();
        } else if (support::starts_with(line, "call ")) {
            if (current == nullptr) fail("call outside a case");
            const auto fields = support::split(line.substr(5), '|');
            if (fields.size() < 4) fail("call line needs at least 4 fields");
            MethodCall call;
            call.method_id = fields[0];
            call.method_name = decode(fields[1], lineno);
            call.is_constructor = fields[2] == "1";
            call.is_destructor = fields[3] == "1";
            // Field 4 is the rejection flag ("0"/"1"); argument fields
            // always carry a kind prefix ("I:", ...), so plain "0"/"1"
            // is unambiguous (and keeps pre-flag files loadable).
            std::size_t first_arg = 4;
            if (fields.size() > 4 && (fields[4] == "0" || fields[4] == "1")) {
                call.expect_rejection = fields[4] == "1";
                first_arg = 5;
            }
            for (std::size_t i = first_arg; i < fields.size(); ++i) {
                call.arguments.push_back(decode_value(fields[i], lineno));
            }
            current->calls.push_back(std::move(call));
        } else if (line == "end") {
            current = nullptr;
        } else {
            fail("unrecognized record '" + line + "'");
        }
    }
    return suite;
}

std::size_t recomplete_suite(TestSuite& suite, const CompletionRegistry& completions,
                             std::uint64_t seed) {
    support::Pcg32 rng(seed);
    std::size_t completed = 0;
    for (TestCase& tc : suite.cases) {
        bool pending = false;
        for (MethodCall& call : tc.calls) {
            for (auto& arg : call.arguments) {
                if (arg.kind() != domain::ValueKind::Pointer || arg.as_pointer() != nullptr) {
                    continue;
                }
                const std::string& cls = arg.as_object().type_name;
                const auto* completion = completions.find(cls);
                if (completion != nullptr && *completion) {
                    arg = (*completion)(rng);
                    ++completed;
                } else {
                    pending = true;
                }
            }
        }
        tc.needs_completion = pending;
    }
    return completed;
}

}  // namespace stc::driver
