#include "stc/oracle/golden_io.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "stc/driver/wire_format.h"
#include "stc/support/strings.h"

namespace stc::oracle {

namespace {

constexpr const char* kMagic = "concat-golden 1";

using driver::wire::decode;
using driver::wire::encode;

}  // namespace

void save_golden(std::ostream& os, const GoldenRecord& golden) {
    os << kMagic << "\n";
    for (const GoldenEntry& e : golden.entries()) {
        os << e.case_id << "|" << to_string(e.verdict) << "|" << encode(e.report)
           << "|" << encode(e.message) << "\n";
    }
}

GoldenRecord load_golden(std::istream& is) {
    std::string line;
    int lineno = 0;
    if (!std::getline(is, line) || line != kMagic) {
        throw Error("not a concat-golden file (bad magic)");
    }
    ++lineno;

    driver::SuiteResult synthetic;
    while (std::getline(is, line)) {
        ++lineno;
        if (support::trim(line).empty()) continue;
        const auto fields = support::split(line, '|');
        if (fields.size() != 4) {
            throw Error("golden line " + std::to_string(lineno) +
                        ": expected 4 '|' separated fields");
        }
        driver::TestResult r;
        r.case_id = fields[0];
        const auto verdict = driver::verdict_from_string(fields[1]);
        if (!verdict) {
            throw Error("golden line " + std::to_string(lineno) +
                        ": unknown verdict '" + fields[1] + "'");
        }
        r.verdict = *verdict;
        r.report = decode(fields[2], lineno);
        r.message = decode(fields[3], lineno);
        synthetic.results.push_back(std::move(r));
    }
    return GoldenRecord::from(synthetic);
}

std::string RegressionReport::summary() const {
    std::ostringstream os;
    os << "regression check: " << cases_compared << " case(s) compared, "
       << findings.size() << " divergence(s), " << cases_missing
       << " missing\n";
    for (const auto& f : findings) {
        os << "  " << f.case_id << ": " << to_string(f.reason) << " (expected "
           << to_string(f.expected) << ", observed " << to_string(f.observed) << ")";
        if (!f.detail.empty()) os << " — " << f.detail;
        os << "\n";
    }
    return os.str();
}

RegressionReport compare_against_golden(const GoldenRecord& golden,
                                        const driver::SuiteResult& observed,
                                        const OracleConfig& config) {
    RegressionReport out;
    for (const GoldenEntry& entry : golden.entries()) {
        const driver::TestResult* result = nullptr;
        for (const auto& r : observed.results) {
            if (r.case_id == entry.case_id) {
                result = &r;
                break;
            }
        }
        if (result == nullptr) {
            ++out.cases_missing;
            continue;
        }
        ++out.cases_compared;

        const KillReason reason = classify(entry, *result, config);
        if (reason == KillReason::None) continue;

        RegressionFinding finding;
        finding.case_id = entry.case_id;
        finding.reason = reason;
        finding.expected = entry.verdict;
        finding.observed = result->verdict;
        if (!result->failed_method.empty()) {
            finding.detail = "method: " + result->failed_method;
        } else if (result->report != entry.report) {
            finding.detail = "observable state differs";
        }
        out.findings.push_back(std::move(finding));
    }
    return out;
}

}  // namespace stc::oracle
