#include "stc/mutation/report.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "stc/support/strings.h"
#include "stc/support/table.h"

namespace stc::mutation {

const Tally MutationTable::kEmpty{};

void Tally::add(const MutantOutcome& outcome) {
    ++total;
    if (outcome.fate == MutantFate::Killed) ++killed;
    if (outcome.fate == MutantFate::EquivalentPresumed) ++equivalent;
}

double Tally::score() const noexcept {
    const std::size_t denom = total - equivalent;
    if (denom == 0) return 1.0;
    return static_cast<double>(killed) / static_cast<double>(denom);
}

MutationTable MutationTable::build(const MutationRun& run) {
    MutationTable out;
    for (const auto& outcome : run.outcomes) {
        const std::string method = outcome.mutant->method->method_name();
        if (std::find(out.methods_.begin(), out.methods_.end(), method) ==
            out.methods_.end()) {
            out.methods_.push_back(method);
        }
        out.cells_[{method, outcome.mutant->op}].add(outcome);
    }
    return out;
}

const Tally& MutationTable::cell(const std::string& method, Operator op) const {
    const auto it = cells_.find({method, op});
    return it == cells_.end() ? kEmpty : it->second;
}

Tally MutationTable::column_total(Operator op) const {
    Tally out;
    for (const auto& m : methods_) {
        const Tally& c = cell(m, op);
        out.total += c.total;
        out.killed += c.killed;
        out.equivalent += c.equivalent;
    }
    return out;
}

Tally MutationTable::row_total(const std::string& method) const {
    Tally out;
    for (Operator op : kExtendedOperators) {
        const Tally& c = cell(method, op);
        out.total += c.total;
        out.killed += c.killed;
        out.equivalent += c.equivalent;
    }
    return out;
}

Tally MutationTable::grand_total() const {
    Tally out;
    for (Operator op : kExtendedOperators) {
        const Tally c = column_total(op);
        out.total += c.total;
        out.killed += c.killed;
        out.equivalent += c.equivalent;
    }
    return out;
}

std::vector<Operator> MutationTable::columns() const {
    // Paper operators always show; DirVar columns appear only when used.
    std::vector<Operator> out(kAllOperators.begin(), kAllOperators.end());
    for (Operator op : kDirVarOperators) {
        if (column_total(op).total > 0) out.push_back(op);
    }
    return out;
}

void MutationTable::render(std::ostream& os, const MutationRun& run) const {
    const std::vector<Operator> cols = columns();
    std::vector<std::string> header{"Method"};
    for (Operator op : cols) header.emplace_back(to_string(op));
    header.emplace_back("Total");

    support::TextTable table(header);
    for (const auto& method : methods_) {
        std::vector<std::string> row{method};
        for (Operator op : cols) {
            row.push_back(std::to_string(cell(method, op).total));
        }
        row.push_back(std::to_string(row_total(method).total));
        table.add_row(std::move(row));
    }

    auto footer = [&](const std::string& label, auto getter) {
        std::vector<std::string> row{label};
        for (Operator op : cols) row.push_back(getter(column_total(op)));
        row.push_back(getter(grand_total()));
        table.add_footer(std::move(row));
    };
    footer("#mutants", [](const Tally& t) { return std::to_string(t.total); });
    footer("#killed", [](const Tally& t) { return std::to_string(t.killed); });
    footer("#equivalent", [](const Tally& t) { return std::to_string(t.equivalent); });
    footer("Score", [](const Tally& t) { return support::percent(t.score()); });

    table.render(os);

    os << "kills by reason:";
    const char* separator = " ";
    for (const oracle::KillReason reason : oracle::kAllKillReasons) {
        if (reason == oracle::KillReason::None) continue;
        os << separator << oracle::to_string(reason) << '=' << run.kills_by(reason);
        separator = "  ";
    }
    os << "\n";
    os << "oracle strength: killed-only-by-model=" << run.kills_model_only()
       << "\n";

    std::size_t not_covered = 0;
    std::size_t killed_by_probe = 0;
    for (const auto& o : run.outcomes) {
        not_covered += o.fate == MutantFate::NotCovered ? 1 : 0;
        killed_by_probe += o.killed_by_probe ? 1 : 0;
    }
    os << "survivors: not-covered=" << not_covered
       << "  killable-but-missed=" << killed_by_probe
       << "  presumed-equivalent=" << run.equivalent() << "\n";
    // Only after a kill pass raised fates — absent otherwise, keeping
    // every pre-synthesis report byte-identical.
    if (run.kills_synthesized() > 0) {
        os << "raised by synthesis: " << run.kills_synthesized() << "\n";
    }
}

void MutationTable::render_csv(std::ostream& os) const {
    support::CsvWriter csv(os);
    csv.row({"method", "operator", "mutants", "killed", "equivalent", "score"});
    for (const auto& method : methods_) {
        for (Operator op : kExtendedOperators) {
            const Tally& c = cell(method, op);
            if (c.total == 0) continue;
            csv.row({method, to_string(op), std::to_string(c.total),
                     std::to_string(c.killed), std::to_string(c.equivalent),
                     std::to_string(c.score())});
        }
    }
}

void MutationTable::render_assertion_guidance(std::ostream& os,
                                               const MutationRun& run) {
    struct PerMethod {
        std::size_t killed = 0;
        std::size_t by_assertion = 0;
        std::size_t by_crash = 0;
    };
    std::map<std::string, PerMethod> methods;
    for (const auto& o : run.outcomes) {
        if (o.fate != MutantFate::Killed) continue;
        auto& m = methods[o.mutant->method->qualified_name()];
        ++m.killed;
        m.by_assertion += o.reason == oracle::KillReason::Assertion ? 1 : 0;
        m.by_crash += o.reason == oracle::KillReason::Crash ? 1 : 0;
    }

    support::TextTable table(
        {"Method", "kills", "via assertion", "via crash", "assertion share"});
    table.set_align(0, support::Align::Left);
    for (const auto& [name, m] : methods) {
        const double share = m.killed == 0
                                 ? 0.0
                                 : static_cast<double>(m.by_assertion) /
                                       static_cast<double>(m.killed);
        table.add_row({name, std::to_string(m.killed),
                       std::to_string(m.by_assertion), std::to_string(m.by_crash),
                       support::percent(share)});
    }
    table.render(os);
    os << "(methods with a low assertion share rely on the golden-output "
          "oracle; §5's ASSERT++ would point the producer at them for "
          "additional embedded assertions)\n";
}

void render_campaign_report(std::ostream& os, const MutationRun& run,
                            const std::string& class_name, std::size_t cases,
                            std::uint64_t seed) {
    os << "campaign: " << class_name << ", " << run.outcomes.size()
       << " mutant(s), " << cases << " case(s), seed " << seed << "\n"
       << "baseline clean: " << (run.baseline_clean ? "yes" : "no") << "\n\n";
    for (const auto& outcome : run.outcomes) {
        os << outcome.mutant->id() << "  " << to_string(outcome.fate);
        if (outcome.fate == MutantFate::Killed) {
            os << "  [" << oracle::to_string(outcome.reason) << "]";
            // The oracle-strength marker: the base oracle alone would
            // have let this mutant survive.  Only ever set under a
            // model oracle, so model-less reports are byte-unchanged.
            if (outcome.model_only) os << "  (model-only)";
            // Killed by a post-campaign synthesized test (stc::kill),
            // not by the generated suite.  Only ever set by a kill
            // pass, so pre-kill reports are byte-unchanged.
            if (outcome.synthesized) os << "  (synthesized)";
        }
        // Sandbox termination kind, set only for items whose isolated
        // worker died — absent everywhere else, so in-process,
        // isolated, and dispatched reports stay byte-identical for
        // non-crashing mutants.
        if (!outcome.sandbox.empty()) os << "  {" << outcome.sandbox << "}";
        os << "\n";
    }
    os << "\n";
    const MutationTable table = MutationTable::build(run);
    table.render(os, run);
    os << "\nscore: " << support::percent(run.score())
       << "  (covered-only: " << support::percent(run.covered_score()) << ")\n";
}

}  // namespace stc::mutation
