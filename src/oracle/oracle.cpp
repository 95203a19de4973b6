#include "stc/oracle/oracle.h"

#include <utility>

namespace stc::oracle {

GoldenRecord GoldenRecord::from(const driver::SuiteResult& baseline) {
    GoldenRecord out;
    out.entries_.reserve(baseline.results.size());
    for (const auto& r : baseline.results) {
        out.entries_.push_back(GoldenEntry{r.case_id, r.verdict, r.report,
                                           r.message, r.model_divergence});
    }
    return out;
}

const GoldenEntry* GoldenRecord::find(const std::string& case_id) const {
    for (const auto& e : entries_) {
        if (e.case_id == case_id) return &e;
    }
    return nullptr;
}

const GoldenEntry* GoldenRecord::find(std::size_t position,
                                      const std::string& case_id) const {
    if (position < entries_.size() && entries_[position].case_id == case_id) {
        return &entries_[position];
    }
    return find(case_id);
}

bool GoldenRecord::all_passed() const noexcept {
    for (const auto& e : entries_) {
        if (e.verdict != driver::Verdict::Pass) return false;
    }
    return true;
}

const char* to_string(KillReason reason) noexcept {
    switch (reason) {
        case KillReason::None: return "alive";
        case KillReason::Crash: return "crash";
        case KillReason::Assertion: return "assertion";
        case KillReason::IllegalQuiescence: return "illegal-quiescence";
        case KillReason::ModelDivergence: return "model-divergence";
        case KillReason::OutputDiff: return "output-diff";
        case KillReason::ManualOracle: return "manual-oracle";
    }
    return "?";
}

std::optional<KillReason> kill_reason_from_string(std::string_view text) noexcept {
    for (const KillReason reason : kAllKillReasons) {
        if (text == to_string(reason)) return reason;
    }
    return std::nullopt;
}

KillReason classify(const GoldenEntry& golden, const driver::TestResult& observed,
                    const OracleConfig& config, const ManualPredicate& manual) {
    using driver::Verdict;

    // (i) the program crashed while running the test cases.
    if (config.use_crashes && observed.verdict == Verdict::Crash &&
        golden.verdict != Verdict::Crash) {
        return KillReason::Crash;
    }

    // (ii) an assertion violation that the original program did not raise.
    if (config.use_assertions && observed.verdict == Verdict::AssertionViolation &&
        golden.verdict != Verdict::AssertionViolation) {
        return KillReason::Assertion;
    }

    // (ii'') ioco illegal quiescence: an output obligation was silently
    // absorbed while the original emitted.  Like an assertion it fires
    // inside the (assembly-level) built-in test, but the signal is the
    // *absence* of an output, so it ranks just below a violated contract.
    if (observed.verdict == Verdict::IllegalQuiescence &&
        golden.verdict != Verdict::IllegalQuiescence) {
        return KillReason::IllegalQuiescence;
    }

    // (ii') the run diverged from the lockstep reference model while the
    // original conformed — the differential channel (stc::model).
    if (config.use_model && !observed.model_divergence.empty() &&
        golden.model_divergence.empty()) {
        return KillReason::ModelDivergence;
    }

    // (iii) the output of the finished program differs from the original's.
    if (config.use_output_diff) {
        if (observed.verdict != golden.verdict || observed.report != golden.report) {
            return KillReason::OutputDiff;
        }
    }

    // Complementary manually derived oracle over the observable state.
    if (manual && observed.verdict == Verdict::Pass &&
        !manual(observed.case_id, observed.report)) {
        return KillReason::ManualOracle;
    }

    return KillReason::None;
}

namespace {

/// Kill-reason precedence: Crash > Assertion > IllegalQuiescence >
/// ModelDivergence > OutputDiff > ManualOracle.  The differential
/// channel sits between the paper's conditions (ii) and (iii): stronger
/// than a bare output difference (it pinpoints the first wrong call),
/// weaker than an embedded assertion (which fires inside the component
/// itself).  Illegal quiescence sits directly below Assertion: it also
/// fires inside a built-in test, but detects a *missing* output rather
/// than a violated predicate.
int strength(KillReason r) noexcept {
    switch (r) {
        case KillReason::Crash: return 6;
        case KillReason::Assertion: return 5;
        case KillReason::IllegalQuiescence: return 4;
        case KillReason::ModelDivergence: return 3;
        case KillReason::OutputDiff: return 2;
        case KillReason::ManualOracle: return 1;
        case KillReason::None: return 0;
    }
    return 0;
}

}  // namespace

DifferentialFold::DifferentialFold(const OracleConfig& config,
                                   ManualPredicate manual)
    : config_(config), without_model_(config), manual_(std::move(manual)) {
    without_model_.use_model = false;
}

void DifferentialFold::add(const GoldenEntry& golden,
                           const driver::TestResult& observed) {
    const KillReason with = classify(golden, observed, config_, manual_);
    // The legs differ only in the model check, so they can disagree only
    // where it fired: any other verdict is reached identically without it.
    const KillReason sans =
        with == KillReason::ModelDivergence
            ? classify(golden, observed, without_model_, manual_)
            : with;
    if (strength(with) > strength(kill_.with_model)) kill_.with_model = with;
    if (strength(sans) > strength(kill_.without_model)) kill_.without_model = sans;
}

void DifferentialFold::record(const obs::Context& obs, bool differential) const {
    if (!obs.metrics.enabled()) return;
    obs.metrics.add("oracle.suite_compares");
    obs.metrics.add(std::string("oracle.kill.") + to_string(kill_.with_model));
    if (differential && kill_.model_only()) {
        obs.metrics.add("oracle.kill.model_only");
    }
}

namespace {

/// Fold `observed` in suite order, stopping once nothing can change.
/// Results of cases the baseline did not run are skipped: there is
/// nothing to compare them against.
DifferentialFold fold_suite(const GoldenRecord& golden,
                            const driver::SuiteResult& observed,
                            const OracleConfig& config,
                            const ManualPredicate& manual) {
    DifferentialFold fold(config, manual);
    for (std::size_t i = 0; i < observed.results.size() && !fold.saturated(); ++i) {
        const driver::TestResult& result = observed.results[i];
        const GoldenEntry* entry = golden.find(i, result.case_id);
        if (entry != nullptr) fold.add(*entry, result);
    }
    return fold;
}

}  // namespace

KillReason classify_suite(const GoldenRecord& golden,
                          const driver::SuiteResult& observed,
                          const OracleConfig& config, const ManualPredicate& manual,
                          const obs::Context& obs) {
    const obs::SpanScope span(obs.tracer, "oracle-compare", "classify-suite");
    const DifferentialFold fold = fold_suite(golden, observed, config, manual);
    fold.record(obs, false);
    return fold.kill().with_model;
}

DifferentialKill classify_suite_differential(const GoldenRecord& golden,
                                             const driver::SuiteResult& observed,
                                             const OracleConfig& config,
                                             const ManualPredicate& manual,
                                             const obs::Context& obs) {
    const obs::SpanScope span(obs.tracer, "oracle-compare",
                              "classify-suite-differential");
    const DifferentialFold fold = fold_suite(golden, observed, config, manual);
    fold.record(obs, true);
    return fold.kill();
}

}  // namespace stc::oracle
