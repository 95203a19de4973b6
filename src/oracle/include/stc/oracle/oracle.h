// Oracles — deciding whether an observed run differs from the expected
// behaviour.
//
// The paper uses assertions as a *partial* oracle, complemented by
// manually derived oracles and, for the mutation experiments (§4), a
// comparison of program outputs against the original program's outputs
// "validated by hand before experiments began".  We model the latter as
// a GoldenRecord captured from a baseline run; kill classification then
// mirrors the paper's three conditions:
//   (i)   the program crashed while running the test cases,
//   (ii)  an exception was raised due to assertion violation (and the
//         original program did not raise one), or
//   (iii) the output differs from the original program's output.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stc/driver/runner.h"
#include "stc/obs/context.h"

namespace stc::oracle {

/// Expected behaviour of one test case, captured from the original
/// (unmutated) component.
struct GoldenEntry {
    std::string case_id;
    driver::Verdict verdict = driver::Verdict::Pass;
    std::string report;   ///< Reporter output (observable object state)
    std::string message;  ///< failure message, if the baseline itself failed
    /// Reference-model divergence recorded by the baseline run, when a
    /// lockstep model was attached (normally empty: the unmutated
    /// component conforms).  Lets the differential channel require a
    /// divergence the original did NOT show, mirroring condition (ii).
    std::string model_divergence;
};

/// Baseline behaviour of a whole suite.
class GoldenRecord {
public:
    GoldenRecord() = default;

    /// Capture from a baseline SuiteResult.
    static GoldenRecord from(const driver::SuiteResult& baseline);

    [[nodiscard]] const GoldenEntry* find(const std::string& case_id) const;
    /// The entry of the case at `position` in the suite the baseline ran,
    /// when its id is `case_id`; otherwise find(case_id).  Constant time
    /// for a record captured from that suite, where find() scans.
    [[nodiscard]] const GoldenEntry* find(std::size_t position,
                                          const std::string& case_id) const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] const std::vector<GoldenEntry>& entries() const noexcept {
        return entries_;
    }

    /// True when the baseline is clean (every case passed) — the paper's
    /// precondition for the mutation experiments.
    [[nodiscard]] bool all_passed() const noexcept;

private:
    std::vector<GoldenEntry> entries_;
};

/// Why a difference was detected (also: why a mutant was killed).
enum class KillReason {
    None,
    Crash,
    Assertion,
    IllegalQuiescence,  ///< ioco: an output obligation was silently absorbed
                        ///< (assembly-level quiescence BIT, stc::assembly)
    ModelDivergence,    ///< lockstep reference model disagreed (stc::model)
    OutputDiff,
    ManualOracle,
};

/// All kill reasons, for exhaustive iteration (round-trip tests,
/// reporters that must render zero-count rows rather than silently
/// dropping a kind).
inline constexpr KillReason kAllKillReasons[] = {
    KillReason::None,          KillReason::Crash,
    KillReason::Assertion,     KillReason::IllegalQuiescence,
    KillReason::ModelDivergence, KillReason::OutputDiff,
    KillReason::ManualOracle,
};

[[nodiscard]] const char* to_string(KillReason reason) noexcept;

/// Inverse of to_string; std::nullopt for unknown text (campaign
/// result-store rehydration).
[[nodiscard]] std::optional<KillReason> kill_reason_from_string(
    std::string_view text) noexcept;

/// Which detection channels are active.  The ablation bench toggles
/// these to reproduce the paper's observation that assertions alone are
/// not an effective oracle (they contributed 59 of 652 kills).
struct OracleConfig {
    bool use_crashes = true;
    bool use_assertions = true;
    bool use_output_diff = true;
    /// Differential channel: a run whose TestResult::model_divergence is
    /// non-empty while the golden baseline's is empty kills with
    /// KillReason::ModelDivergence.  On by default but vacuous unless a
    /// lockstep model was attached to the runner (without one the
    /// divergence strings are always empty).  Toggled off for the
    /// "without the model" leg of the oracle-strength comparison.
    bool use_model = true;
};

/// A manually derived oracle (paper §3.3: "manually derived oracles are
/// also used in complement"): inspects the observed report and returns
/// false when the state is wrong even though no assertion fired.
using ManualPredicate =
    std::function<bool(const std::string& case_id, const std::string& report)>;

/// Compare one observed result against its golden entry.
[[nodiscard]] KillReason classify(const GoldenEntry& golden,
                                  const driver::TestResult& observed,
                                  const OracleConfig& config = {},
                                  const ManualPredicate& manual = {});

/// Compare a whole suite run; returns the first (strongest) kill reason
/// across cases, in order Crash > Assertion > IllegalQuiescence >
/// ModelDivergence > OutputDiff > ManualOracle.
/// The observability context, when enabled, records an "oracle-compare"
/// span plus oracle.suite_compares / oracle.kill.<reason> counters.
[[nodiscard]] KillReason classify_suite(const GoldenRecord& golden,
                                        const driver::SuiteResult& observed,
                                        const OracleConfig& config = {},
                                        const ManualPredicate& manual = {},
                                        const obs::Context& obs = {});

/// One observed run, classified twice: once with the model channel and
/// once without it, over the SAME SuiteResult (classification is a pure
/// function of the observation, so no second execution is needed).
/// `model_only` is the oracle-strength signal of the paper-style
/// Table 2 comparison: the run was killed WITH the reference model but
/// would have survived the assertion/crash/output oracle alone.
struct DifferentialKill {
    KillReason with_model = KillReason::None;
    KillReason without_model = KillReason::None;

    [[nodiscard]] bool model_only() const noexcept {
        return with_model != KillReason::None &&
               without_model == KillReason::None;
    }
};

/// Classify `observed` with `config` as given (model channel per
/// config.use_model) and again with use_model forced off.
[[nodiscard]] DifferentialKill classify_suite_differential(
    const GoldenRecord& golden, const driver::SuiteResult& observed,
    const OracleConfig& config = {}, const ManualPredicate& manual = {},
    const obs::Context& obs = {});

/// The incremental form of both suite classifications: results are
/// folded in one at a time, each against its golden entry, keeping the
/// strongest reason per leg.  classify_suite is the fold's with_model
/// leg and classify_suite_differential both legs, over the results in
/// suite order.  An evaluator that classifies while it executes can stop
/// running cases once the fold is saturated.
class DifferentialFold {
public:
    explicit DifferentialFold(const OracleConfig& config = {},
                              ManualPredicate manual = {});

    /// Fold in one observed result against its golden entry.
    void add(const GoldenEntry& golden, const driver::TestResult& observed);

    /// No further result can change either leg: both are Crash, the
    /// strongest reason.  Never true with config.use_crashes off.
    [[nodiscard]] bool saturated() const noexcept {
        return kill_.with_model == KillReason::Crash &&
               kill_.without_model == KillReason::Crash;
    }

    [[nodiscard]] const DifferentialKill& kill() const noexcept { return kill_; }

    /// Count this classification on `obs` as classify_suite does
    /// (oracle.suite_compares, oracle.kill.<with_model>) and, when
    /// `differential`, as classify_suite_differential does (plus
    /// oracle.kill.model_only for a model-only kill).
    void record(const obs::Context& obs, bool differential) const;

private:
    OracleConfig config_;
    OracleConfig without_model_;
    ManualPredicate manual_;
    DifferentialKill kill_;
};

}  // namespace stc::oracle
