// In-process test execution.
//
// Runs a generated TestSuite against the component under test through
// the reflection bindings, reproducing the control structure of the
// paper's generated driver (Fig. 6): activate test mode, create the CUT
// with the transaction's constructor, check the class invariant before
// each method call and after its return, call Reporter to store the
// object's internal state, destroy the CUT, and convert any exception
// (assertion violation, simulated crash, ...) into a recorded verdict
// with the name of the method that was executing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stc/bit/assertions.h"
#include "stc/driver/lockstep.h"
#include "stc/driver/test_case.h"
#include "stc/obs/context.h"
#include "stc/reflect/class_binding.h"

namespace stc::driver {

/// Outcome of one test case.  The first three map onto the paper's kill
/// conditions for mutation analysis (§4): crash, assertion violation,
/// output difference (the latter judged later by an oracle against a
/// golden run — a runner alone can only report Pass).
enum class Verdict {
    Pass,
    AssertionViolation,  ///< BIT assertion raised (paper kill condition ii)
    Crash,               ///< CrashSignal: would have crashed the process (i)
    UncaughtException,   ///< any other exception escaping the CUT
    SetupError,          ///< constructor/binding failure before the test body
    ContractNotEnforced, ///< a negative call was ACCEPTED: the component
                         ///< failed to reject an out-of-contract input
    ModelDivergence,     ///< the run disagreed with the lockstep reference
                         ///< model (only with RunnerOptions::promote_divergence;
                         ///< campaigns keep divergence as a side channel)
    IllegalQuiescence,   ///< ioco: a call that must produce an observable
                         ///< output was silently absorbed (assembly-level
                         ///< bit::QuiescenceViolation)
};

[[nodiscard]] const char* to_string(Verdict v) noexcept;

/// Inverse of to_string; std::nullopt for unknown text.  Used by the
/// fuzz corpus loader to rehydrate recorded verdicts and by the
/// exhaustive round-trip tests.
[[nodiscard]] std::optional<Verdict> verdict_from_string(
    std::string_view text) noexcept;

/// All verdict values, for exhaustive iteration (round-trip tests,
/// reporters that must not silently drop a kind).
inline constexpr Verdict kAllVerdicts[] = {
    Verdict::Pass,       Verdict::AssertionViolation,
    Verdict::Crash,      Verdict::UncaughtException,
    Verdict::SetupError, Verdict::ContractNotEnforced,
    Verdict::ModelDivergence, Verdict::IllegalQuiescence,
};

struct TestResult {
    std::string case_id;
    Verdict verdict = Verdict::Pass;
    std::string message;         ///< failure text (er.msg in Fig. 6)
    std::string failed_method;   ///< "Method called: ..." in Fig. 6
    std::optional<bit::AssertionKind> assertion_kind;
    std::string report;          ///< Reporter output (observable state)
    std::string log;             ///< per-case log in the Fig. 6 format
    /// First disagreement with the lockstep reference model, when one
    /// was attached ("call 3 RemoveHead(): return expected ... got ...");
    /// empty otherwise.  A side channel: never part of report/log, so a
    /// run with a model attached produces byte-identical reports to one
    /// without — the differential oracle compares this field against
    /// the golden baseline's.
    std::string model_divergence;

    [[nodiscard]] bool passed() const noexcept { return verdict == Verdict::Pass; }
};

struct SuiteResult {
    std::vector<TestResult> results;
    std::string log;  ///< concatenation — the "Result.txt" of Fig. 6

    [[nodiscard]] std::size_t count(Verdict v) const noexcept;
    [[nodiscard]] std::size_t passed() const noexcept { return count(Verdict::Pass); }
    [[nodiscard]] std::size_t failed() const noexcept {
        return results.size() - passed();
    }
};

/// Observation hook announcing test-case call boundaries.  Implemented
/// by stc::mutation's coverage recorder: together with the mutation
/// layer's site sink it turns one golden run into a CoverageIndex keyed
/// by (test case, mutation site, first-hit call index).
///
/// Call-index convention: construction and the optional entry-state
/// application are index 0; body call `i` is `test_case.calls[i]`
/// (1-based, calls[0] being the constructor); the implicit wrap-up
/// destruction is index calls.size().
class CaseObserver {
public:
    virtual void on_case_begin(const TestCase& test_case) = 0;
    /// Entering call index `call_index` (fires before the call executes).
    virtual void on_call(std::size_t call_index) = 0;

protected:
    ~CaseObserver() = default;
};

/// Snapshot of a test case's execution front just before body call
/// `resume_call`: a behavioural copy of the CUT, the observation stream
/// accumulated so far, and the lockstep model's state.  Produced by
/// TestRunner::capture_case on the un-mutated component; consumed by
/// run_case_from, which replays only the suffix.  The campaign's
/// prefix memoization captures one ladder of these per case, the first
/// time a mutant runs it, and resumes every later mutant from it
/// (stc/mutation/prune.h); the kill search keeps one per frontier state
/// (stc/kill/search.h).
struct CaseCheckpoint {
    std::size_t resume_call = 0;
    std::shared_ptr<void> prototype;  ///< destroyed through the class binding
    std::string observations;         ///< observation log up to resume_call
    /// Lockstep model state at resume_call: a clone of the model while it
    /// is still engaged, null when none is attached or it disengaged
    /// (an unmodeled call, or after the first divergence).
    std::shared_ptr<const LockstepModel> model;
    std::string model_divergence;  ///< first divergence before resume_call
    std::string diverged_method;   ///< the call that diverged, rendered
};

struct RunnerOptions {
    bool observe_each_call = false; ///< additionally capture state after every call
    /// Lockstep reference model (stc::model): when set and valid, every
    /// test case mirrors its calls into a fresh model instance and
    /// records the first divergence in TestResult::model_divergence.
    /// Observation is read-only on the CUT, so attaching a model never
    /// changes verdicts, reports, or mutation hit tracking.  Non-owning;
    /// must outlive the runner.
    const ModelBinding* model = nullptr;
    /// Promote a divergence on an otherwise-PASSING case to
    /// Verdict::ModelDivergence (failed_method = the diverging call,
    /// message = the divergence).  Used by the fuzz/run paths, where
    /// verdicts are the signal; campaigns leave this off and classify
    /// the side channel differentially instead.
    bool promote_divergence = false;
    /// Observability: suite/test-case/method-call spans, verdict,
    /// assertion and invariant-check counters, per-case latency.  Disabled by
    /// default at near-zero cost; safe to share across runner copies on
    /// worker threads.
    obs::Context obs;
    /// Per-call progress hook for coverage capture.  A run_case_from
    /// resume fires on_case_begin and then on_call for the calls it
    /// executes only (resume_call onwards).  Non-owning; must outlive the
    /// runner.
    CaseObserver* observer = nullptr;
};

/// Executes test suites against registered class bindings.
class TestRunner {
public:
    explicit TestRunner(const reflect::Registry& registry, RunnerOptions options = {});

    [[nodiscard]] SuiteResult run(const TestSuite& suite) const;
    [[nodiscard]] TestResult run_case(const reflect::ClassBinding& binding,
                                      const TestCase& test_case) const;

    /// Run `test_case` un-mutated, capturing a CaseCheckpoint just before
    /// each body call index in `boundaries` (sorted ascending, each in
    /// [1, calls.size()]; calls.size() is the implicit wrap-up).  The run
    /// stops right after the last checkpoint: nothing past it executes.
    /// Capture stops early when the case fails, a boundary lies past an
    /// explicit destructor, or a clone refuses; the returned vector holds
    /// whatever was captured.  Returns empty when the class has no
    /// cloner.
    [[nodiscard]] std::vector<CaseCheckpoint> capture_case(
        const reflect::ClassBinding& binding, const TestCase& test_case,
        const std::vector<std::size_t>& boundaries) const;

    /// capture_case and run_case in one execution: the result of the full
    /// run plus the checkpoints it captured.  A non-null `from` resumes there
    /// as in run_case_from (boundaries then lie past its resume_call).
    struct CapturedRun {
        TestResult result;
        std::vector<CaseCheckpoint> checkpoints;
    };
    [[nodiscard]] CapturedRun run_and_capture(
        const reflect::ClassBinding& binding, const TestCase& test_case,
        const std::vector<std::size_t>& boundaries,
        const CaseCheckpoint* from) const;

    /// Replay only the suffix of `test_case` from `checkpoint`; only
    /// calls[checkpoint.resume_call..] are read.  The result is
    /// byte-identical to run_case whenever execution up to
    /// checkpoint.resume_call is equivalent to the capture run — the
    /// pruned campaign evaluator guarantees that through the coverage
    /// index (no mutation site of the active mutant is consulted before
    /// resume_call).  The model lockstep continues from the checkpoint's
    /// model state, so a checkpoint captured with the same RunnerOptions
    /// gives the same model_divergence as a full run.  A clone failure
    /// propagates as ReflectError: callers fall back to a full run_case.
    [[nodiscard]] TestResult run_case_from(
        const reflect::ClassBinding& binding, const TestCase& test_case,
        const CaseCheckpoint& checkpoint) const;

private:
    TestResult run_case_impl(const reflect::ClassBinding& binding,
                             const TestCase& test_case,
                             const CaseCheckpoint* resume,
                             const std::vector<std::size_t>* boundaries,
                             std::vector<CaseCheckpoint>* captured,
                             bool capture_only) const;

    const reflect::Registry& registry_;
    RunnerOptions options_;
};

}  // namespace stc::driver
