// Mutation-analysis engine.
//
// Reproduces the experimental procedure of §4: run the generated test
// suite against the original component to record its (hand-validated in
// the paper, golden here) outputs, then activate each mutant in turn and
// re-run the suite.  A mutant is killed when
//   (i)   the run crashed (StructuralFault / CrashSignal),
//   (ii)  an assertion violation was raised that the original did not
//         raise, or
//   (iii) the finished program's output differs from the original's.
//
// Equivalence: undecidable; the paper marked equivalents by manual
// analysis of surviving mutants.  Substitution: surviving mutants are
// re-tried against an optional amplified *probe* suite (more cases per
// transaction, every call observed).  Survivors that the probe also
// fails to kill — although executing the mutated site — are presumed
// equivalent; survivors whose site was never reached are reported as
// not-covered (counted alive, lowering the score honestly).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/mutant.h"
#include "stc/oracle/oracle.h"

namespace stc::mutation {

/// Final classification of one mutant after the run.
enum class MutantFate {
    Killed,
    Alive,                ///< survived, though probe-covered or probe-killed
    EquivalentPresumed,   ///< survived suite AND probe while being executed
    NotCovered,           ///< the mutated site was never reached by the suite
};

[[nodiscard]] const char* to_string(MutantFate fate) noexcept;

/// Inverse of to_string; std::nullopt for unknown text.  Used by the
/// campaign result store to rehydrate persisted outcomes.
[[nodiscard]] std::optional<MutantFate> fate_from_string(
    std::string_view text) noexcept;

struct MutantOutcome {
    const Mutant* mutant = nullptr;
    MutantFate fate = MutantFate::Alive;
    oracle::KillReason reason = oracle::KillReason::None;  ///< when Killed
    bool hit_by_suite = false;
    bool killed_by_probe = false;  ///< alive on the suite, killable in principle
    /// Killed only because the reference model diverged: the
    /// assertion/crash/output-diff oracle alone would have let this
    /// mutant survive the suite (oracle::DifferentialKill::model_only).
    /// Always false for non-killed fates and for runs without a model
    /// binding, so legacy stores rehydrate unchanged.
    bool model_only = false;
    /// How the sandbox terminated this item, when it did not finish
    /// normally: "crash-signal:<n>", "timeout", "resource-limit" or
    /// "worker-exit:<c>" (stc::sandbox, docs/FORMATS.md §8).  Empty for
    /// every in-process evaluation and for isolated mutants that ran to
    /// completion — so the field never perturbs the determinism
    /// contract between in-process and isolated runs.
    std::string sandbox;
    /// Killed by a test case `stc::kill` synthesized AFTER the campaign
    /// (bounded reachability over the TFM x reference-model product),
    /// not by the generated suite.  Always false for outcomes the
    /// engine itself produces; set only when a kill pass rewrites the
    /// result store, so pre-kill reports are byte-unchanged.
    bool synthesized = false;
};

struct EngineOptions {
    driver::RunnerOptions runner{};
    oracle::OracleConfig oracle{};
    oracle::ManualPredicate manual_oracle{};
    /// Observability: "mutant-evaluation" spans, mutation.fate.<fate>
    /// counters and a mutation.eval_ms latency histogram, plus the
    /// oracle's own instruments.  Disabled by default.  Note: the
    /// campaign scheduler overwrites this (and runner.obs) with its
    /// campaign-level context.
    obs::Context obs{};
};

/// Aggregated result of one mutation-analysis run.
struct MutationRun {
    std::vector<MutantOutcome> outcomes;
    oracle::GoldenRecord golden;
    bool baseline_clean = false;  ///< every baseline case passed

    [[nodiscard]] std::size_t total() const noexcept { return outcomes.size(); }
    [[nodiscard]] std::size_t killed() const noexcept;
    [[nodiscard]] std::size_t equivalent() const noexcept;
    [[nodiscard]] std::size_t not_covered() const noexcept;
    [[nodiscard]] std::size_t kills_by(oracle::KillReason reason) const noexcept;

    /// Mutants the reference model alone killed — the oracle-strength
    /// headline: how much the differential oracle adds over the
    /// assertion/crash/output-diff detectors (docs/GUIDE.md §8).
    [[nodiscard]] std::size_t kills_model_only() const noexcept;

    /// Mutants killed by post-campaign killer synthesis (stc::kill) —
    /// the "raised by synthesis: N" line of the campaign report.
    [[nodiscard]] std::size_t kills_synthesized() const noexcept;

    /// The paper's mutation score: killed / (total - equivalent).
    /// NaN-free: returns 1.0 when no non-equivalent mutants exist.
    ///
    /// Deliberate choice: NotCovered mutants stay IN the denominator —
    /// a suite that never reaches a mutated site has not earned credit
    /// for it, so a run where every mutant is not-covered scores 0, not
    /// 1 (the honest reading of the paper's formula).  Use
    /// covered_score() for the complementary question.
    [[nodiscard]] double score() const noexcept;

    /// Adequacy over the *reached* population only:
    /// killed / (total - equivalent - not_covered).  Separates "the
    /// suite checks too little" (low covered_score) from "the suite
    /// reaches too little" (high not_covered count).  Returns 1.0 when
    /// no reached, non-equivalent mutants exist — e.g. the all-
    /// not-covered run that score() reports as 0.
    [[nodiscard]] double covered_score() const noexcept;
};

class MutationEngine {
public:
    MutationEngine(const reflect::Registry& bindings, EngineOptions options = {});

    /// Run mutation analysis of `mutants` against `suite`.  When
    /// `probe_suite` is given it is used for equivalence probing of
    /// survivors (see file comment).
    [[nodiscard]] MutationRun run(const driver::TestSuite& suite,
                                  const std::vector<Mutant>& mutants,
                                  const driver::TestSuite* probe_suite = nullptr) const;

private:
    const reflect::Registry& bindings_;
    EngineOptions options_;
};

/// Single-item executor: classify ONE mutant against precomputed golden
/// baselines.  This is the loop body of MutationEngine::run, exposed so
/// the campaign scheduler (src/campaign) can shard items across workers
/// while keeping fates bit-identical to the serial engine.
/// `probe_runner`/`probe_suite` may be null (no equivalence probing).
///
/// Thread-safety: safe to call concurrently from multiple threads with
/// distinct mutants, because mutant activation and hit tracking are
/// per-thread (MutationController is thread_local).  The runners and
/// `options.manual_oracle` must themselves be safe to invoke
/// concurrently (the stock TestRunner::run is).
[[nodiscard]] MutantOutcome evaluate_mutant(
    const Mutant& mutant, const driver::TestRunner& runner,
    const driver::TestSuite& suite, const oracle::GoldenRecord& golden,
    const driver::TestRunner* probe_runner, const driver::TestSuite* probe_suite,
    const oracle::GoldenRecord& probe_golden, const EngineOptions& options);

}  // namespace stc::mutation
