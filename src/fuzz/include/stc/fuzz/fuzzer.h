// Coverage-guided fuzzing over TFM transactions.
//
// The Driver Generator's suites exercise each selected transaction once
// with one set of random values — systematic, but shallow.  The fuzzer
// iterates: starting from the generated suite as the seed population, it
// mutates transactions (re-draw argument values, extend or truncate the
// path with TFM-valid random walks, splice two population members at a
// shared node) and keeps every input that reaches new coverage — a new
// TFM node or link, a new per-node visit-count bucket, or a new verdict
// kind.  Mutants of interesting inputs are more likely to be interesting
// themselves, so the population concentrates on the component's deeper
// behaviours while every proposed sequence stays a structurally valid
// transaction (the paper's §3.2 definition of allowable method orders).
//
// A failing execution (assertion violation, crash, uncaught exception,
// contract-not-enforced) becomes a Finding: it is deduplicated by
// (verdict, failing method), minimized with the delta-debugging shrinker
// (shrink.h), and handed back for corpus persistence (corpus.h).
//
// Determinism: all randomness flows through one Pcg32 derived from
// FuzzOptions::seed; shrinking and persistence consume no randomness.
// Two runs with the same seed, iteration budget, and component are
// byte-identical — findings, statistics, corpus files, everything.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/fuzz/corpus.h"
#include "stc/fuzz/shrink.h"
#include "stc/obs/context.h"
#include "stc/tspec/model.h"

namespace stc::fuzz {

/// Executes one test case and reports its result.  Abstracts the
/// execution environment: a plain TestRunner::run_case closure for
/// component faults, the same wrapped in a MutantActivation for fuzzing
/// against a mutant.
using CaseRunner = std::function<driver::TestResult(const driver::TestCase&)>;

struct FuzzOptions {
    std::uint64_t seed = 1;
    /// Test-case executions spent on exploration (shrinking has its own
    /// budget and is not counted here).
    std::size_t iterations = 1000;
    /// Options for the seed suite.  Mutated paths are capped at
    /// tfm::kMaxPathLength nodes.
    driver::GeneratorOptions generator;
    /// Shrink budget per finding, in predicate evaluations.
    std::size_t max_shrink_steps = 512;
    /// Recorded in findings/corpus entries when fuzzing a mutant.
    std::string mutant_id;
    /// Observability: "fuzz-iteration" spans plus fuzz.* counters.
    obs::Context obs;
};

/// One deduplicated failure, already minimized.
struct Finding {
    driver::TestCase reproducer;   ///< shrunk
    driver::TestCase original;     ///< as first observed
    driver::Verdict verdict = driver::Verdict::Pass;
    std::string failed_method;     ///< normalized: name only, no args/marker
    std::string message;
    std::string mutant_id;         ///< copied from FuzzOptions::mutant_id
    std::size_t iteration = 0;     ///< exploration step that found it
    ShrinkResult shrink;           ///< shrink telemetry (steps, removals)

    /// The (verdict, method) dedupe key.
    [[nodiscard]] std::string key() const;

    /// Corpus form of this finding (single-case suite; suite.seed is set
    /// by the persister).
    [[nodiscard]] CorpusEntry to_corpus_entry(const std::string& class_name) const;
};

struct FuzzStats {
    std::size_t iterations = 0;       ///< exploration executions
    std::size_t executions = 0;       ///< total, incl. shrink re-runs
    std::size_t interesting = 0;      ///< inputs admitted to the population
    std::size_t population = 0;       ///< final population size
    std::size_t nodes_covered = 0;
    std::size_t edges_covered = 0;
    /// Executions per verdict kind, keyed by driver::to_string text.
    std::map<std::string, std::size_t> verdict_counts;

    /// Deterministic one-per-line rendering for reports and the CLI
    /// seed-stability gate.
    [[nodiscard]] std::string render() const;
};

struct FuzzResult {
    std::vector<Finding> findings;  ///< in discovery order
    FuzzStats stats;
};

/// The coverage-guided fuzz loop.
class Fuzzer {
public:
    explicit Fuzzer(tspec::ComponentSpec spec, FuzzOptions options = {});

    /// Tester completions for structured parameters (also used when
    /// mutators re-draw argument values).
    Fuzzer& completions(const driver::CompletionRegistry* registry);

    /// How to execute a candidate.  Required before run().
    Fuzzer& case_runner(CaseRunner runner);

    [[nodiscard]] FuzzResult run();

private:
    tspec::ComponentSpec spec_;
    FuzzOptions options_;
    const driver::CompletionRegistry* completions_ = nullptr;
    CaseRunner runner_;
};

/// Outcome of persisting one finding into a corpus directory.
struct PersistOutcome {
    std::string path;           ///< file written ("" when not reproducible)
    bool reproducible = false;  ///< reloaded+recompleted replay matched
};

/// Persist `entry` into `dir` under its canonical filename — but only
/// after proving the *persisted* form replays: the entry is serialized,
/// reloaded, its structured placeholders recompleted from `entry_seed`
/// (stored in the file), and re-run through `runner`; a verdict mismatch
/// (e.g. a pointer argument whose identity mattered) yields
/// reproducible=false and no file.
[[nodiscard]] PersistOutcome persist_entry(
    const std::string& dir, CorpusEntry entry,
    const driver::CompletionRegistry* completions, const CaseRunner& runner,
    std::uint64_t entry_seed);

}  // namespace stc::fuzz
