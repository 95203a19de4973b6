#include "stc/mutation/engine.h"

#include <chrono>

namespace stc::mutation {

const char* to_string(MutantFate fate) noexcept {
    switch (fate) {
        case MutantFate::Killed: return "killed";
        case MutantFate::Alive: return "alive";
        case MutantFate::EquivalentPresumed: return "equivalent";
        case MutantFate::NotCovered: return "not-covered";
    }
    return "?";
}

std::optional<MutantFate> fate_from_string(std::string_view text) noexcept {
    for (const MutantFate fate :
         {MutantFate::Killed, MutantFate::Alive, MutantFate::EquivalentPresumed,
          MutantFate::NotCovered}) {
        if (text == to_string(fate)) return fate;
    }
    return std::nullopt;
}

std::size_t MutationRun::killed() const noexcept {
    std::size_t n = 0;
    for (const auto& o : outcomes) n += o.fate == MutantFate::Killed ? 1 : 0;
    return n;
}

std::size_t MutationRun::equivalent() const noexcept {
    std::size_t n = 0;
    for (const auto& o : outcomes) {
        n += o.fate == MutantFate::EquivalentPresumed ? 1 : 0;
    }
    return n;
}

std::size_t MutationRun::kills_by(oracle::KillReason reason) const noexcept {
    std::size_t n = 0;
    for (const auto& o : outcomes) {
        n += (o.fate == MutantFate::Killed && o.reason == reason) ? 1 : 0;
    }
    return n;
}

std::size_t MutationRun::kills_model_only() const noexcept {
    std::size_t n = 0;
    for (const auto& o : outcomes) {
        n += (o.fate == MutantFate::Killed && o.model_only) ? 1 : 0;
    }
    return n;
}

std::size_t MutationRun::kills_synthesized() const noexcept {
    std::size_t n = 0;
    for (const auto& o : outcomes) {
        n += (o.fate == MutantFate::Killed && o.synthesized) ? 1 : 0;
    }
    return n;
}

std::size_t MutationRun::not_covered() const noexcept {
    std::size_t n = 0;
    for (const auto& o : outcomes) n += o.fate == MutantFate::NotCovered ? 1 : 0;
    return n;
}

double MutationRun::score() const noexcept {
    const std::size_t denom = total() - equivalent();
    if (denom == 0) return 1.0;
    return static_cast<double>(killed()) / static_cast<double>(denom);
}

double MutationRun::covered_score() const noexcept {
    const std::size_t denom = total() - equivalent() - not_covered();
    if (denom == 0) return 1.0;
    return static_cast<double>(killed()) / static_cast<double>(denom);
}

MutationEngine::MutationEngine(const reflect::Registry& bindings, EngineOptions options)
    : bindings_(bindings), options_(std::move(options)) {}

MutationRun MutationEngine::run(const driver::TestSuite& suite,
                                const std::vector<Mutant>& mutants,
                                const driver::TestSuite* probe_suite) const {
    const driver::TestRunner runner(bindings_, options_.runner);

    // Probe runs observe every call, maximizing output-diff sensitivity —
    // the "try hard before declaring equivalent" role of the paper's
    // manual analysis.
    driver::RunnerOptions probe_opts = options_.runner;
    probe_opts.observe_each_call = true;
    const driver::TestRunner probe_runner(bindings_, probe_opts);

    MutationRun out;

    // Baseline ("original program", outputs validated before experiments).
    out.golden = oracle::GoldenRecord::from(runner.run(suite));
    out.baseline_clean = out.golden.all_passed();

    oracle::GoldenRecord probe_golden;
    if (probe_suite != nullptr) {
        probe_golden = oracle::GoldenRecord::from(probe_runner.run(*probe_suite));
    }

    out.outcomes.reserve(mutants.size());
    for (const Mutant& mutant : mutants) {
        out.outcomes.push_back(evaluate_mutant(
            mutant, runner, suite, out.golden,
            probe_suite != nullptr ? &probe_runner : nullptr, probe_suite,
            probe_golden, options_));
    }

    return out;
}

MutantOutcome evaluate_mutant(const Mutant& mutant, const driver::TestRunner& runner,
                              const driver::TestSuite& suite,
                              const oracle::GoldenRecord& golden,
                              const driver::TestRunner* probe_runner,
                              const driver::TestSuite* probe_suite,
                              const oracle::GoldenRecord& probe_golden,
                              const EngineOptions& options) {
    auto& controller = MutationController::instance();

    using ObsClock = std::chrono::steady_clock;
    const bool metered = options.obs.metrics.enabled();
    const ObsClock::time_point eval_start =
        metered ? ObsClock::now() : ObsClock::time_point{};
    const obs::SpanScope eval_span(options.obs.tracer, "mutant-evaluation",
                                   mutant.id());
    const auto meter_fate = [&](const MutantOutcome& outcome) {
        if (!metered) return;
        options.obs.metrics.add(std::string("mutation.fate.") +
                                to_string(outcome.fate));
        options.obs.metrics.observe_ms(
            "mutation.eval_ms",
            std::chrono::duration<double, std::milli>(ObsClock::now() -
                                                      eval_start)
                .count());
    };

    MutantOutcome outcome;
    outcome.mutant = &mutant;

    {
        const MutantActivation activation(mutant);
        const driver::SuiteResult mutated = runner.run(suite);
        outcome.hit_by_suite = controller.hit();
        // Both legs of the differential classification come from the
        // SAME mutated run — the model is a passive side channel, so
        // "what would the assertion-only oracle have said" needs no
        // second execution.
        const oracle::DifferentialKill differential =
            oracle::classify_suite_differential(golden, mutated, options.oracle,
                                                options.manual_oracle,
                                                options.obs);
        outcome.reason = differential.with_model;
        outcome.model_only = differential.model_only();
    }

    if (outcome.reason != oracle::KillReason::None) {
        outcome.fate = MutantFate::Killed;
        meter_fate(outcome);
        return outcome;
    }

    // Survivor: equivalence probing.
    if (probe_runner == nullptr || probe_suite == nullptr) {
        outcome.fate =
            outcome.hit_by_suite ? MutantFate::Alive : MutantFate::NotCovered;
        meter_fate(outcome);
        return outcome;
    }

    bool probe_hit = false;
    oracle::KillReason probe_reason = oracle::KillReason::None;
    {
        const MutantActivation activation(mutant);
        const driver::SuiteResult probed = probe_runner->run(*probe_suite);
        probe_hit = controller.hit();
        // The probe always uses the full oracle: equivalence is about
        // behaviour, not about which detector the evaluated suite used.
        probe_reason = oracle::classify_suite(probe_golden, probed, {}, {},
                                              options.obs);
    }

    if (probe_reason != oracle::KillReason::None) {
        outcome.fate = MutantFate::Alive;  // killable, just not by `suite`
        outcome.killed_by_probe = true;
    } else if (probe_hit) {
        outcome.fate = MutantFate::EquivalentPresumed;
    } else {
        outcome.fate = MutantFate::NotCovered;
    }
    meter_fate(outcome);
    return outcome;
}

}  // namespace stc::mutation
