#include "stc/campaign/reproducer.h"

#include "stc/fuzz/corpus.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/mutation/controller.h"

namespace stc::campaign {

Reproducer reproduce_killer(const ReproducerOptions& options,
                            const tfm::Graph& graph,
                            const mutation::Mutant& mutant,
                            const driver::TestCase& killer,
                            oracle::KillReason reason,
                            std::uint64_t entry_seed) {
    const std::string& class_name = options.spec->class_name;
    driver::RunnerOptions runner_options = options.runner;
    runner_options.promote_divergence = false;
    runner_options.observer = nullptr;
    const driver::TestRunner runner(*options.registry, runner_options);

    // A candidate still counts only when the clean leg passes AND the
    // mutated leg is killed for the same reason: the corpus records the
    // reason.
    const fuzz::Predicate still_kills = [&](const driver::TestCase& tc) {
        driver::TestSuite suite;
        suite.class_name = class_name;
        suite.cases.push_back(tc);
        const driver::SuiteResult clean = runner.run(suite);
        for (const driver::TestResult& r : clean.results) {
            if (!r.passed()) return false;
        }
        driver::SuiteResult mutated;
        {
            const mutation::MutantActivation activation(mutant);
            mutated = runner.run(suite);
        }
        return oracle::classify_suite_differential(
                   oracle::GoldenRecord::from(clean), mutated, options.oracle,
                   {}, options.obs)
                   .with_model == reason;
    };
    fuzz::ShrinkOptions shrink_options;
    shrink_options.max_steps = options.max_shrink_steps;
    shrink_options.obs = options.obs;
    Reproducer out;
    out.shrink = fuzz::shrink_case(*options.spec, graph, killer, still_kills,
                                   shrink_options);
    if (options.corpus_dir.empty()) return out;

    // The recorded verdict is what the corpus replay observes (mutant
    // active, divergence promoted), and persist_entry refuses an entry
    // whose serialized form does not replay to it — so a persisted
    // killer is a regression test, not a transcript.
    runner_options.promote_divergence = true;
    const driver::TestRunner replay_runner(*options.registry, runner_options);
    const reflect::ClassBinding& binding = options.registry->at(class_name);
    const fuzz::CaseRunner replay = [&](const driver::TestCase& tc) {
        const mutation::MutantActivation activation(mutant);
        return replay_runner.run_case(binding, tc);
    };
    const driver::TestCase& minimized = out.shrink.minimized;
    const driver::TestResult observed = replay(minimized);
    if (observed.passed()) return out;

    fuzz::CorpusEntry entry;
    entry.suite.class_name = class_name;
    entry.suite.cases.push_back(minimized);
    entry.verdict = observed.verdict;
    entry.failed_method = observed.failed_method;
    entry.mutant_id = mutant.id();
    entry.kill_reason = oracle::to_string(reason);
    out.path = fuzz::persist_entry(options.corpus_dir, std::move(entry),
                                   options.completions, replay, entry_seed)
                   .path;
    return out;
}

}  // namespace stc::campaign
