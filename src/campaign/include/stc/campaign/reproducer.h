// One killer reproducer: how a test case that kills a mutant becomes a
// replayable regression test, for the killers `concat kill` synthesizes
// and the kills `concat campaign --shrink-corpus` finds alike.  A
// killer is shrunk while it still kills for the same reason, then
// persisted as the corpus replay (docs/FORMATS.md §9) observes it; one
// that passes under its mutant (a kill only the golden comparison saw)
// is not corpus-replayable and is not persisted.
#pragma once

#include <cstdint>
#include <string>

#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/fuzz/shrink.h"
#include "stc/mutation/mutant.h"
#include "stc/obs/context.h"
#include "stc/oracle/oracle.h"
#include "stc/reflect/class_binding.h"
#include "stc/tfm/graph.h"
#include "stc/tspec/model.h"

namespace stc::campaign {

/// Pointers are non-owning and must outlive the call; `completions` may
/// be null.
struct ReproducerOptions {
    const tspec::ComponentSpec* spec = nullptr;
    const reflect::Registry* registry = nullptr;
    const driver::CompletionRegistry* completions = nullptr;
    /// Model binding and obs of every run; reproduce_killer sets the
    /// promotion and drops the observer.
    driver::RunnerOptions runner;
    oracle::OracleConfig oracle;
    /// Corpus directory ("" = shrink only, persist nothing).
    std::string corpus_dir;
    /// Shrink budget per killer, in predicate evaluations.
    std::size_t max_shrink_steps = 256;
    obs::Context obs;
};

struct Reproducer {
    fuzz::ShrinkResult shrink;  ///< the minimized killer and its cost
    std::string path;           ///< the persisted entry ("" = none)
};

/// Shrink `killer`, which kills `mutant` for `reason`, on `graph` (the
/// TFM, or kill's widened specification graph): a candidate counts when
/// its clean leg passes and its mutated leg is killed for the same
/// reason.  Then persist it, replayed with the mutant active and
/// divergence promoted, under `entry_seed`.  A pure function of its
/// inputs, whichever thread calls it.
[[nodiscard]] Reproducer reproduce_killer(const ReproducerOptions& options,
                                          const tfm::Graph& graph,
                                          const mutation::Mutant& mutant,
                                          const driver::TestCase& killer,
                                          oracle::KillReason reason,
                                          std::uint64_t entry_seed);

}  // namespace stc::campaign
