// The kill pass: raise a finished campaign's mutation score by
// synthesizing killers for its surviving mutants.
//
// Input is a campaign result store (stc::campaign, docs/FORMATS.md §6):
// every record with fate `alive` is a mutant the generated suite
// executed but could not distinguish.  For each one, ProductSearch
// (search.h) hunts for a transaction that traverses the mutated site
// and then diverges observably; a candidate only counts after it has
// been executed against the real mutant and killed it.  Verified
// killers are shrunk and persisted by campaign::reproduce_killer (the
// predicate demands the SAME kill classification, not just any
// failure), content-hashed into the regression corpus, and folded back
// into the store records (fate killed, synthesized flag) so `concat
// campaign --resume` and `concat stats` reflect the raised score.
//
// Determinism: per-mutant searches are independent and internally
// sequential; --jobs only distributes mutants across the threads of
// campaign::WorkStealingPool, results are slotted by survivor index,
// and telemetry is emitted post-hoc in that order — so report,
// telemetry, corpus files, and the rewritten store are byte-identical
// for any job count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stc/campaign/result_store.h"
#include "stc/campaign/telemetry.h"
#include "stc/driver/generator.h"
#include "stc/fuzz/shrink.h"
#include "stc/kill/search.h"
#include "stc/mutation/mutant.h"

namespace stc::kill {

/// Component under synthesis.  All pointers are non-owning and must
/// outlive the call; `completions` may be null.
struct KillContext {
    const tspec::ComponentSpec* spec = nullptr;
    const reflect::Registry* registry = nullptr;
    const driver::CompletionRegistry* completions = nullptr;
    /// The campaign's mutant universe, in enumeration order.  Survivor
    /// records are matched against it by Mutant::id().
    const std::vector<mutation::Mutant>* mutants = nullptr;
};

struct KillOptions {
    std::uint64_t seed = 20010701;
    SearchOptions search;
    /// Worker threads across survivors, on campaign::WorkStealingPool
    /// (1 = sequential, 0 = hardware concurrency; output is
    /// byte-identical either way).
    std::size_t jobs = 1;
    /// Corpus directory for verified killers ("" = do not persist).
    std::string corpus_dir;
    /// Shrink budget per verified killer, in predicate evaluations.
    std::size_t max_shrink_steps = 256;
    /// Kill telemetry (kill-run-start/kill-start/kill-candidate/
    /// kill-verified/kill-gave-up/kill-run-end, docs/FORMATS.md §14).
    campaign::TelemetrySink telemetry;
    obs::Context obs;
};

/// Result for one surviving mutant.
struct KillItem {
    std::size_t record_index = 0;  ///< index into the store's records
    std::string mutant_id;
    SearchStatus status = SearchStatus::SiteUnreachable;
    oracle::KillReason reason = oracle::KillReason::None;  ///< when Verified
    bool model_only = false;
    bool widened = false;
    std::size_t candidate_calls = 0;  ///< killer length before shrinking
    driver::TestCase killer;          ///< shrunk; valid iff Verified
    fuzz::ShrinkResult shrink;        ///< valid iff Verified
    std::string corpus_file;          ///< basename ("" = not persisted)
    SearchStats stats;
};

struct KillRun {
    std::vector<KillItem> items;  ///< survivors, in store (file) order
    std::size_t survivors = 0;
    std::size_t verified = 0;
    // Score bookkeeping over the whole store (not just survivors):
    std::size_t total = 0;
    std::size_t equivalent = 0;
    std::size_t killed_before = 0;
    std::size_t killed_after = 0;

    /// The campaign score before/after synthesis:
    /// killed / (total - equivalent), 1.0 when the denominator is 0.
    [[nodiscard]] double score_before() const noexcept;
    [[nodiscard]] double score_after() const noexcept;
};

/// Run the kill pass over `records` (a store's records in file order,
/// campaign::peek_store).  Verified kills update the matching records
/// in place — fate `killed`, reason, model_only, synthesized=true —
/// and the caller persists them with campaign::rewrite_store.  Throws
/// stc::Error when a survivor's mutant id is not in the context's
/// mutant universe (the store belongs to a different campaign; the
/// fingerprint check should have caught it).
[[nodiscard]] KillRun kill_survivors(const KillContext& context,
                                     std::vector<campaign::ItemRecord>& records,
                                     const KillOptions& options);

/// Deterministic human-readable report (no wall-clock content).
void render_kill_report(std::ostream& os, const KillRun& run,
                        const std::string& class_name,
                        const KillOptions& options);

}  // namespace stc::kill
