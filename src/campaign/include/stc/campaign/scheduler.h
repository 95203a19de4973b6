// CampaignScheduler — parallel orchestration of mutation campaigns.
//
// The serial MutationEngine evaluates mutants one at a time; campaign
// cost is mutants x transactions.  The scheduler shards the (mutant x
// suite) work items of one campaign across a work-stealing pool and
// reassembles a MutationRun whose fates and kill reasons are
// bit-identical to the serial engine's, because
//   - every item derives its own RNG seed from (campaign seed, mutant
//     id, transaction id) instead of sharing a sequential stream
//     (seed.h),
//   - mutant activation and hit tracking are per-thread
//     (MutationController is thread_local), and
//   - outcomes land in per-item slots, ordered by item index, never by
//     completion time.
//
// Resumability: with a store path set, every finished item is appended
// to a content-hashed JSONL results file; reopening the same campaign
// skips the finished items (ResultStore).  Telemetry: every scheduling
// event can be streamed as JSONL (TelemetrySink, docs/FORMATS.md §5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stc/campaign/result_store.h"
#include "stc/campaign/telemetry.h"
#include "stc/mutation/engine.h"
#include "stc/obs/context.h"
#include "stc/sandbox/limits.h"

namespace stc::campaign {

struct CampaignOptions {
    /// Worker threads; 0 selects the hardware concurrency, 1 runs the
    /// items inline (the serial reference).
    std::size_t jobs = 1;
    /// Campaign seed: root of all per-item seed derivation, and part of
    /// the campaign fingerprint.
    std::uint64_t seed = 20010701;
    /// Path of the resumable result store; empty disables persistence.
    /// A store written by a different campaign (seed, suite, mutants or
    /// oracle changed) is discarded, not resumed.
    std::string store_path;
    /// Path of the JSONL telemetry stream (docs/FORMATS.md §5); empty
    /// disables it.  When store_path is also set (a resumable
    /// campaign), the file opens in append mode so a resumed run
    /// extends — never wipes — the interrupted generation's telemetry.
    /// Distinct from the Chrome trace written by obs.tracer.
    std::string telemetry_path;
    /// Span tracer + metrics registry, threaded through the runner, the
    /// oracle, and every mutant evaluation.  Disabled by default; both
    /// handles are thread-safe.
    obs::Context obs;
    /// Engine configuration shared by every item.  manual_oracle, when
    /// set, must be thread-safe.  Its obs context is overwritten with
    /// the campaign-level `obs`.
    mutation::EngineOptions engine;
    /// When non-empty, every mutant KILLED in this run has its first
    /// killing test case (in suite order) shrunk and persisted into this
    /// corpus directory by reproduce_killer (reproducer.h), the routine
    /// `concat kill` uses: a kill that passes under its mutant leaves no
    /// entry.  Requires `spec`.  Deterministic per item: the corpus
    /// contents do not depend on --jobs.  Resumed items are skipped (the
    /// original run already saved theirs).
    std::string shrink_corpus_dir;
    /// Shrink budget per killed mutant, in predicate evaluations (each
    /// costs a mutated + an unmutated execution of the candidate).
    std::size_t max_shrink_steps = 256;
    /// Component spec backing the suite — needed to shrink (TFM path
    /// validity, value domains).  Non-owning; required iff
    /// shrink_corpus_dir is set.
    const tspec::ComponentSpec* spec = nullptr;
    /// Completions for replay verification of persisted reproducers.
    const driver::CompletionRegistry* completions = nullptr;
    /// Process isolation (`concat campaign --isolate`): evaluate every
    /// pending item in a forked sandbox worker (stc::sandbox) instead
    /// of the thread pool, so a mutant that really segfaults, hangs, or
    /// exhausts memory kills only its worker.  The worker is respawned
    /// and the item recorded with MutantOutcome::sandbox set; for
    /// mutants that do not crash, fates are byte-identical to the
    /// in-process run at any `jobs`.  Incompatible with
    /// shrink_corpus_dir (the shrinker re-executes mutants in the
    /// orchestrator process).
    bool isolate = false;
    /// Per-item wall deadline and child rlimits; used only with
    /// `isolate`.
    sandbox::SandboxLimits sandbox;
    /// The fast execution tier (`concat campaign --prune`, the default):
    /// record a coverage-signature index during the golden run, skip
    /// every (mutant, case) pair whose mutation site the case provably
    /// never reaches, and resume covered cases from checkpoints of their
    /// un-mutated prefix (stc/mutation/prune.h).  Fates are
    /// byte-identical to the unpruned run — enforced by the differential
    /// harness in tests/prune_test.cpp — but the store fingerprint
    /// absorbs the prune-tier version, so pruned and unpruned stores
    /// never resume into each other.  Silently disengaged when a manual
    /// oracle is configured (the one detector that can kill a
    /// byte-identical report).
    bool prune = true;
};

struct CampaignStats {
    std::size_t items = 0;
    std::size_t executed = 0;  ///< evaluated in this run
    std::size_t resumed = 0;   ///< restored from the result store
    std::size_t shrunk = 0;    ///< killed mutants with a persisted reproducer
    std::size_t workers = 1;
    std::uint64_t steals = 0;
    /// Sandbox workers re-forked after a crash/timeout/limit kill (0
    /// for in-process runs).
    std::size_t respawns = 0;
    double wall_ms = 0.0;      ///< item-execution phase only
    /// Fast-tier accounting (all zero when pruning was not engaged).
    bool pruned = false;            ///< the fast tier was engaged
    std::uint64_t executed_pairs = 0;  ///< (mutant, case) pairs run
    std::uint64_t pruned_pairs = 0;    ///< pairs skipped via the coverage index
    std::uint64_t memoized_pairs = 0;  ///< executed pairs resumed mid-case
    std::uint64_t memoized_calls = 0;  ///< body calls those resumes skipped
};

struct CampaignResult {
    mutation::MutationRun run;
    CampaignStats stats;
    std::string fingerprint;  ///< campaign identity (store header value)
};

class CampaignScheduler {
public:
    explicit CampaignScheduler(const reflect::Registry& bindings,
                               CampaignOptions options = {});

    /// Run the campaign: a Session (session.h) captures the golden
    /// baselines once, serially, then the items execute across the
    /// work-stealing pool — or the sandbox pool under `isolate` — and
    /// finish through the session's Ledger.  Equivalent to
    /// MutationEngine::run on the same inputs, fate-for-fate.
    [[nodiscard]] CampaignResult run(
        const driver::TestSuite& suite,
        const std::vector<mutation::Mutant>& mutants,
        const driver::TestSuite* probe_suite = nullptr) const;

    /// The campaign identity of these inputs (campaign_fingerprint in
    /// session.h).
    [[nodiscard]] std::string fingerprint(
        const driver::TestSuite& suite,
        const std::vector<mutation::Mutant>& mutants,
        const driver::TestSuite* probe_suite) const;

private:
    const reflect::Registry& bindings_;
    CampaignOptions options_;
};

}  // namespace stc::campaign
