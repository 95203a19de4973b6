// The campaign lifecycle, shared by every executor.
//
// Concat runs one pipeline: generate drivers from the t-spec's TFM,
// record the original component's outputs, then score each interface
// mutant against them.  This header is that pipeline, split in two:
//
//   - Session: the immutable campaign, built once — fingerprint, work
//     list, runners, golden and probe-golden records, coverage index and
//     prune plan — plus evaluate(index), how every executor scores an
//     item.  The one thing evaluation adds is each case's checkpoint
//     ladder, captured once on first use.
//     Safe to share across pool threads, inherited copy-on-write by
//     forked sandbox workers, and rebuilt from the Hello config by every
//     `concat serve` daemon (serve::BuiltinCampaign holds one).
//   - Ledger: the mutable half of one run — the resume pass, and the
//     completion path every finished item takes whichever executor ran
//     it: outcome slot, `item-finish` event, ItemRecord append, then the
//     `kill-reason` rows and `campaign-end` event that close the run.
//
// The executor loops themselves stay where they were: the
// work-stealing pool and the sandbox pool (CampaignScheduler::run), and
// the dispatch coordinator (serve::BuiltinCampaign::dispatch).  Each
// one only evaluates items and hands them to Ledger::finish.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stc/campaign/scheduler.h"
#include "stc/campaign/work_list.h"
#include "stc/mutation/prune.h"

namespace stc::campaign {

/// Generator options of the amplified probe suite (`--probe`): a
/// decorrelated seed and one extra case per transaction.  Every command
/// that builds a probe suite derives it here, so their fingerprints
/// agree.
[[nodiscard]] driver::GeneratorOptions probe_generator(
    const driver::GeneratorOptions& suite_generator);

/// The campaign identity: a stable hash of the campaign seed, the suite
/// (class, seed, case ids), the mutant population, the oracle/runner
/// configuration, the prune tier (when engaged) and the probe suite.
/// Items of equal fingerprint are interchangeable across process
/// restarts — the resume contract.
[[nodiscard]] std::string campaign_fingerprint(
    const CampaignOptions& options, const driver::TestSuite& suite,
    const std::vector<mutation::Mutant>& mutants,
    const driver::TestSuite* probe_suite);

class Session {
public:
    /// Build the campaign: golden baselines (with the coverage index
    /// when the fast tier is engaged), the prune plan and the work list.
    /// Reads options.seed, engine, prune and obs; the suite, probe suite
    /// and mutants must outlive the session.
    Session(const reflect::Registry& bindings, const driver::TestSuite& suite,
            const driver::TestSuite* probe_suite,
            const std::vector<mutation::Mutant>& mutants,
            const CampaignOptions& options);

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] const std::string& fingerprint() const noexcept {
        return fingerprint_;
    }
    [[nodiscard]] const std::vector<WorkItem>& items() const noexcept {
        return items_;
    }
    [[nodiscard]] const driver::TestSuite& suite() const noexcept {
        return suite_;
    }
    [[nodiscard]] const driver::TestSuite* probe_suite() const noexcept {
        return probe_suite_;
    }
    [[nodiscard]] const std::vector<mutation::Mutant>& mutants() const noexcept {
        return mutants_;
    }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] const mutation::EngineOptions& engine() const noexcept {
        return engine_;
    }
    [[nodiscard]] const driver::TestRunner& runner() const noexcept {
        return runner_;
    }
    [[nodiscard]] const reflect::ClassBinding& binding() const noexcept {
        return binding_;
    }
    [[nodiscard]] const oracle::GoldenRecord& golden() const noexcept {
        return golden_;
    }
    [[nodiscard]] bool baseline_clean() const noexcept {
        return golden_.all_passed();
    }
    /// The fast tier is engaged: pruning on, and no manual oracle (the
    /// one detector that can kill a byte-identical report).
    [[nodiscard]] bool pruned() const noexcept { return pruned_; }
    /// The lockstep reference-model oracle is engaged.
    [[nodiscard]] bool model() const noexcept { return model_; }
    [[nodiscard]] const mutation::PrunePlan& plan() const noexcept {
        return plan_;
    }

    /// Score work item `index` (its position in items() and mutants())
    /// against the suite and probe suite.  With the fast tier engaged
    /// the pruned evaluator runs (same fates, enforced by
    /// tests/prune_test.cpp) and `stats`, when given, accumulates its
    /// pair counters.  Thread-safe.
    [[nodiscard]] mutation::MutantOutcome evaluate(
        std::size_t index, mutation::PruneStats* stats = nullptr) const;

private:
    const driver::TestSuite& suite_;
    const driver::TestSuite* probe_suite_;
    const std::vector<mutation::Mutant>& mutants_;
    std::uint64_t seed_;
    mutation::EngineOptions engine_;
    bool pruned_;
    bool model_;
    std::string fingerprint_;
    std::vector<WorkItem> items_;
    const reflect::ClassBinding& binding_;
    driver::TestRunner runner_;
    driver::TestRunner probe_runner_;
    oracle::GoldenRecord golden_;
    oracle::GoldenRecord probe_golden_;
    mutation::PrunePlan plan_;
};

/// Which executor loop runs a campaign's items.  It decides the few
/// executor-specific telemetry keys (docs/FORMATS.md §5): `steals` or
/// `respawns` in campaign-end, and — the dispatch coordinator merges
/// only totals — whether per-item prune counters and the
/// coverage-index event are written.
enum class ExecutorKind { Pool, Sandbox, Remote };

class Ledger {
public:
    using Emit = std::function<void(const obs::JsonObject&)>;

    /// Opens the result store at `store_path` ("" = no store) for the
    /// session's fingerprint; `session` must outlive the ledger.  `emit`
    /// receives every event (empty = no telemetry); it must be
    /// thread-safe under the pool executor.
    Ledger(const Session& session, ExecutorKind executor,
           const std::string& store_path, Emit emit);

    Ledger(const Ledger&) = delete;
    Ledger& operator=(const Ledger&) = delete;

    /// Emit campaign-start (and coverage-index), then run the resume
    /// pass: restore every item the store already finished (one
    /// item-resumed event each) and return the rest, in work-list
    /// order.  `jobs` is the executor's configured width.
    [[nodiscard]] std::vector<WorkItem> start(std::size_t jobs);

    /// Complete one executed item: fill its outcome slot, emit
    /// item-finish, append its store record.  Call once per pending
    /// item, from any thread.
    void finish(const WorkItem& item, mutation::MutantOutcome outcome,
                std::uint64_t worker, double wall_ms,
                const mutation::PruneStats& stats, bool shrunk = false);

    /// Close the run: one kill-reason row per detector, campaign-end and
    /// the campaign.* metrics.  `workers` and `wall_ms` describe the
    /// item phase; `executor_count` is the pool's steals or the
    /// sandbox's respawns (0 for the remote executor).  Throws
    /// stc::Error naming the store when some record did not reach it.
    [[nodiscard]] CampaignResult end(std::size_t workers,
                                     std::uint64_t executor_count,
                                     double wall_ms);

private:
    const Session& session_;
    ExecutorKind executor_;
    Emit emit_;
    std::unique_ptr<ResultStore> store_;
    std::vector<mutation::MutantOutcome> outcomes_;
    std::size_t resumed_ = 0;
    std::atomic<std::size_t> executed_{0};
    std::atomic<std::size_t> shrunk_{0};
    std::atomic<std::uint64_t> executed_pairs_{0};
    std::atomic<std::uint64_t> pruned_pairs_{0};
    std::atomic<std::uint64_t> memoized_pairs_{0};
    std::atomic<std::uint64_t> memoized_calls_{0};
};

}  // namespace stc::campaign
