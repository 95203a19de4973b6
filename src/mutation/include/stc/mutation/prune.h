// The fast campaign execution tier: coverage-signature pruning,
// per-case prefix memoization, and a stop at the first crash kill.
//
// All three rest on one determinism fact: an execution that never
// consults a mutant's use-site is byte-identical to the golden run.
// Hence
//   * a (mutant, case) pair whose site the case provably never reaches
//     (per the CoverageIndex from the golden run) can be skipped
//     outright — it can neither hit nor kill;
//   * a case whose first consult of the site happens at call k may start
//     from a checkpoint of the un-mutated execution taken before any
//     call <= k, because the mutated run is identical up to that point;
//   * once a covering case crashes where the golden run did not, the
//     remaining covering cases cannot change the mutant's fate: Crash
//     is the strongest kill reason, and the crash proves the site was
//     consulted, so hit_by_suite is already true.  The evaluator folds
//     each result into an oracle::DifferentialFold as the case finishes
//     and stops the leg (suite or probe) once the fold saturates.
//
// The coverage index is inverted once per plan into per-site postings,
// so choosing a mutant's covering cases — and each one's resume bound —
// is one lookup.  The plan fixes each case's checkpoint boundaries up
// front; the checkpoints themselves (behavioural copies through the
// ClassBinding cloner) are captured on the un-mutated component the
// first time a mutant runs the case, once per process, and then serve
// every later mutant — the "execute the un-mutated prefix once"
// memoization.  Fate identity with evaluate_mutant is the contract,
// enforced end-to-end by the differential harness in
// tests/prune_test.cpp, with and without a lockstep model (checkpoints
// carry the model's state, so resumed suffixes keep their compares).
//
// Manual oracles are the one detector that breaks the premise (they may
// reject a byte-identical Pass report), so the campaign scheduler keeps
// pruning off whenever one is configured.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "stc/mutation/coverage.h"
#include "stc/mutation/engine.h"

namespace stc::mutation {

/// Version of the pruned execution tier, absorbed into the campaign
/// store fingerprint (as "prune-index-v1") when pruning is engaged so a
/// resumed store never mixes fates produced under different pruning
/// semantics.  Bump when a skip, memoize or stop rule changes any
/// stored fate, reason or hit flag; a rule that only skips work which
/// cannot change them (the crash stop) keeps the version.
inline constexpr std::uint64_t kPruneIndexVersion = 1;
inline constexpr const char* kPruneIndexToken = "prune-index-v1";

/// One case's checkpoint ladder.  The boundaries are planned with the
/// prune plan; the checkpoints are captured from them the first time a
/// mutant runs the case, and read by every later one.
class CasePlan {
public:
    /// Planned resume points: the case's distinct first-hit calls,
    /// ascending, at most six.  Empty when the binding has no cloner.
    std::vector<std::size_t> boundaries;

    /// The checkpoints at `boundaries`, ascending by resume_call: fewer
    /// when capture stopped early (the case fails, a clone refuses).
    /// The first caller captures them with `runner`, which must be the
    /// runner that later resumes from them; concurrent callers wait for
    /// that capture, then read.  Must be called with no mutant active
    /// (ContractError otherwise).
    [[nodiscard]] const std::vector<driver::CaseCheckpoint>& ladder(
        const driver::TestRunner& runner, const reflect::ClassBinding& binding,
        const driver::TestCase& test_case) const;

private:
    mutable std::once_flag captured_;
    mutable std::vector<driver::CaseCheckpoint> checkpoints_;
};

/// One case that reaches a mutation site: its position in the suite
/// and the call during which it first consults the site (the
/// CoverageIndex::first_hit convention) — the deepest sound resume.
struct SitePosting {
    std::size_t case_index = 0;
    std::size_t first_hit = 0;
};

/// A coverage index inverted into per-site postings: for each reached
/// (method, site), the cases reaching it, ascending by case_index.
class SitePostings {
public:
    SitePostings() = default;
    /// Invert `coverage`, recorded from a run of `suite`, over the
    /// suite's case positions (a case the index does not know reaches
    /// nothing).
    SitePostings(const CoverageIndex& coverage, const driver::TestSuite& suite);

    /// The cases reaching `mutant`'s site; empty when none does.
    [[nodiscard]] const std::vector<SitePosting>& of(const Mutant& mutant) const;

private:
    std::map<CoverageIndex::SiteKey, std::vector<SitePosting>> by_site_;
};

/// Everything the pruned evaluator needs besides the golden records:
/// coverage indices for suite and probe, their per-site postings, and
/// the per-case checkpoint ladders (index-aligned with the respective
/// case lists).  Built once, before any executor starts; shared by
/// concurrent evaluations afterwards, which capture each ladder once on
/// first use.  Checkpoint prototypes are cloned, never mutated.  A
/// forked sandbox child inherits ladders nothing has captured yet and
/// captures the ones it runs.
struct PrunePlan {
    CoverageIndex coverage;
    CoverageIndex probe_coverage;
    SitePostings postings;
    SitePostings probe_postings;
    std::vector<CasePlan> case_plans;
    std::vector<CasePlan> probe_case_plans;
};

/// Work avoided/performed by one (or many summed) pruned evaluations.
struct PruneStats {
    std::uint64_t executed_pairs = 0;  ///< (mutant, case) pairs actually run
    /// Pairs skipped because they cannot change the fate: the case never
    /// reaches the site, or an earlier case already crashed the mutant.
    std::uint64_t pruned_pairs = 0;
    std::uint64_t memoized_pairs = 0;  ///< executed pairs resumed mid-case
    std::uint64_t memoized_calls = 0;  ///< body calls those resumes skipped

    PruneStats& operator+=(const PruneStats& other) noexcept {
        executed_pairs += other.executed_pairs;
        pruned_pairs += other.pruned_pairs;
        memoized_pairs += other.memoized_pairs;
        memoized_calls += other.memoized_calls;
        return *this;
    }
};

/// Build the postings and plan the checkpoint boundaries for `suite`
/// (and `probe_suite`, which may be null) from their recorded coverage.
/// `coverage` and `probe_coverage` are moved into the returned plan.
/// Executes nothing: each ladder is captured on first use, with the
/// runner that evaluates its suite (probe observations differ, since the
/// probe observes every call, so suite and probe ladders never mix).
[[nodiscard]] PrunePlan build_prune_plan(const reflect::ClassBinding& binding,
                                         const driver::TestSuite& suite,
                                         CoverageIndex coverage,
                                         const driver::TestSuite* probe_suite,
                                         CoverageIndex probe_coverage);

/// Drop-in replacement for evaluate_mutant: identical fates (the
/// differential harness in tests/prune_test.cpp is the net), ~an order
/// of magnitude less execution.  Runs each leg's covering cases in suite
/// order and stops the leg at its first crash kill; every pair not run
/// counts as pruned, so executed + pruned covers each leg's cases.  The
/// mutant is active only while a case runs, so a case's ladder is
/// captured un-mutated the first time any evaluation needs it.
/// `probe_runner`/`probe_suite` may be null (no equivalence probing).
/// `options.manual_oracle` must be empty — callers gate pruning off
/// instead.  Thread-safe under the same conditions as evaluate_mutant;
/// `stats`, when given, is summed into without synchronisation (use one
/// per worker).
[[nodiscard]] MutantOutcome evaluate_mutant_pruned(
    const Mutant& mutant, const driver::TestRunner& runner,
    const reflect::ClassBinding& binding, const driver::TestSuite& suite,
    const oracle::GoldenRecord& golden, const driver::TestRunner* probe_runner,
    const driver::TestSuite* probe_suite,
    const oracle::GoldenRecord& probe_golden, const PrunePlan& plan,
    const EngineOptions& options, PruneStats* stats = nullptr);

}  // namespace stc::mutation
