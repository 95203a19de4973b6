// Coverage-signature index — which mutation sites each test case
// reaches, and at which call.
//
// Recorded during the golden run at zero extra executions: a
// CoverageRecorder implements both the mutation layer's CoverageSink
// (every MutFrame use-site consultation) and the driver's CaseObserver
// (test-case/call boundaries), so one un-mutated pass yields the full
// (test case, mutation site) -> first-hit call index relation.
//
// The index powers the fast campaign tier (stc/mutation/prune.h), which
// inverts it once per campaign into per-site postings (site -> covering
// cases with their first-hit calls):
//   * pruning — a (mutant, case) pair whose site the case provably never
//     reaches executes byte-identically to golden and can be skipped;
//   * memoization — the first-hit call index bounds how deep a checkpoint
//     of the un-mutated prefix may sit while staying fate-identical.
// The recorder itself stays a per-case map, so other users of
// run_with_coverage pay nothing for the inversion.  (The kill search,
// which needs one site's first hit per candidate, uses its own
// single-site sink instead.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stc/driver/runner.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/mutant.h"

namespace stc::mutation {

/// Coverage relation of one recorded suite run.
class CoverageIndex {
public:
    using SiteKey = std::pair<const MethodDescriptor*, std::size_t>;

    /// Per-case record, in run (= suite) order.
    struct CaseCoverage {
        std::string case_id;
        /// Site -> index of the call during which the site was FIRST
        /// consulted (driver::CaseObserver call-index convention:
        /// construction/entry-state = 0, body call i, wrap-up =
        /// calls.size()).
        std::map<SiteKey, std::size_t> first_hit;
    };

    /// True when `case_id` consults the mutant's site at least once.
    [[nodiscard]] bool covers(const std::string& case_id,
                              const Mutant& mutant) const;

    /// First-hit call index of the mutant's site within `case_id`;
    /// nullopt when the case never reaches the site (or is unknown).
    [[nodiscard]] std::optional<std::size_t> first_hit(
        const std::string& case_id, const Mutant& mutant) const;

    [[nodiscard]] const std::vector<CaseCoverage>& cases() const noexcept {
        return cases_;
    }
    [[nodiscard]] const CaseCoverage* find(const std::string& case_id) const;

    /// Total number of (case, site) pairs recorded — the index size
    /// reported by campaign telemetry.
    [[nodiscard]] std::size_t pair_count() const noexcept;

    /// Order-sensitive digest over (case id, qualified method name, site
    /// ordinal, first-hit index).  Descriptor *pointers* never enter the
    /// digest, so the value is stable across processes; it changes
    /// whenever the suite or the reached-site relation changes.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;

private:
    friend class CoverageRecorder;
    std::vector<CaseCoverage> cases_;
    /// case id -> index into cases_ (first occurrence wins, matching the
    /// scan order find() promises).  The index is consulted once per
    /// (mutant, case) pair on the campaign hot path, so lookups must not
    /// scan cases_ linearly.
    std::unordered_map<std::string, std::size_t> by_id_;
};

/// Records one suite run into a CoverageIndex.  Install on the running
/// thread with CoverageScope and hand to RunnerOptions::observer; see
/// run_with_coverage for the packaged form.
class CoverageRecorder final : public CoverageSink, public driver::CaseObserver {
public:
    explicit CoverageRecorder(CoverageIndex& index) noexcept : index_(index) {}

    void on_case_begin(const driver::TestCase& test_case) override;
    void on_call(std::size_t call_index) override;
    void on_site(const MethodDescriptor& method, std::size_t site) override;

private:
    CoverageIndex& index_;
    std::size_t current_call_ = 0;
};

/// A golden run plus the coverage index it produced.
struct CoveredRun {
    driver::SuiteResult result;
    CoverageIndex index;
};

/// Run `suite` un-mutated and record its coverage signature — the
/// campaign's golden-capture step.  `options.observer` is overwritten;
/// the caller must not hold a CoverageScope on this thread already.
[[nodiscard]] CoveredRun run_with_coverage(const reflect::Registry& registry,
                                           driver::RunnerOptions options,
                                           const driver::TestSuite& suite);

}  // namespace stc::mutation
