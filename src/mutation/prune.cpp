#include "stc/mutation/prune.h"

#include <chrono>
#include <cstdint>
#include <set>

namespace stc::mutation {

namespace {

/// Cap on checkpoints planned per case (boundaries are the case's
/// distinct first-hit call indices, shallowest first).
constexpr std::size_t kMaxCheckpointsPerCase = 6;
/// Plan no checkpoint shallower than this body-call index (resuming
/// at call 1 saves only the constructor).
constexpr std::size_t kMinResumeCall = 2;

std::vector<CasePlan> plan_ladders(const reflect::ClassBinding& binding,
                                   const driver::TestSuite& suite,
                                   const CoverageIndex& coverage) {
    std::vector<CasePlan> plans(suite.cases.size());
    if (!binding.has_cloner()) return plans;  // nothing to resume from
    for (std::size_t i = 0; i < suite.cases.size(); ++i) {
        const driver::TestCase& tc = suite.cases[i];
        const CoverageIndex::CaseCoverage* cc = coverage.find(tc.id);
        if (cc == nullptr || tc.calls.size() < 2) continue;

        // Boundaries: the case's distinct first-hit call indices.  A
        // checkpoint anywhere else would either be unusable (past every
        // first hit) or dominated by one of these.
        std::set<std::size_t> bounds;
        const std::size_t deepest = tc.calls.size() - 1;
        for (const auto& [key, h] : cc->first_hit) {
            if (h >= kMinResumeCall && h <= deepest) bounds.insert(h);
        }
        std::vector<std::size_t>& planned = plans[i].boundaries;
        for (const std::size_t k : bounds) {
            if (planned.size() >= kMaxCheckpointsPerCase) break;
            planned.push_back(k);
        }
    }
    return plans;
}

/// The deepest checkpoint at or before the posting's first hit
/// (execution is un-mutated until then), capturing the case's ladder if
/// this is its first use; null when no planned boundary is that shallow.
const driver::CaseCheckpoint* resume_point(const driver::TestRunner& runner,
                                           const reflect::ClassBinding& binding,
                                           const driver::TestCase& tc,
                                           const SitePosting& posting,
                                           const std::vector<CasePlan>& plans) {
    if (posting.case_index >= plans.size()) return nullptr;
    const CasePlan& plan = plans[posting.case_index];
    if (plan.boundaries.empty() || plan.boundaries.front() > posting.first_hit) {
        return nullptr;
    }
    const driver::CaseCheckpoint* best = nullptr;
    for (const driver::CaseCheckpoint& cp : plan.ladder(runner, binding, tc)) {
        if (cp.resume_call > posting.first_hit) break;
        best = &cp;
    }
    return best;
}

/// Run one covering case under the active mutant, from `from` when
/// given.
driver::TestResult run_one(const driver::TestRunner& runner,
                           const reflect::ClassBinding& binding,
                           const driver::TestCase& tc,
                           const driver::CaseCheckpoint* from, PruneStats& stats) {
    ++stats.executed_pairs;
    if (from != nullptr) {
        try {
            driver::TestResult r = runner.run_case_from(binding, tc, *from);
            ++stats.memoized_pairs;
            stats.memoized_calls += from->resume_call - 1;
            return r;
        } catch (const ReflectError&) {
            // Clone refused at evaluation time: full run is always sound.
        }
    }
    return runner.run_case(binding, tc);
}

/// One leg (suite or probe) of a pruned evaluation: run the cases that
/// reach the mutant's site, in suite order, folding each result against
/// its golden entry, until the fold saturates.  Every case not run
/// counts as pruned.  A leg that ran any case is counted on `obs` the
/// way classify_suite (`differential` false) or
/// classify_suite_differential would; the compares were folded in as
/// each case finished, so its span covers only the verdict's counters.
/// True when the leg consulted the site.
bool run_leg(const Mutant& mutant, const driver::TestRunner& runner,
             const reflect::ClassBinding& binding, const driver::TestSuite& suite,
             const oracle::GoldenRecord& golden, const SitePostings& postings,
             const std::vector<CasePlan>& plans, oracle::DifferentialFold& fold,
             bool differential, const obs::Context& obs, PruneStats& stats) {
    const std::vector<SitePosting>& covering = postings.of(mutant);
    std::size_t executed = 0;
    bool hit = false;
    if (!covering.empty()) {
        for (const SitePosting& posting : covering) {
            if (fold.saturated()) break;
            const driver::TestCase& tc = suite.cases[posting.case_index];
            // Before activation: a first use captures the ladder, and
            // capture must run the un-mutated component.
            const driver::CaseCheckpoint* from =
                resume_point(runner, binding, tc, posting, plans);
            driver::TestResult result;
            {
                const MutantActivation activation(mutant);  // resets hit()
                result = run_one(runner, binding, tc, from, stats);
                hit = MutationController::instance().hit() || hit;
            }
            ++executed;
            const oracle::GoldenEntry* entry = golden.find(posting.case_index, tc.id);
            if (entry != nullptr) fold.add(*entry, result);
        }
        const obs::SpanScope span(obs.tracer, "oracle-compare",
                                  differential ? "classify-suite-differential"
                                               : "classify-suite");
        fold.record(obs, differential);
    }
    stats.pruned_pairs += static_cast<std::uint64_t>(suite.cases.size() - executed);
    return hit;
}

}  // namespace

SitePostings::SitePostings(const CoverageIndex& coverage,
                           const driver::TestSuite& suite) {
    for (std::size_t i = 0; i < suite.cases.size(); ++i) {
        const CoverageIndex::CaseCoverage* cc = coverage.find(suite.cases[i].id);
        if (cc == nullptr) continue;
        for (const auto& [site, first_hit] : cc->first_hit) {
            by_site_[site].push_back(SitePosting{i, first_hit});
        }
    }
}

const std::vector<SitePosting>& SitePostings::of(const Mutant& mutant) const {
    static const std::vector<SitePosting> kNone;
    const auto it = by_site_.find(CoverageIndex::SiteKey{mutant.method, mutant.site_index});
    return it != by_site_.end() ? it->second : kNone;
}

const std::vector<driver::CaseCheckpoint>& CasePlan::ladder(
    const driver::TestRunner& runner, const reflect::ClassBinding& binding,
    const driver::TestCase& test_case) const {
    if (MutationController::instance().any_active()) {
        throw ContractError("checkpoint capture with a mutant active");
    }
    std::call_once(captured_, [&] {
        checkpoints_ = runner.capture_case(binding, test_case, boundaries);
    });
    return checkpoints_;
}

PrunePlan build_prune_plan(const reflect::ClassBinding& binding,
                           const driver::TestSuite& suite, CoverageIndex coverage,
                           const driver::TestSuite* probe_suite,
                           CoverageIndex probe_coverage) {
    PrunePlan plan;
    plan.coverage = std::move(coverage);
    plan.probe_coverage = std::move(probe_coverage);
    plan.postings = SitePostings(plan.coverage, suite);
    plan.case_plans = plan_ladders(binding, suite, plan.coverage);
    if (probe_suite != nullptr) {
        plan.probe_postings = SitePostings(plan.probe_coverage, *probe_suite);
        plan.probe_case_plans =
            plan_ladders(binding, *probe_suite, plan.probe_coverage);
    }
    return plan;
}

MutantOutcome evaluate_mutant_pruned(
    const Mutant& mutant, const driver::TestRunner& runner,
    const reflect::ClassBinding& binding, const driver::TestSuite& suite,
    const oracle::GoldenRecord& golden, const driver::TestRunner* probe_runner,
    const driver::TestSuite* probe_suite,
    const oracle::GoldenRecord& probe_golden, const PrunePlan& plan,
    const EngineOptions& options, PruneStats* stats) {
    if (options.manual_oracle) {
        throw ContractError(
            "pruned evaluation cannot honour a manual oracle; run unpruned");
    }
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

    PruneStats local;
    MutantOutcome outcome;
    outcome.mutant = &mutant;

    oracle::DifferentialFold fold(options.oracle);
    outcome.hit_by_suite =
        run_leg(mutant, runner, binding, suite, golden, plan.postings,
                plan.case_plans, fold, true, options.obs, local);
    outcome.reason = fold.kill().with_model;
    outcome.model_only = fold.kill().model_only();

    const auto finish = [&](MutantFate fate) {
        outcome.fate = fate;
        meter_fate(outcome);
        if (stats != nullptr) *stats += local;
        return outcome;
    };

    if (outcome.reason != oracle::KillReason::None) {
        return finish(MutantFate::Killed);
    }

    if (probe_runner == nullptr || probe_suite == nullptr) {
        return finish(outcome.hit_by_suite ? MutantFate::Alive
                                           : MutantFate::NotCovered);
    }

    // The probe always uses the full oracle, as evaluate_mutant's does.
    oracle::DifferentialFold probe_fold;
    const bool probe_hit =
        run_leg(mutant, *probe_runner, binding, *probe_suite, probe_golden,
                plan.probe_postings, plan.probe_case_plans, probe_fold, false,
                options.obs, local);

    if (probe_fold.kill().with_model != oracle::KillReason::None) {
        outcome.killed_by_probe = true;
        return finish(MutantFate::Alive);  // killable, just not by `suite`
    }
    return finish(probe_hit ? MutantFate::EquivalentPresumed
                            : MutantFate::NotCovered);
}

}  // namespace stc::mutation
