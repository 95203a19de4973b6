#include "stc/mutation/prune.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string_view>

#include "stc/support/strings.h"

namespace stc::mutation {

namespace {

/// Cap on checkpoints captured per distinct case (boundaries are the
/// case's distinct first-hit call indices, shallowest first).
constexpr std::size_t kMaxCheckpointsPerCase = 6;
/// Capture no checkpoint shallower than this body-call index (resuming
/// at call 1 saves only the constructor).
constexpr std::size_t kMinResumeCall = 2;

/// A string prefixed by its length, so no content can read as a
/// delimiter.
void append_counted(std::string& out, std::string_view text) {
    support::append_integer(out, text.size());
    out += ':';
    out += text;
}

/// Identity-exact encoding of one argument value.  Reals are written in
/// their shortest round-trip form and strings with their length, so two
/// distinct values never share an encoding.  Pointer/object arguments
/// encode their *address*: two prefixes only share a checkpoint when
/// they pass the very same objects, which is the only sharing that is
/// sound without knowing the component's semantics (value-equal but
/// distinct elements could later be distinguished by identity, e.g.
/// CObList::Find).
void encode_value(std::string& out, const domain::Value& v) {
    switch (v.kind()) {
        case domain::ValueKind::Empty: out += 'e'; break;
        case domain::ValueKind::Int:
            out += 'i';
            support::append_integer(out, v.as_int());
            break;
        case domain::ValueKind::Real: {
            out += 'r';
            char buffer[32];
            const auto [end, ec] =
                std::to_chars(buffer, buffer + sizeof buffer, v.as_number());
            (void)ec;  // the shortest form of a double fits in 32 bytes
            out.append(buffer, end);
            break;
        }
        case domain::ValueKind::String:
            out += 's';
            append_counted(out, v.as_string());
            break;
        case domain::ValueKind::Pointer:
            out += 'p';
            support::append_integer(
                out, reinterpret_cast<std::uintptr_t>(v.as_pointer()), 16);
            break;
        case domain::ValueKind::Object:
            out += 'o';
            support::append_integer(
                out, reinterpret_cast<std::uintptr_t>(v.as_object().ptr), 16);
            break;
    }
    out += ';';
}

/// Signature of a case's birth prefix: entry state plus calls[0..depth).
/// Cases with equal signatures execute identically up to body call
/// `depth`, so a checkpoint captured from one serves them all.
std::string prefix_signature(const driver::TestCase& tc, std::size_t depth) {
    std::string out;
    append_counted(out, tc.entry_state);
    out += '\x1f';
    for (std::size_t j = 0; j < depth && j < tc.calls.size(); ++j) {
        const driver::MethodCall& call = tc.calls[j];
        out += call.method_name;
        out += '(';
        for (const domain::Value& v : call.arguments) encode_value(out, v);
        out += ')';
        out += call.expect_rejection ? '!' : '.';
        out += call.is_destructor ? '~' : '.';
        out += '\x1f';
    }
    return out;
}

std::vector<CasePlan> build_ladders(
    const driver::TestRunner& runner, const reflect::ClassBinding& binding,
    const driver::TestSuite& suite, const CoverageIndex& coverage,
    std::map<std::string, driver::CaseCheckpoint>& cache) {
    std::vector<CasePlan> plans(suite.cases.size());
    for (std::size_t i = 0; i < suite.cases.size(); ++i) {
        const driver::TestCase& tc = suite.cases[i];
        const CoverageIndex::CaseCoverage* cc = coverage.find(tc.id);
        if (cc == nullptr || tc.calls.size() < 2) continue;

        // Candidate boundaries: the case's distinct first-hit call
        // indices.  A checkpoint anywhere else would either be unusable
        // (past every first hit) or dominated by one of these.
        std::set<std::size_t> bounds;
        const std::size_t deepest = tc.calls.size() - 1;
        for (const auto& [key, h] : cc->first_hit) {
            if (h >= kMinResumeCall && h <= deepest) bounds.insert(h);
        }

        std::vector<driver::CaseCheckpoint>& ladder = plans[i].checkpoints;
        std::vector<std::size_t> need;
        std::size_t kept = 0;
        for (const std::size_t k : bounds) {
            if (kept >= kMaxCheckpointsPerCase) break;
            ++kept;
            const auto it = cache.find(prefix_signature(tc, k));
            if (it != cache.end()) {
                driver::CaseCheckpoint shared = it->second;
                shared.resume_call = k;  // same prefix, this case's depth
                ladder.push_back(std::move(shared));
            } else {
                need.push_back(k);
            }
        }
        if (!need.empty()) {
            for (driver::CaseCheckpoint& cp :
                 runner.capture_case(binding, tc, need)) {
                cache.emplace(prefix_signature(tc, cp.resume_call), cp);
                ladder.push_back(std::move(cp));
            }
        }
        std::sort(ladder.begin(), ladder.end(),
                  [](const driver::CaseCheckpoint& a,
                     const driver::CaseCheckpoint& b) {
                      return a.resume_call < b.resume_call;
                  });
    }
    return plans;
}

/// Run one covering case, resumed from the deepest checkpoint at or
/// before the posting's first hit (execution is un-mutated until then).
driver::TestResult run_one(const driver::TestRunner& runner,
                           const reflect::ClassBinding& binding,
                           const driver::TestCase& tc, const SitePosting& posting,
                           const std::vector<CasePlan>& plans, PruneStats& stats) {
    ++stats.executed_pairs;
    const driver::CaseCheckpoint* best = nullptr;
    if (posting.case_index < plans.size()) {
        for (const driver::CaseCheckpoint& cp : plans[posting.case_index].checkpoints) {
            if (cp.resume_call > posting.first_hit) break;
            best = &cp;
        }
    }
    if (best != nullptr) {
        try {
            driver::TestResult r = runner.run_case_from(binding, tc, *best);
            ++stats.memoized_pairs;
            stats.memoized_calls += best->resume_call - 1;
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
        const MutantActivation activation(mutant);
        for (const SitePosting& posting : covering) {
            if (fold.saturated()) break;
            const driver::TestCase& tc = suite.cases[posting.case_index];
            const driver::TestResult result =
                run_one(runner, binding, tc, posting, plans, stats);
            ++executed;
            const oracle::GoldenEntry* entry = golden.find(posting.case_index, tc.id);
            if (entry != nullptr) fold.add(*entry, result);
        }
        hit = MutationController::instance().hit();
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

PrunePlan build_prune_plan(const driver::TestRunner& runner,
                           const reflect::ClassBinding& binding,
                           const driver::TestSuite& suite, CoverageIndex coverage,
                           const driver::TestRunner* probe_runner,
                           const driver::TestSuite* probe_suite,
                           CoverageIndex probe_coverage,
                           const PrunePlanOptions& options) {
    PrunePlan plan;
    plan.coverage = std::move(coverage);
    plan.probe_coverage = std::move(probe_coverage);
    plan.postings = SitePostings(plan.coverage, suite);
    plan.case_plans.resize(suite.cases.size());
    if (probe_suite != nullptr) {
        plan.probe_postings = SitePostings(plan.probe_coverage, *probe_suite);
        plan.probe_case_plans.resize(probe_suite->cases.size());
    }
    if (!options.memoize || !binding.has_cloner()) return plan;

    {
        std::map<std::string, driver::CaseCheckpoint> cache;
        plan.case_plans =
            build_ladders(runner, binding, suite, plan.coverage, cache);
    }
    if (probe_suite != nullptr && probe_runner != nullptr) {
        std::map<std::string, driver::CaseCheckpoint> cache;
        plan.probe_case_plans = build_ladders(*probe_runner, binding, *probe_suite,
                                              plan.probe_coverage, cache);
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
