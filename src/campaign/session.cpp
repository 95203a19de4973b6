#include "stc/campaign/session.h"

#include <chrono>
#include <utility>

#include "stc/campaign/seed.h"
#include "stc/mutation/coverage.h"
#include "stc/support/error.h"

namespace stc::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Chained content hashing: h' = mix(h ^ fnv(token)).
std::uint64_t absorb(std::uint64_t h, std::string_view token) {
    return splitmix64(h ^ fnv1a64(token));
}
std::uint64_t absorb(std::uint64_t h, std::uint64_t value) {
    return splitmix64(h ^ value);
}

std::uint64_t absorb_suite(std::uint64_t h, const driver::TestSuite& suite) {
    h = absorb(h, suite.class_name);
    h = absorb(h, suite.seed);
    h = absorb(h, static_cast<std::uint64_t>(suite.cases.size()));
    for (const auto& tc : suite.cases) {
        h = absorb(h, tc.id);
        h = absorb(h, tc.transaction_text);
        h = absorb(h, tc.entry_state);
    }
    return h;
}

/// The campaign-level observability context flows into every layer
/// below: runner (test-case/method-call spans), oracle, and each mutant
/// evaluation.  Never into the fingerprint or the report.
mutation::EngineOptions engine_with_obs(const CampaignOptions& options) {
    mutation::EngineOptions engine = options.engine;
    engine.obs = options.obs;
    engine.runner.obs = options.obs;
    return engine;
}

/// The probe suite's runner observes after every call, so equivalence
/// probing sees state the main suite's end-of-case check would miss.
driver::RunnerOptions probe_runner_options(driver::RunnerOptions options) {
    options.observe_each_call = true;
    return options;
}

}  // namespace

driver::GeneratorOptions probe_generator(
    const driver::GeneratorOptions& suite_generator) {
    driver::GeneratorOptions probe = suite_generator;
    probe.seed = suite_generator.seed ^ 0x9e3779b97f4a7c15ULL;
    probe.cases_per_transaction = suite_generator.cases_per_transaction + 1;
    return probe;
}

std::string campaign_fingerprint(const CampaignOptions& options,
                                 const driver::TestSuite& suite,
                                 const std::vector<mutation::Mutant>& mutants,
                                 const driver::TestSuite* probe_suite) {
    std::uint64_t h = fnv1a64("stc-campaign-v1");
    h = absorb(h, options.seed);
    h = absorb_suite(h, suite);
    h = absorb(h, static_cast<std::uint64_t>(mutants.size()));
    for (const auto& m : mutants) h = absorb(h, m.id());
    const auto& oracle = options.engine.oracle;
    h = absorb(h, static_cast<std::uint64_t>((oracle.use_crashes ? 1 : 0) |
                                             (oracle.use_assertions ? 2 : 0) |
                                             (oracle.use_output_diff ? 4 : 0)));
    const auto& runner = options.engine.runner;
    // Bits 0 and 2 are the retired invariant-checking and
    // capture-reports toggles, always on: kept so fingerprints (and thus
    // resumable stores) stay valid.
    h = absorb(h, static_cast<std::uint64_t>(1 | 2 |
                                             (runner.observe_each_call ? 4 : 0)));
    // The model oracle changes what "killed" means, so it is campaign
    // identity — but only when actually engaged, keeping every
    // pre-model store fingerprint (and thus resumability) intact.
    if (runner.model != nullptr && runner.model->valid() && oracle.use_model) {
        h = absorb(h, "model-oracle");
    }
    // Same pattern for the fast execution tier: fates are identical by
    // contract, but the token still enters the identity (only when the
    // tier is engaged, preserving old stores) so a prune-rule revision —
    // kPruneIndexVersion bump — invalidates rather than resumes.
    if (options.prune && !options.engine.manual_oracle) {
        h = absorb(h, mutation::kPruneIndexToken);
    }
    if (probe_suite != nullptr) h = absorb_suite(h, *probe_suite);
    return to_hex(h);
}

Session::Session(const reflect::Registry& bindings, const driver::TestSuite& suite,
                 const driver::TestSuite* probe_suite,
                 const std::vector<mutation::Mutant>& mutants,
                 const CampaignOptions& options)
    : suite_(suite),
      probe_suite_(probe_suite),
      mutants_(mutants),
      seed_(options.seed),
      engine_(engine_with_obs(options)),
      pruned_(options.prune && !engine_.manual_oracle),
      model_(engine_.runner.model != nullptr && engine_.runner.model->valid() &&
             engine_.oracle.use_model),
      fingerprint_(campaign_fingerprint(options, suite, mutants, probe_suite)),
      items_(build_work_list(options.seed, fingerprint_, suite, mutants)),
      binding_(bindings.at(suite.class_name)),
      runner_(bindings, engine_.runner),
      probe_runner_(bindings, probe_runner_options(engine_.runner)) {
    const obs::Context& obs = engine_.obs;

    // Baseline golden runs, captured once, serially, before any executor
    // starts (the paper validates the original program's outputs up
    // front).  With pruning engaged the SAME single run also records the
    // coverage-signature index — observation is free.
    mutation::CoverageIndex coverage;
    mutation::CoverageIndex probe_coverage;
    {
        const auto phase_start = Clock::now();
        const obs::SpanScope span(obs.tracer, "phase", "golden-baseline");
        if (pruned_) {
            mutation::CoveredRun covered =
                mutation::run_with_coverage(bindings, engine_.runner, suite);
            golden_ = oracle::GoldenRecord::from(covered.result);
            coverage = std::move(covered.index);
            if (probe_suite != nullptr) {
                mutation::CoveredRun probe_covered = mutation::run_with_coverage(
                    bindings, probe_runner_options(engine_.runner), *probe_suite);
                probe_golden_ = oracle::GoldenRecord::from(probe_covered.result);
                probe_coverage = std::move(probe_covered.index);
            }
        } else {
            golden_ = oracle::GoldenRecord::from(runner_.run(suite));
            if (probe_suite != nullptr) {
                probe_golden_ = oracle::GoldenRecord::from(probe_runner_.run(*probe_suite));
            }
        }
        obs.metrics.observe_ms("campaign.phase.baseline_ms", ms_since(phase_start));
    }

    // The prune plan: per-site postings and each case's checkpoint
    // boundaries.  It executes nothing: the evaluator captures a case's
    // ladder the first time a mutant runs that case, on whichever pool
    // thread, sandbox child or daemon gets there first.  Checkpoints
    // carry the lockstep model's state, so memoization holds under a
    // model too.
    if (pruned_) {
        const auto phase_start = Clock::now();
        const obs::SpanScope span(obs.tracer, "phase", "prune-plan");
        plan_ = mutation::build_prune_plan(binding_, suite, std::move(coverage),
                                           probe_suite, std::move(probe_coverage));
        obs.metrics.observe_ms("campaign.phase.prune_plan_ms", ms_since(phase_start));
    }
}

mutation::MutantOutcome Session::evaluate(std::size_t index,
                                          mutation::PruneStats* stats) const {
    const mutation::Mutant& mutant = mutants_.at(index);
    if (pruned_) {
        return mutation::evaluate_mutant_pruned(
            mutant, runner_, binding_, suite_, golden_,
            probe_suite_ != nullptr ? &probe_runner_ : nullptr, probe_suite_,
            probe_golden_, plan_, engine_, stats);
    }
    return mutation::evaluate_mutant(
        mutant, runner_, suite_, golden_,
        probe_suite_ != nullptr ? &probe_runner_ : nullptr, probe_suite_,
        probe_golden_, engine_);
}

Ledger::Ledger(const Session& session, ExecutorKind executor,
               const std::string& store_path, Emit emit)
    : session_(session),
      executor_(executor),
      emit_(emit ? std::move(emit) : Emit([](const JsonObject&) {})),
      outcomes_(session.mutants().size()) {
    if (!store_path.empty()) {
        store_ = std::make_unique<ResultStore>(store_path, session.fingerprint());
    }
}

std::vector<WorkItem> Ledger::start(std::size_t jobs) {
    const Session& s = session_;
    emit_(JsonObject()
              .set("event", "campaign-start")
              .set("campaign", s.fingerprint())
              .set("class", s.suite().class_name)
              .set("seed", s.seed())
              .set("jobs", static_cast<std::uint64_t>(jobs))
              .set("mutants", static_cast<std::uint64_t>(s.mutants().size()))
              .set("cases", static_cast<std::uint64_t>(s.suite().cases.size()))
              .set("probe", s.probe_suite() != nullptr)
              .set("model", s.model())
              .set("prune", s.pruned())
              .set("baseline_clean", s.baseline_clean()));
    if (s.pruned() && executor_ != ExecutorKind::Remote) {
        // Coverage-index record (docs/FORMATS.md §12): what the golden
        // run learned, and the digest a reader can correlate across the
        // with/without-prune telemetry of one campaign.
        const mutation::PrunePlan& plan = s.plan();
        std::size_t checkpoints = 0;  // planned resume points
        for (const auto& cp : plan.case_plans) checkpoints += cp.boundaries.size();
        for (const auto& cp : plan.probe_case_plans) {
            checkpoints += cp.boundaries.size();
        }
        emit_(JsonObject()
                  .set("event", "coverage-index")
                  .set("campaign", s.fingerprint())
                  .set("version", mutation::kPruneIndexVersion)
                  .set("cases", static_cast<std::uint64_t>(plan.coverage.cases().size()))
                  .set("pairs", static_cast<std::uint64_t>(plan.coverage.pair_count()))
                  .set("probe_pairs",
                       static_cast<std::uint64_t>(plan.probe_coverage.pair_count()))
                  .set("checkpoints", static_cast<std::uint64_t>(checkpoints))
                  .set("digest", to_hex(plan.coverage.fingerprint())));
    }

    // Resume pass (single-threaded, before any executor starts): restore
    // finished items, queue the rest.
    const obs::Context& obs = s.engine().obs;
    const auto resume_start = Clock::now();
    std::vector<WorkItem> pending;
    {
        const obs::SpanScope span(obs.tracer, "phase", "resume-scan");
        for (const WorkItem& item : s.items()) {
            const ItemRecord* record =
                store_ == nullptr ? nullptr : store_->find(item.key);
            mutation::MutantOutcome& outcome = outcomes_[item.index];
            if (record == nullptr || !restore_outcome(*record, &outcome)) {
                pending.push_back(item);  // missing or unreadable: execute
                continue;
            }
            outcome.mutant = &s.mutants()[item.index];
            ++resumed_;
            emit_(JsonObject()
                      .set("event", "item-resumed")
                      .set("item", static_cast<std::uint64_t>(item.index))
                      .set("mutant", item.mutant_id)
                      .set("fate", record->fate)
                      .set("reason", record->reason)
                      .set("model_only", record->model_only));
        }
    }
    obs.metrics.observe_ms("campaign.phase.resume_ms", ms_since(resume_start));
    return pending;
}

void Ledger::finish(const WorkItem& item, mutation::MutantOutcome outcome,
                    std::uint64_t worker, double wall_ms,
                    const mutation::PruneStats& stats, bool shrunk) {
    outcome.mutant = &session_.mutants()[item.index];
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (shrunk) shrunk_.fetch_add(1, std::memory_order_relaxed);
    executed_pairs_.fetch_add(stats.executed_pairs, std::memory_order_relaxed);
    pruned_pairs_.fetch_add(stats.pruned_pairs, std::memory_order_relaxed);
    memoized_pairs_.fetch_add(stats.memoized_pairs, std::memory_order_relaxed);
    memoized_calls_.fetch_add(stats.memoized_calls, std::memory_order_relaxed);

    JsonObject finish;
    finish.set("event", "item-finish")
        .set("item", static_cast<std::uint64_t>(item.index))
        .set("mutant", item.mutant_id)
        .set("worker", worker)
        .set("fate", mutation::to_string(outcome.fate))
        .set("reason", oracle::to_string(outcome.reason))
        .set("hit", outcome.hit_by_suite)
        .set("probe_kill", outcome.killed_by_probe)
        .set("model_only", outcome.model_only)
        .set("shrunk", shrunk)
        .set("item_seed", item.item_seed)
        .set("wall_ms", wall_ms);
    if (session_.pruned() && executor_ != ExecutorKind::Remote) {
        finish.set("executed_pairs", stats.executed_pairs)
            .set("pruned_pairs", stats.pruned_pairs)
            .set("memoized_pairs", stats.memoized_pairs);
    }
    if (!outcome.sandbox.empty()) finish.set("sandbox", outcome.sandbox);
    emit_(finish);

    if (store_ != nullptr) {
        ItemRecord record;
        record.key = item.key;
        record.mutant_id = item.mutant_id;
        record.item_index = item.index;
        record.fate = mutation::to_string(outcome.fate);
        record.reason = oracle::to_string(outcome.reason);
        record.hit_by_suite = outcome.hit_by_suite;
        record.killed_by_probe = outcome.killed_by_probe;
        record.model_only = outcome.model_only;
        record.item_seed = item.item_seed;
        record.wall_ms = wall_ms;
        record.sandbox = outcome.sandbox;
        store_->append(record);
    }
    outcomes_[item.index] = std::move(outcome);
}

CampaignResult Ledger::end(std::size_t workers, std::uint64_t executor_count,
                           double wall_ms) {
    if (store_ != nullptr && store_->failed()) {
        throw Error("cannot write result store: " + store_->path());
    }
    const bool pool = executor_ == ExecutorKind::Pool;
    CampaignResult out;
    out.fingerprint = session_.fingerprint();
    out.run.outcomes = std::move(outcomes_);
    out.run.golden = session_.golden();
    out.run.baseline_clean = session_.baseline_clean();
    CampaignStats& stats = out.stats;
    stats.items = session_.items().size();
    stats.executed = executed_.load();
    stats.resumed = resumed_;
    stats.shrunk = shrunk_.load();
    stats.workers = workers;
    (pool ? stats.steals : stats.respawns) = executor_count;
    stats.wall_ms = wall_ms;
    stats.pruned = session_.pruned();
    stats.executed_pairs = executed_pairs_.load();
    stats.pruned_pairs = pruned_pairs_.load();
    stats.memoized_pairs = memoized_pairs_.load();
    stats.memoized_calls = memoized_calls_.load();

    // One kill-reason declaration per kind, so `concat stats` renders
    // every detector as a row — zero-count included — instead of
    // silently dropping the kinds that never fired.
    const mutation::MutationRun& run = out.run;
    for (const oracle::KillReason reason : oracle::kAllKillReasons) {
        if (reason == oracle::KillReason::None) continue;
        emit_(JsonObject()
                  .set("event", "kill-reason")
                  .set("reason", oracle::to_string(reason))
                  .set("kills", static_cast<std::uint64_t>(run.kills_by(reason))));
    }
    const char* executor_key = pool ? "steals" : "respawns";
    emit_(JsonObject()
              .set("event", "campaign-end")
              .set("campaign", out.fingerprint)
              .set("items", static_cast<std::uint64_t>(stats.items))
              .set("executed", static_cast<std::uint64_t>(stats.executed))
              .set("resumed", static_cast<std::uint64_t>(stats.resumed))
              .set("killed", static_cast<std::uint64_t>(run.killed()))
              .set("killed_model_only",
                   static_cast<std::uint64_t>(run.kills_model_only()))
              .set("equivalent", static_cast<std::uint64_t>(run.equivalent()))
              .set("not_covered", static_cast<std::uint64_t>(run.not_covered()))
              .set("score", run.score())
              .set("workers", static_cast<std::uint64_t>(stats.workers))
              .set(executor_key, executor_count)
              .set("pruned", stats.pruned)
              .set("executed_pairs", stats.executed_pairs)
              .set("pruned_pairs", stats.pruned_pairs)
              .set("memoized_pairs", stats.memoized_pairs)
              .set("memoized_calls", stats.memoized_calls)
              .set("wall_ms", stats.wall_ms));

    const obs::Metrics& metrics = session_.engine().obs.metrics;
    metrics.observe_ms("campaign.phase.items_ms", stats.wall_ms);
    metrics.add("campaign.items", stats.items);
    metrics.add("campaign.executed", stats.executed);
    metrics.add("campaign.resumed", stats.resumed);
    metrics.add(std::string("campaign.") + executor_key, executor_count);
    metrics.add("campaign.shrunk", stats.shrunk);
    if (stats.pruned) {
        metrics.add("campaign.executed_pairs", stats.executed_pairs);
        metrics.add("campaign.pruned_pairs", stats.pruned_pairs);
        metrics.add("campaign.memoized_pairs", stats.memoized_pairs);
        metrics.add("campaign.memoized_calls", stats.memoized_calls);
    }
    return out;
}

}  // namespace stc::campaign
