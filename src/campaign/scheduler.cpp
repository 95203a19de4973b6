#include "stc/campaign/scheduler.h"

#include <chrono>
#include <optional>

#include "stc/campaign/reproducer.h"
#include "stc/campaign/session.h"
#include "stc/campaign/thread_pool.h"
#include "stc/mutation/controller.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/worker_pool.h"
#include "stc/support/error.h"

namespace stc::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// --shrink-corpus: the TFM kills shrink on, and the killer routine's
/// options over the session's runner and oracle.
struct ShrinkCorpus {
    tfm::Graph graph;
    ReproducerOptions reproducer;
};

/// Persist a KILLED mutant's reproducer: its first killing case in
/// suite order, shrunk and persisted by reproduce_killer.  A pure
/// function of (mutant, suite, spec, item_seed) — no RNG, no shared
/// mutable state — so the corpus is byte-identical at any --jobs.  True
/// when a reproducer was persisted.
bool persist_kill(const Session& session, const ShrinkCorpus& shrink,
                  const WorkItem& item) {
    const mutation::Mutant& mutant = session.mutants()[item.index];
    const mutation::EngineOptions& engine = session.engine();
    for (const driver::TestCase& tc : session.suite().cases) {
        const oracle::GoldenEntry* golden_entry = session.golden().find(tc.id);
        if (golden_entry == nullptr) continue;
        driver::TestResult observed;
        {
            const mutation::MutantActivation activation(mutant);
            observed = session.runner().run_case(session.binding(), tc);
        }
        const oracle::KillReason reason = oracle::classify(
            *golden_entry, observed, engine.oracle, engine.manual_oracle);
        if (reason != oracle::KillReason::None) {
            return !reproduce_killer(shrink.reproducer, shrink.graph, mutant,
                                     tc, reason, item.item_seed)
                        .path.empty();
        }
    }
    return false;  // no single case reproduces it
}

/// The in-process executor: each pending item evaluates on some pool
/// worker.  Returns the pool's steal count.
std::uint64_t run_pool(const Session& session, Ledger& ledger,
                       const std::vector<WorkItem>& pending, std::size_t jobs,
                       const CampaignOptions& options, TelemetrySink& trace,
                       const ShrinkCorpus* shrink) {
    std::vector<WorkStealingPool::Task> tasks;
    tasks.reserve(pending.size());
    for (const WorkItem& item : pending) {
        tasks.push_back([&, item = &item](const WorkerContext& context) {
            // The whole item on its worker: evaluation plus the
            // completion path (telemetry, store append) around it.
            const obs::Tracer& tracer = options.obs.tracer;
            const obs::SpanScope item_span(
                tracer, "campaign", "work-item",
                tracer.enabled()
                    ? JsonObject()
                          .set("item", static_cast<std::uint64_t>(item->index))
                          .set("mutant", item->mutant_id)
                    : JsonObject());
            const auto item_start = Clock::now();
            trace.emit(
                JsonObject()
                    .set("event", "item-start")
                    .set("item", static_cast<std::uint64_t>(item->index))
                    .set("mutant", item->mutant_id)
                    .set("worker", static_cast<std::uint64_t>(context.worker))
                    .set("queue", static_cast<std::uint64_t>(context.queue_depth))
                    .set("stolen", context.stolen));
            mutation::PruneStats stats;
            const mutation::MutantOutcome outcome =
                session.evaluate(item->index, &stats);
            const bool shrunk = shrink != nullptr &&
                                outcome.fate == mutation::MutantFate::Killed &&
                                persist_kill(session, *shrink, *item);
            ledger.finish(*item, outcome, context.worker, ms_since(item_start),
                          stats, shrunk);
        });
    }
    const obs::SpanScope items_span(options.obs.tracer, "phase", "item-execution");
    return WorkStealingPool(jobs).run(std::move(tasks));
}

/// The isolated executor: forked sandbox workers driven by a
/// single-threaded event loop (forking from the multithreaded pool would
/// clone locks held by other threads).  The request payload is the
/// item's index; the reply is the encoded outcome.  A worker that
/// crashes, hangs, or trips a limit yields no reply — the decoded
/// termination becomes the item's outcome (Killed / Crash,
/// MutantOutcome::sandbox set) and the worker is respawned for the next
/// item.  Returns the respawn count.
std::size_t run_sandbox(const Session& session, Ledger& ledger,
                        const std::vector<WorkItem>& pending, std::size_t jobs,
                        const CampaignOptions& options, TelemetrySink& trace) {
    const obs::SpanScope items_span(options.obs.tracer, "phase", "item-execution");
    std::vector<std::string> payloads;
    payloads.reserve(pending.size());
    for (const WorkItem& item : pending) payloads.push_back(std::to_string(item.index));

    // The session was built pre-fork: the child inherits the golden
    // records copy-on-write and never writes them, so the pages stay
    // shared.  Each child captures the checkpoint ladders of the cases
    // it runs (nothing captured them before the fork).
    const sandbox::Job job = [&](const std::string& payload) {
        mutation::PruneStats stats;
        const mutation::MutantOutcome outcome =
            session.evaluate(std::stoull(payload), &stats);
        return sandbox::encode_outcome(outcome, session.pruned() ? &stats : nullptr);
    };

    sandbox::PoolOptions pool_options;
    pool_options.workers = jobs;
    pool_options.limits = options.sandbox;
    pool_options.obs = options.obs;
    pool_options.on_event = [&](const sandbox::WorkerEvent& event) {
        JsonObject o;
        o.set("event", sandbox::to_string(event.kind))
            .set("worker", static_cast<std::uint64_t>(event.worker))
            .set("pid", event.pid);
        if (!event.detail.empty()) o.set("detail", event.detail);
        trace.emit(o);
    };
    pool_options.on_dispatch = [&](std::size_t slot, std::size_t worker) {
        const WorkItem& item = pending[slot];
        trace.emit(JsonObject()
                       .set("event", "item-start")
                       .set("item", static_cast<std::uint64_t>(item.index))
                       .set("mutant", item.mutant_id)
                       .set("worker", static_cast<std::uint64_t>(worker)));
    };

    // Declared after items_span: the destructor's reaping and
    // worker-exit events stay inside the item phase.
    sandbox::WorkerPool pool(job, std::move(pool_options));
    pool.run(payloads, [&](std::size_t slot, sandbox::TaskResult result) {
        mutation::MutantOutcome outcome;
        mutation::PruneStats stats;
        if (result.ok()) {
            const auto reply = JsonObject::parse(result.payload);
            const auto decoded =
                reply ? sandbox::decode_outcome(*reply) : std::nullopt;
            outcome = decoded.value_or(sandbox::outcome_from_termination(
                "worker-exit:-3"));  // garbled reply
            if (reply) stats = sandbox::decode_outcome_stats(*reply);
        } else {
            outcome = sandbox::outcome_from_termination(result.outcome());
        }
        // The children's mutation.* instruments die with them; mirror
        // the fate counter and evaluation latency here.
        options.obs.metrics.add(std::string("mutation.fate.") +
                                mutation::to_string(outcome.fate));
        options.obs.metrics.observe_ms("mutation.eval_ms", result.wall_ms);
        ledger.finish(pending[slot], std::move(outcome), result.worker,
                      result.wall_ms, stats);
    });
    return pool.stats().respawned;
}

}  // namespace

CampaignScheduler::CampaignScheduler(const reflect::Registry& bindings,
                                     CampaignOptions options)
    : bindings_(bindings), options_(std::move(options)) {}

std::string CampaignScheduler::fingerprint(
    const driver::TestSuite& suite, const std::vector<mutation::Mutant>& mutants,
    const driver::TestSuite* probe_suite) const {
    return campaign_fingerprint(options_, suite, mutants, probe_suite);
}

CampaignResult CampaignScheduler::run(
    const driver::TestSuite& suite, const std::vector<mutation::Mutant>& mutants,
    const driver::TestSuite* probe_suite) const {
    const std::size_t jobs =
        options_.jobs == 0 ? WorkStealingPool::hardware_workers() : options_.jobs;
    const bool shrink_kills = !options_.shrink_corpus_dir.empty();
    if (shrink_kills && options_.spec == nullptr) {
        throw ContractError(
            "CampaignOptions::shrink_corpus_dir requires CampaignOptions::spec "
            "(the shrinker needs the TFM and the value domains)");
    }
    if (options_.isolate && shrink_kills) {
        throw ContractError(
            "CampaignOptions::isolate cannot be combined with "
            "shrink_corpus_dir: the shrinker re-executes mutants inside the "
            "orchestrator process, defeating the isolation");
    }

    const obs::Tracer& tracer = options_.obs.tracer;
    obs::Tracer::Span campaign_span =
        tracer.begin("phase", "campaign", JsonObject().set("class", suite.class_name));
    const Session session(bindings_, suite, probe_suite, mutants, options_);
    campaign_span.args.set("fingerprint", session.fingerprint());

    TelemetrySink trace;
    if (!options_.telemetry_path.empty()) {
        // A resumable campaign appends: the telemetry of the generation
        // being resumed is evidence, not scratch.
        trace = TelemetrySink::to_file(options_.telemetry_path,
                                       options_.store_path.empty()
                                           ? TelemetrySink::OpenMode::Truncate
                                           : TelemetrySink::OpenMode::Append);
    }
    Ledger ledger(session,
                  options_.isolate ? ExecutorKind::Sandbox : ExecutorKind::Pool,
                  options_.store_path,
                  [&trace](const JsonObject& event) { trace.emit(event); });
    const std::vector<WorkItem> pending = ledger.start(jobs);

    std::optional<ShrinkCorpus> shrink;
    if (shrink_kills) {
        ReproducerOptions& r =
            shrink.emplace(ShrinkCorpus{options_.spec->build_tfm(), {}}).reproducer;
        r.spec = options_.spec;
        r.registry = &bindings_;
        r.completions = options_.completions;
        r.runner = session.engine().runner;
        r.oracle = session.engine().oracle;
        r.corpus_dir = options_.shrink_corpus_dir;
        r.max_shrink_steps = options_.max_shrink_steps;
        r.obs = options_.obs;
    }

    const auto t0 = Clock::now();
    const std::uint64_t executor_count =
        options_.isolate
            ? run_sandbox(session, ledger, pending, jobs, options_, trace)
            : run_pool(session, ledger, pending, jobs, options_, trace,
                       shrink ? &*shrink : nullptr);
    CampaignResult out = ledger.end(jobs, executor_count, ms_since(t0));
    tracer.end(std::move(campaign_span));
    return out;
}

}  // namespace stc::campaign
