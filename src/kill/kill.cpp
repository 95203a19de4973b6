#include "stc/kill/kill.h"

#include <map>
#include <ostream>
#include <utility>

#include "stc/campaign/reproducer.h"
#include "stc/campaign/seed.h"
#include "stc/campaign/thread_pool.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"

namespace stc::kill {

namespace {

double score_of(std::size_t killed, std::size_t total,
                std::size_t equivalent) noexcept {
    const std::size_t denom = total - equivalent;
    if (denom == 0) return 1.0;
    return static_cast<double>(killed) / static_cast<double>(denom);
}

std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

double KillRun::score_before() const noexcept {
    return score_of(killed_before, total, equivalent);
}

double KillRun::score_after() const noexcept {
    return score_of(killed_after, total, equivalent);
}

KillRun kill_survivors(const KillContext& context,
                       std::vector<campaign::ItemRecord>& records,
                       const KillOptions& options) {
    if (context.spec == nullptr || context.registry == nullptr ||
        context.mutants == nullptr) {
        throw ContractError("kill_survivors needs spec, registry and mutants");
    }
    const obs::SpanScope run_span(options.obs.tracer, "phase", "kill-run");

    KillRun run;
    std::vector<std::size_t> survivor_indices;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::string& fate = records[i].fate;
        if (fate == "killed") ++run.killed_before;
        if (fate == "equivalent") ++run.equivalent;
        if (fate == "alive") survivor_indices.push_back(i);
    }
    run.total = records.size();
    run.survivors = survivor_indices.size();
    run.killed_after = run.killed_before;

    std::map<std::string, const mutation::Mutant*> by_id;
    for (const mutation::Mutant& mutant : *context.mutants) {
        by_id.emplace(mutant.id(), &mutant);
    }
    for (const std::size_t i : survivor_indices) {
        if (by_id.find(records[i].mutant_id) == by_id.end()) {
            throw Error("result store names an unknown mutant: " +
                        records[i].mutant_id);
        }
    }

    campaign::TelemetrySink telemetry = options.telemetry;
    {
        obs::JsonObject event;
        event.set("event", "kill-run-start")
            .set("class", context.spec->class_name)
            .set("survivors", static_cast<std::uint64_t>(run.survivors))
            .set("budget_states",
                 static_cast<std::uint64_t>(options.search.budget_states))
            .set("max_depth", static_cast<std::uint64_t>(options.search.max_depth))
            .set("seed", options.seed);
        telemetry.emit(std::move(event));
    }

    const ProductSearch search(*context.spec, *context.registry,
                               context.completions, options.search);
    const tfm::Graph tfm_graph = context.spec->build_tfm();
    const tfm::Graph widened_graph =
        ProductSearch::specification_graph(*context.spec);
    campaign::ReproducerOptions reproducer;
    reproducer.spec = context.spec;
    reproducer.registry = context.registry;
    reproducer.completions = context.completions;
    reproducer.runner = options.search.runner;
    reproducer.oracle = options.search.oracle;
    reproducer.corpus_dir = options.corpus_dir;
    reproducer.max_shrink_steps = options.max_shrink_steps;
    reproducer.obs = options.obs;

    // One survivor end-to-end (search -> shrink -> persist); internally
    // sequential and seed-deterministic, so item results are a pure
    // function of (survivor, options) and --jobs cannot perturb them.
    const auto process = [&](std::size_t record_index) -> KillItem {
        KillItem item;
        item.record_index = record_index;
        item.mutant_id = records[record_index].mutant_id;
        const mutation::Mutant& mutant = *by_id.at(item.mutant_id);

        const SearchOutcome outcome = search.find_killer(mutant);
        item.status = outcome.status;
        item.stats = outcome.stats;
        item.widened = outcome.widened;
        if (outcome.status != SearchStatus::Verified) return item;

        item.reason = outcome.reason;
        item.model_only = outcome.model_only;
        item.candidate_calls = outcome.killer.calls.size();
        campaign::Reproducer killer = campaign::reproduce_killer(
            reproducer, outcome.widened ? widened_graph : tfm_graph, mutant,
            outcome.killer, outcome.reason,
            campaign::derive_item_seed(options.seed, item.mutant_id,
                                       "kill-corpus"));
        item.shrink = std::move(killer.shrink);
        item.killer = item.shrink.minimized;
        item.corpus_file = basename_of(killer.path);
        return item;
    };

    std::vector<KillItem> items(survivor_indices.size());
    std::vector<campaign::WorkStealingPool::Task> tasks;
    tasks.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        tasks.push_back([&, i](const campaign::WorkerContext&) {
            items[i] = process(survivor_indices[i]);
        });
    }
    campaign::WorkStealingPool(options.jobs).run(std::move(tasks));

    // Fold results back in survivor order: record updates and telemetry
    // are emitted here, post-hoc, so the stream never depends on which
    // worker finished first.
    for (KillItem& item : items) {
        {
            obs::JsonObject event;
            event.set("event", "kill-start").set("mutant", item.mutant_id);
            telemetry.emit(std::move(event));
        }
        if (item.status == SearchStatus::Verified) {
            obs::JsonObject candidate;
            candidate.set("event", "kill-candidate")
                .set("mutant", item.mutant_id)
                .set("calls", static_cast<std::uint64_t>(item.candidate_calls))
                .set("states",
                     static_cast<std::uint64_t>(item.stats.states_expanded))
                .set("widened", item.widened);
            telemetry.emit(std::move(candidate));

            obs::JsonObject verified;
            verified.set("event", "kill-verified")
                .set("mutant", item.mutant_id)
                .set("reason", oracle::to_string(item.reason))
                .set("calls",
                     static_cast<std::uint64_t>(item.killer.calls.size()))
                .set("shrink_steps",
                     static_cast<std::uint64_t>(item.shrink.steps));
            if (item.model_only) verified.set("model_only", true);
            if (!item.corpus_file.empty()) verified.set("corpus", item.corpus_file);
            telemetry.emit(std::move(verified));

            campaign::ItemRecord& record = records[item.record_index];
            record.fate = "killed";
            record.reason = oracle::to_string(item.reason);
            record.model_only = item.model_only;
            record.synthesized = true;
            ++run.killed_after;
            ++run.verified;
            options.obs.metrics.add("kill.verified");
        } else {
            obs::JsonObject gave_up;
            gave_up.set("event", "kill-gave-up")
                .set("mutant", item.mutant_id)
                .set("status", to_string(item.status))
                .set("states",
                     static_cast<std::uint64_t>(item.stats.states_expanded))
                .set("armed",
                     static_cast<std::uint64_t>(item.stats.armed_states));
            telemetry.emit(std::move(gave_up));
            options.obs.metrics.add("kill.gave_up");
        }
    }
    run.items = std::move(items);

    {
        obs::JsonObject event;
        event.set("event", "kill-run-end")
            .set("verified", static_cast<std::uint64_t>(run.verified))
            .set("killed_before", static_cast<std::uint64_t>(run.killed_before))
            .set("killed_after", static_cast<std::uint64_t>(run.killed_after))
            .set("score_before", support::percent(run.score_before()))
            .set("score_after", support::percent(run.score_after()));
        telemetry.emit(std::move(event));
    }
    return run;
}

void render_kill_report(std::ostream& os, const KillRun& run,
                        const std::string& class_name,
                        const KillOptions& options) {
    os << "kill: " << class_name << ", " << run.survivors << " survivor(s), seed "
       << options.seed << ", budget " << options.search.budget_states
       << " state(s), depth " << options.search.max_depth << "\n\n";
    for (const KillItem& item : run.items) {
        os << item.mutant_id << "  ";
        if (item.status == SearchStatus::Verified) {
            os << "killed  [" << oracle::to_string(item.reason) << "]";
            if (item.model_only) os << "  (model-only)";
            if (item.widened) os << "  (widened)";
            os << "  killer: " << item.killer.calls.size() << " call(s)";
            if (!item.corpus_file.empty()) os << "  corpus: " << item.corpus_file;
        } else {
            os << "gave-up  [" << to_string(item.status) << "]";
        }
        os << "\n";
    }
    if (!run.items.empty()) os << "\n";
    os << "raised by synthesis: " << run.verified << "\n"
       << "score: " << support::percent(run.score_before()) << " -> "
       << support::percent(run.score_after()) << "  (" << run.killed_after << "/"
       << run.total << " killed, " << run.equivalent
       << " presumed equivalent)\n";
}

}  // namespace stc::kill
