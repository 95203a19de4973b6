#include "stc/serve/builtin_host.h"

#include <chrono>
#include <map>
#include <utility>

#include "stc/core/self_testable.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/sandbox/codec.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"
#include "stc/tfm/coverage.h"

namespace stc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::optional<tfm::Criterion> criterion_from_string(const std::string& text) {
    if (text == "all-transactions") return tfm::Criterion::AllTransactions;
    if (text == "all-links") return tfm::Criterion::AllEdges;
    if (text == "all-nodes") return tfm::Criterion::AllNodes;
    return std::nullopt;
}

/// One mfc component target: an ElementPool arena kept alive behind the
/// component, completions attached — the exact setup `concat campaign`
/// used to hand-build.
BuiltinTarget make_mfc_target(bool sortable) {
    BuiltinTarget target;
    target.make_component = [sortable] {
        struct State {
            mfc::ElementPool pool;
            driver::CompletionRegistry completions;
        };
        auto state = std::make_shared<State>();
        state->completions = mfc::make_completions(state->pool);
        BuiltinComponent out;
        out.keepalive = state;
        out.component.emplace(sortable ? core::SelfTestableComponent(
                                             mfc::sortable_spec(),
                                             mfc::sortable_binding())
                                       : core::SelfTestableComponent(
                                             mfc::coblist_spec(),
                                             mfc::coblist_binding()));
        out.component->set_completions(state->completions);
        out.completions = &state->completions;
        return out;
    };
    target.mutants = [sortable] {
        return mutation::enumerate_mutants(
            mfc::descriptors(), sortable ? "CSortableObList" : "CObList");
    };
    return target;
}

std::map<std::string, BuiltinTarget>& target_registry() {
    static std::map<std::string, BuiltinTarget> registry = [] {
        std::map<std::string, BuiltinTarget> seeded;
        seeded.emplace("coblist", make_mfc_target(false));
        seeded.emplace("sortable", make_mfc_target(true));
        return seeded;
    }();
    return registry;
}

}  // namespace

void register_builtin_target(const std::string& name, BuiltinTarget target) {
    target_registry()[name] = std::move(target);
}

const BuiltinTarget* find_builtin_target(const std::string& name) {
    const auto& registry = target_registry();
    const auto it = registry.find(name);
    return it == registry.end() ? nullptr : &it->second;
}

std::vector<std::string> builtin_target_names() {
    std::vector<std::string> names;
    for (const auto& [name, _] : target_registry()) names.push_back(name);
    return names;
}

obs::JsonObject make_hello(const BuiltinCampaignConfig& config,
                           const std::string& fingerprint) {
    return obs::JsonObject()
        .set("component", config.component)
        .set("seed", config.generator.seed)
        .set("max_visits",
             static_cast<std::uint64_t>(
                 config.generator.enumeration.max_node_visits))
        .set("cases", static_cast<std::uint64_t>(
                          config.generator.cases_per_transaction))
        .set("criterion", tfm::to_string(config.generator.criterion))
        .set("states", config.generator.include_entry_states)
        .set("probe", config.probe)
        .set("model", config.model)
        .set("prune", config.prune)
        .set("fingerprint", fingerprint);
}

std::optional<BuiltinCampaignConfig> parse_hello(const obs::JsonObject& hello,
                                                 std::string* error) {
    BuiltinCampaignConfig config;
    const auto component = hello.get_string("component");
    if (!component) {
        if (error != nullptr) *error = "hello: missing 'component'";
        return std::nullopt;
    }
    config.component = *component;
    if (const auto seed = hello.get_uint("seed")) config.generator.seed = *seed;
    if (const auto visits = hello.get_uint("max_visits")) {
        config.generator.enumeration.max_node_visits =
            static_cast<std::size_t>(*visits);
    }
    if (const auto cases = hello.get_uint("cases")) {
        config.generator.cases_per_transaction =
            static_cast<std::size_t>(*cases);
    }
    if (const auto criterion = hello.get_string("criterion")) {
        const auto parsed = criterion_from_string(*criterion);
        if (!parsed) {
            if (error != nullptr) {
                *error = "hello: unknown criterion '" + *criterion + "'";
            }
            return std::nullopt;
        }
        config.generator.criterion = *parsed;
    }
    config.generator.include_entry_states =
        hello.get_bool("states").value_or(false);
    config.probe = hello.get_bool("probe").value_or(false);
    config.model = hello.get_bool("model").value_or(false);
    if (const auto prune = hello.get_bool("prune")) config.prune = *prune;
    return config;
}

const BuiltinTarget* resolve_builtin_target(const std::string& name,
                                            std::string* error) {
    const BuiltinTarget* target = find_builtin_target(name);
    if (target == nullptr && error != nullptr) {
        *error = "unknown component '" + name + "' (expected one of: " +
                 support::join(builtin_target_names(), ", ") + ")";
    }
    return target;
}

const driver::ModelBinding* resolve_model(const std::string& class_name,
                                          std::string* error) {
    const driver::ModelBinding* binding = model::binding_for(class_name);
    if (binding == nullptr && error != nullptr) {
        *error = "no reference model for '" + class_name +
                 "' (models exist for: " +
                 support::join(model::modeled_classes(), " ") + ")";
    }
    return binding;
}

std::string CampaignInputs::fingerprint() const {
    return campaign::campaign_fingerprint(options, suite, mutants, probe_suite());
}

std::optional<CampaignInputs> open_campaign_inputs(
    const BuiltinCampaignConfig& config, std::string* error,
    const obs::Context& obs) {
    const BuiltinTarget* target = resolve_builtin_target(config.component, error);
    if (target == nullptr) return std::nullopt;

    std::optional<CampaignInputs> out(std::in_place);
    CampaignInputs& in = *out;
    in.holder = target->make_component();
    const core::SelfTestableComponent& component = in.component();
    in.options.seed = config.generator.seed;
    in.options.prune = config.prune;
    in.options.obs = obs;
    if (config.model) {
        // Lockstep differential oracle: the runner carries the model as
        // a passive side channel (no promotion), so verdicts, reports
        // and hit tracking are untouched and fates stay byte-identical
        // across executors; only the oracle reads the divergence
        // strings.
        in.options.engine.runner.model =
            resolve_model(component.spec().class_name, error);
        if (in.options.engine.runner.model == nullptr) return std::nullopt;
    }
    in.suite = component.generate_tests(config.generator);
    if (config.probe) {
        in.probe = component.generate_tests(campaign::probe_generator(config.generator));
    }
    in.mutants = target->mutants();
    return out;
}

struct BuiltinCampaign::Impl {
    BuiltinCampaignConfig config;
    CampaignInputs inputs;
    std::optional<campaign::Session> session;  // over `inputs`
};

BuiltinCampaign::BuiltinCampaign() : impl_(std::make_unique<Impl>()) {}
BuiltinCampaign::~BuiltinCampaign() = default;

std::unique_ptr<BuiltinCampaign> BuiltinCampaign::open(
    const BuiltinCampaignConfig& config, std::string* error,
    const obs::Context& obs) {
    std::optional<CampaignInputs> inputs = open_campaign_inputs(config, error, obs);
    if (!inputs) return nullptr;
    std::unique_ptr<BuiltinCampaign> out(new BuiltinCampaign());
    Impl& s = *out->impl_;
    s.config = config;
    s.inputs = std::move(*inputs);
    s.session.emplace(s.inputs.component().registry(), s.inputs.suite,
                      s.inputs.probe_suite(), s.inputs.mutants, s.inputs.options);
    return out;
}

const BuiltinCampaignConfig& BuiltinCampaign::config() const noexcept {
    return impl_->config;
}
const driver::TestSuite& BuiltinCampaign::suite() const noexcept {
    return impl_->inputs.suite;
}
const std::vector<mutation::Mutant>& BuiltinCampaign::mutants() const noexcept {
    return impl_->inputs.mutants;
}
const std::string& BuiltinCampaign::fingerprint() const noexcept {
    return impl_->session->fingerprint();
}
const std::vector<campaign::WorkItem>& BuiltinCampaign::items() const noexcept {
    return impl_->session->items();
}
const oracle::GoldenRecord& BuiltinCampaign::golden() const noexcept {
    return impl_->session->golden();
}
bool BuiltinCampaign::baseline_clean() const noexcept {
    return impl_->session->baseline_clean();
}
bool BuiltinCampaign::pruned() const noexcept {
    return impl_->session->pruned();
}

mutation::MutantOutcome BuiltinCampaign::evaluate(
    std::size_t index, const std::string& mutant_id,
    mutation::PruneStats* stats) const {
    const std::vector<campaign::WorkItem>& list = items();
    if (index >= list.size() || list[index].mutant_id != mutant_id) {
        throw Error("work item " + std::to_string(index) + " is not mutant '" +
                    mutant_id + "' of component " + impl_->config.component);
    }
    return impl_->session->evaluate(index, stats);
}

campaign::CampaignResult BuiltinCampaign::dispatch(
    DispatchOptions options, const std::string& store_path,
    DispatchStats* stats) const {
    campaign::Ledger ledger(*impl_->session, campaign::ExecutorKind::Remote,
                            store_path, options.telemetry);
    const std::vector<campaign::WorkItem> pending =
        ledger.start(options.workers.size());
    DispatchStats run_stats;
    run_stats.workers = options.workers.size();
    if (!pending.empty()) {
        const obs::Tracer tracer = options.obs.tracer;
        Coordinator coordinator(std::move(options));
        run_stats = coordinator.run(
            pending, [&](const campaign::WorkItem& item,
                         const obs::JsonObject& result) {
                // The coordinator's own share of an item, on its thread
                // while the daemons keep evaluating their windows.
                const obs::SpanScope merge_span(
                    tracer, "serve", "merge",
                    tracer.enabled()
                        ? obs::JsonObject()
                              .set("item", static_cast<std::uint64_t>(item.index))
                              .set("mutant", item.mutant_id)
                        : obs::JsonObject());
                // The Result payload is the sandbox outcome object plus
                // item/mutant/wall_ms/worker; the decoders ignore the
                // extras.
                ledger.finish(item,
                              sandbox::decode_outcome(result).value_or(
                                  sandbox::outcome_from_termination(
                                      "worker-exit:-3")),
                              result.get_uint("worker").value_or(0),
                              result.get_double("wall_ms").value_or(0.0),
                              sandbox::decode_outcome_stats(result));
            });
    }
    if (stats != nullptr) *stats = run_stats;
    return ledger.end(run_stats.workers_connected, 0, run_stats.wall_ms);
}

namespace {

class BuiltinSession final : public Session {
public:
    explicit BuiltinSession(std::unique_ptr<BuiltinCampaign> campaign)
        : campaign_(std::move(campaign)) {}

    [[nodiscard]] const std::string& fingerprint() const override {
        return campaign_->fingerprint();
    }

    [[nodiscard]] obs::JsonObject evaluate(
        const obs::JsonObject& work) override {
        const auto item = work.get_uint("item");
        const auto mutant_id = work.get_string("mutant");
        if (!item || !mutant_id) {
            throw Error("work frame missing 'item' or 'mutant'");
        }
        const auto t0 = Clock::now();
        mutation::PruneStats stats;
        const mutation::MutantOutcome outcome =
            campaign_->evaluate(*item, *mutant_id, &stats);
        const double wall = ms_since(t0);
        // Result payload = the sandbox outcome object (the merge decodes
        // it with sandbox::decode_outcome) plus the dispatch bookkeeping.
        // Prune counters ride along only when the fast tier ran.
        obs::JsonObject payload = sandbox::outcome_object(
            outcome, campaign_->pruned() ? &stats : nullptr);
        payload.set("item", *item)
            .set("mutant", *mutant_id)
            .set("wall_ms", wall);
        return payload;
    }

private:
    std::unique_ptr<BuiltinCampaign> campaign_;
};

}  // namespace

SessionFactory builtin_session_factory() {
    return [](const obs::JsonObject& hello, const obs::Context& obs,
              std::string* error) -> std::unique_ptr<Session> {
        const auto config = parse_hello(hello, error);
        if (!config) return nullptr;
        auto campaign = BuiltinCampaign::open(*config, error, obs);
        if (campaign == nullptr) return nullptr;
        const std::string theirs = hello.get_string("fingerprint").value_or("");
        if (!theirs.empty() && theirs != campaign->fingerprint()) {
            if (error != nullptr) {
                *error = "fingerprint mismatch: coordinator " + theirs +
                         " vs worker " + campaign->fingerprint();
            }
            return nullptr;
        }
        return std::make_unique<BuiltinSession>(std::move(campaign));
    };
}

}  // namespace stc::serve
