// The built-in-component host of the campaign service: everything both
// ends of a `concat dispatch` need to agree on, derived from one small
// handshake config.
//
// The Hello payload carries only the campaign *inputs* (component name,
// seed, generator knobs, probe/model switches).  Coordinator and worker
// each reconstruct the full campaign — spec, suite, mutants, golden
// baselines, fingerprint — from those inputs independently; the
// fingerprint cross-check at handshake then proves they reconstructed
// the same campaign (same code, same config) before any work is
// shipped.  Item results are pure functions of that shared state plus
// the item id, which is why a dispatched campaign's fates are
// byte-identical to a local `concat campaign` run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stc/campaign/session.h"
#include "stc/core/self_testable.h"
#include "stc/driver/generator.h"
#include "stc/obs/json.h"
#include "stc/serve/dispatch.h"
#include "stc/serve/worker.h"

namespace stc::serve {

/// A freshly constructed component under test, plus whatever arenas its
/// completion closures point into.  `keepalive` owns the pools; it must
/// outlive `component` (declaration order guarantees destruction order).
struct BuiltinComponent {
    std::shared_ptr<void> keepalive;
    std::optional<core::SelfTestableComponent> component;
    /// Completions the component was configured with (shrink replay
    /// needs them); points into `keepalive`, may be null.
    const driver::CompletionRegistry* completions = nullptr;
};

/// One campaign target name both ends of a dispatch can reconstruct
/// from: how to make the component under test (with completions
/// attached) and its mutant population.  The mutant population is
/// independent of the component under test on purpose — an assembly
/// target evaluates *member-class* mutants (e.g. Wallet's) through the
/// assembly's public interface.
struct BuiltinTarget {
    std::function<BuiltinComponent()> make_component;
    std::function<std::vector<mutation::Mutant>()> mutants;
    /// Product of an assembly (stc::assembly): `concat campaign` and
    /// `concat dispatch` require --assembly for these targets so a
    /// caller cannot confuse single-class and composed campaigns.
    bool assembly = false;
};

/// Register (or replace) a campaign target.  The mfc components
/// ("coblist", "sortable") are pre-registered; examples add "wallet",
/// "shop" and "audited-wallet" via
/// stc::examples::register_example_targets().
void register_builtin_target(const std::string& name, BuiltinTarget target);

/// Look up a target; nullptr when unknown.
[[nodiscard]] const BuiltinTarget* find_builtin_target(const std::string& name);

/// Registered target names, sorted (for error messages and --help).
[[nodiscard]] std::vector<std::string> builtin_target_names();

/// find_builtin_target, or nullptr with `*error` naming the unknown
/// component and listing the registered targets.
[[nodiscard]] const BuiltinTarget* resolve_builtin_target(
    const std::string& name, std::string* error);

/// The lockstep reference model registered for `class_name`, or nullptr
/// with `*error` listing the modeled classes: a --model request must not
/// silently run model-less.
[[nodiscard]] const driver::ModelBinding* resolve_model(
    const std::string& class_name, std::string* error);

/// The campaign inputs that travel in a Hello payload.
struct BuiltinCampaignConfig {
    std::string component;  ///< a registered target name, e.g. "coblist"
    driver::GeneratorOptions generator;
    bool probe = false;  ///< amplified probe suite for equivalence
    bool model = false;  ///< lockstep reference-model oracle
    /// Coverage-signature pruning + prefix memoization (the campaign
    /// fast tier).  Part of the fingerprint, so both ends must agree —
    /// the handshake cross-check enforces it.
    bool prune = true;
};

/// Everything a campaign's identity is derived from, built from its
/// config: the component, the suite and probe suite, the mutants, and
/// the identity options (seed, prune, obs and the model binding).
/// `concat campaign`, `concat kill` and every BuiltinCampaign (the
/// `dispatch` coordinator, each `serve` daemon) derive their campaign
/// here, so their fingerprints agree by construction.
struct CampaignInputs {
    BuiltinComponent holder;
    driver::TestSuite suite;
    std::optional<driver::TestSuite> probe;
    std::vector<mutation::Mutant> mutants;
    campaign::CampaignOptions options;

    [[nodiscard]] const core::SelfTestableComponent& component() const {
        return *holder.component;
    }
    [[nodiscard]] const driver::TestSuite* probe_suite() const {
        return probe ? &*probe : nullptr;
    }
    /// campaign_fingerprint of these inputs — a Session's fingerprint,
    /// without building one.
    [[nodiscard]] std::string fingerprint() const;
};

/// Derive the campaign `config` describes; nullopt with `*error` set on
/// an unknown component or a model request for a class without one.
/// `obs` becomes the identity options' observability context.
[[nodiscard]] std::optional<CampaignInputs> open_campaign_inputs(
    const BuiltinCampaignConfig& config, std::string* error,
    const obs::Context& obs = {});

/// Render the Hello payload (docs/FORMATS.md §10).  `fingerprint` is
/// the sender's own campaign fingerprint; the receiver re-derives and
/// cross-checks it.
[[nodiscard]] obs::JsonObject make_hello(const BuiltinCampaignConfig& config,
                                         const std::string& fingerprint);

/// Parse a Hello payload; std::nullopt with `*error` set on an unknown
/// component or criterion.  Missing optional fields take the same
/// defaults `concat campaign` uses.
[[nodiscard]] std::optional<BuiltinCampaignConfig> parse_hello(
    const obs::JsonObject& hello, std::string* error);

/// One fully reconstructed builtin campaign: its CampaignInputs and the
/// campaign::Session built over them (golden baselines, fingerprint,
/// work list).  Both sides of a dispatch open one of these from the
/// same config.
class BuiltinCampaign {
public:
    ~BuiltinCampaign();
    BuiltinCampaign(const BuiltinCampaign&) = delete;
    BuiltinCampaign& operator=(const BuiltinCampaign&) = delete;

    /// Build the campaign; nullptr with `*error` set on an unknown
    /// component or a model request without a registered model.  `obs`
    /// is wired into the mutation engine and runners, so evaluation
    /// spans/metrics land in the caller's instruments (a worker
    /// session's streaming tracer, or the process's own --trace-out).
    [[nodiscard]] static std::unique_ptr<BuiltinCampaign> open(
        const BuiltinCampaignConfig& config, std::string* error,
        const obs::Context& obs = {});

    [[nodiscard]] const BuiltinCampaignConfig& config() const noexcept;
    [[nodiscard]] const driver::TestSuite& suite() const noexcept;
    [[nodiscard]] const std::vector<mutation::Mutant>& mutants() const noexcept;
    [[nodiscard]] const std::string& fingerprint() const noexcept;
    [[nodiscard]] const std::vector<campaign::WorkItem>& items() const noexcept;
    [[nodiscard]] const oracle::GoldenRecord& golden() const noexcept;
    [[nodiscard]] bool baseline_clean() const noexcept;
    /// True when the fast tier is engaged for this campaign.
    [[nodiscard]] bool pruned() const noexcept;

    /// Evaluate work item `index` — Session::evaluate, the call every
    /// executor makes, so fates match the in-process scheduler exactly.
    /// Throws stc::Error when the index is out of range or names a
    /// different mutant than `mutant_id` (a Work frame from another
    /// campaign).  `stats`, when given, accumulates the fast tier's
    /// executed/pruned/memoized pair counters.
    [[nodiscard]] mutation::MutantOutcome evaluate(
        std::size_t index, const std::string& mutant_id,
        mutation::PruneStats* stats = nullptr) const;

    /// Run this campaign on the daemons named in `options` — the
    /// `concat dispatch` executor.  Items the result store at
    /// `store_path` ("" = none) already finished are restored, not
    /// shipped; every merged Result takes the shared completion path
    /// (campaign::Ledger) into the store and `options.telemetry`.  A
    /// fully resumed campaign contacts no daemon.  `stats`, when given,
    /// receives the coordinator's numbers.  Throws like
    /// Coordinator::run.
    [[nodiscard]] campaign::CampaignResult dispatch(
        DispatchOptions options, const std::string& store_path,
        DispatchStats* stats = nullptr) const;

private:
    BuiltinCampaign();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The worker-side SessionFactory over the built-in components: parses
/// the Hello, opens the campaign, rejects on config errors or a
/// fingerprint mismatch, then serves evaluate() per Work item.
[[nodiscard]] SessionFactory builtin_session_factory();

}  // namespace stc::serve
