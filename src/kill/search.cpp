#include "stc/kill/search.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "stc/campaign/seed.h"
#include "stc/mutation/controller.h"
#include "stc/support/rng.h"

namespace stc::kill {

const char* to_string(SearchStatus status) noexcept {
    switch (status) {
        case SearchStatus::Verified: return "verified";
        case SearchStatus::SiteUnreachable: return "site-unreachable";
        case SearchStatus::SearchExhausted: return "search-exhausted";
        case SearchStatus::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

namespace {

/// Argument-value assignments tried per mutant: round r re-derives every
/// method's arguments from a fresh per-round seed, so killers needing
/// particular values get this many chances.
constexpr std::size_t kValueRounds = 2;

/// Canonical argument assignment for one (mutant, round): every method
/// gets ONE positive call (and, when the domain admits an out-of-domain
/// value, one negative call) synthesized up front from a seed derived
/// with campaign::derive_item_seed.  Identical arguments for identical
/// methods collapse product states that differ only in value noise,
/// which is what makes the model-state dedupe effective.
struct CallTables {
    std::map<std::string, driver::MethodCall> positive;
    std::map<std::string, driver::MethodCall> negative;
    std::set<std::string> incomplete;  ///< method ids with a placeholder arg
};

CallTables build_tables(const tspec::ComponentSpec& spec,
                        const driver::CompletionRegistry* completions,
                        std::uint64_t seed, const std::string& mutant_id,
                        std::size_t round) {
    support::Pcg32 rng(campaign::derive_item_seed(
        seed, mutant_id, "kill-values-r" + std::to_string(round)));
    CallTables tables;
    for (const tspec::MethodSpec& method : spec.methods) {
        bool needs = false;
        tables.positive[method.id] =
            driver::synthesize_call(method, rng, round, completions,
                                    driver::ValuePolicy::Random, &needs);
        if (needs) tables.incomplete.insert(method.id);
    }
    for (const tspec::MethodSpec& method : spec.methods) {
        if (method.is_constructor() || method.is_destructor()) continue;
        if (!driver::DriverGenerator::can_reject(method)) continue;
        bool needs = false;
        tables.negative[method.id] = driver::synthesize_call(
            method, rng, round, completions, driver::ValuePolicy::Random,
            &needs, /*expect_rejection=*/true);
        if (needs) tables.incomplete.insert(method.id);
    }
    return tables;
}

/// A clean checkpoint of the component (driver::CaseCheckpoint).  Null
/// means "run from the constructor": what a state holds when the class
/// registers no cloner or a capture was refused, so such classes run the
/// same search, only with every leg starting at call 0.
using Checkpoint = std::shared_ptr<const driver::CaseCheckpoint>;

/// Records the call during which a run first consults the mutant's site
/// (driver::CaseObserver call indices).  An arming check needs nothing
/// more, where a mutation::CoverageRecorder would map every site.
class FirstHitSink final : public mutation::CoverageSink,
                           public driver::CaseObserver {
public:
    explicit FirstHitSink(const mutation::Mutant& mutant) noexcept
        : method_(mutant.method), site_(mutant.site_index) {}

    void on_case_begin(const driver::TestCase&) override {
        call_ = 0;
        hit_.reset();
    }
    void on_call(std::size_t call_index) override { call_ = call_index; }
    void on_site(const mutation::MethodDescriptor& method,
                 std::size_t site) override {
        if (!hit_ && &method == method_ && site == site_) hit_ = call_;
    }

    [[nodiscard]] std::optional<std::size_t> hit() const noexcept { return hit_; }

private:
    const mutation::MethodDescriptor* method_;
    std::size_t site_;
    std::size_t call_ = 0;
    std::optional<std::size_t> hit_;
};

/// What one mutant's search shares across its rounds and phases.
struct Search {
    const SearchOptions& options;
    const mutation::Mutant& mutant;
    const std::string& mutated_id;  ///< t-spec id of the mutated method
    const reflect::ClassBinding& binding;
    const driver::TestRunner& clean_runner;  ///< reports to `sink`
    const driver::TestRunner& mutant_runner;
    FirstHitSink& sink;
    SearchOutcome& out;
    std::size_t budget_used = 0;
    std::size_t case_counter = 0;
    bool any_armed = false;
    bool depth_cut = false;  ///< a state was dropped at max_depth
};

/// One product state of the bounded search: a TFM node paired with the
/// reference model's abstract-state projection of the body executed so
/// far.  The body itself lives in the phase's prefix tree; the state
/// holds what executing it left behind.  `armed` records that the
/// mutant's site has provably been traversed; armed states are never
/// deduplicated (the model projection cannot see the mutant's latent
/// corruption, so two armed states with equal projections are NOT
/// interchangeable).
struct SearchState {
    std::size_t entry = 0;   ///< prefix-tree entry of the body's last group
    tfm::NodeIndex node = 0;
    std::size_t depth = 0;
    std::size_t length = 0;  ///< calls in the body, constructor included
    bool armed = false;
    /// The clean component after the body: children resume here.
    Checkpoint clean;
    /// The body consulted the site on the clean component, and the latest
    /// clean checkpoint before it first did.  Mutant legs of this whole
    /// subtree start there.
    bool site_hit = false;
    Checkpoint pre_hit;
    /// The dedup key's model, advanced through the body; null once a call
    /// is unmodeled.  Only unarmed states carry one.
    std::unique_ptr<driver::LockstepModel> key_model;
};

/// One node group of a phase graph under one round's call tables.
struct Group {
    std::vector<driver::MethodCall> calls;
    bool incomplete = false;  ///< a call carries a placeholder argument
    bool contains = false;    ///< names the mutated method
    /// Nodes after this one on the shortest hops to a death node;
    /// nullopt when no death is reachable (Graph::next_hop_to_death).
    std::optional<std::vector<tfm::NodeIndex>> steering;
};

enum class PhaseEnd { Drained, Budget, Verified };

/// Bounded BFS over one phase graph.  Deterministic: birth nodes and
/// successors expand in graph insertion order, the budget is counted on
/// push, and no wall-clock or scheduling state is consulted.
class Phase {
public:
    Phase(Search& search, const CallTables& tables, const tfm::Graph& graph,
          const std::vector<std::optional<tfm::NodeIndex>>& hops,
          bool widened)
        : s_(search), graph_(graph), widened_(widened) {
        const driver::ModelBinding* model = s_.options.runner.model;
        key_model_ = model != nullptr && model->valid() ? model : nullptr;
        groups_.resize(graph.node_count());
        for (tfm::NodeIndex n = 0; n < graph.node_count(); ++n) {
            Group& group = groups_[n];
            for (const std::string& entry : graph.node(n).method_ids) {
                const std::string id = tspec::strip_negative_marker(entry);
                if (id == s_.mutated_id) group.contains = true;
                if (tables.incomplete.count(id) != 0) group.incomplete = true;
                if (tspec::is_negative_call(entry)) {
                    const auto it = tables.negative.find(id);
                    if (it != tables.negative.end()) {
                        group.calls.push_back(it->second);
                        continue;
                    }
                    // No out-of-domain value exists: fall through to the
                    // positive call so the group width still matches the
                    // node.
                }
                const auto it = tables.positive.find(id);
                if (it != tables.positive.end()) group.calls.push_back(it->second);
            }
            std::vector<tfm::NodeIndex> steering;
            tfm::NodeIndex at = n;
            bool reachable = true;
            while (!graph.is_death(at)) {
                if (!hops[at]) {
                    reachable = false;
                    break;
                }
                at = *hops[at];
                steering.push_back(at);
            }
            if (reachable) group.steering = std::move(steering);
        }
    }

    PhaseEnd run() {
        const obs::SpanScope phase_span(s_.options.obs.tracer, "kill-phase",
                                        widened_ ? "widened" : "tfm");
        for (const tfm::NodeIndex birth : graph_.birth_nodes()) {
            if (const auto end = visit(nullptr, birth)) return *end;
        }
        while (!queue_.empty()) {
            const SearchState current = std::move(queue_.front());
            queue_.pop_front();
            if (current.depth >= s_.options.max_depth) {
                // Its successors stay unexplored: the phase is no longer
                // an exhaustive exploration.
                if (!graph_.successors(current.node).empty()) s_.depth_cut = true;
                continue;
            }
            for (const tfm::NodeIndex next : graph_.successors(current.node)) {
                if (const auto end = visit(&current, next)) return *end;
            }
        }
        return PhaseEnd::Drained;
    }

private:
    static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

    /// Judge the child of `parent` (null: a birth) entering `next`, then
    /// enqueue it unless it is a death node or a duplicate.  Returns how
    /// the phase ends when this child ends it.
    std::optional<PhaseEnd> visit(const SearchState* parent,
                                  tfm::NodeIndex next) {
        const Group& group = groups_[next];
        SearchState child;
        child.node = next;
        child.depth = parent != nullptr ? parent->depth + 1 : 0;
        child.length = (parent != nullptr ? parent->length : 0) + group.calls.size();
        child.armed = parent != nullptr && parent->armed;

        const bool judged = child.armed || group.contains;
        if (judged) {
            // Arming is decided by execution, not by name: the call must
            // actually consult the mutated site (a total wrapper no-op,
            // e.g. RemoveHead on empty, never arms).
            const bool already_armed = child.armed;
            const Eval ev = evaluate(parent, child);
            if (ev.verified) return PhaseEnd::Verified;
            if (!already_armed && ev.covered && ev.clean_ok) {
                child.armed = true;
                ++s_.out.stats.armed_states;
                s_.any_armed = true;
            }
        }

        if (graph_.is_death(next)) return std::nullopt;  // candidate already judged
        if (!child.armed) {
            std::string key = std::to_string(next) + "|";
            if (key_model_ == nullptr) {
                key += "depth=" + std::to_string(child.depth);
            } else {
                child.key_model = advance_key(parent, group);
                key += child.key_model != nullptr ? child.key_model->abstract_state()
                                                  : "<unmodeled>";
            }
            if (!seen_.insert(std::move(key)).second) return std::nullopt;
        }
        if (s_.budget_used >= s_.options.budget_states) return PhaseEnd::Budget;
        if (!judged && wants_checkpoint(child)) {
            // Nothing ran this child's group yet; its children resume
            // from the checkpoint after it.
            (void)run_clean(candidate(parent, child, false, {}), parent, child);
        }
        ++s_.budget_used;
        ++s_.out.stats.states_expanded;
        child.entry = tree_.size();
        tree_.push_back(Entry{parent != nullptr ? parent->entry : kRoot, next});
        queue_.push_back(std::move(child));
        return std::nullopt;
    }

    /// A fresh model constructed by a birth group, or the parent's key
    /// model advanced by one group.  Rejected calls leave the model
    /// untouched (the component must absorb them); an unmodeled call
    /// yields null, which keys as a sticky marker that never collides
    /// with a healthy projection.
    [[nodiscard]] std::unique_ptr<driver::LockstepModel> advance_key(
        const SearchState* parent, const Group& group) const {
        std::unique_ptr<driver::LockstepModel> key;
        std::size_t first = 0;
        if (parent == nullptr) {
            key = key_model_->factory();
            if (!key || group.calls.empty() || !group.calls.front().is_constructor ||
                !key->construct(group.calls.front().arguments)) {
                return nullptr;
            }
            first = 1;
        } else if (parent->key_model != nullptr) {
            key = parent->key_model->clone();
        } else {
            return nullptr;
        }
        for (std::size_t i = first; i < group.calls.size(); ++i) {
            if (group.calls[i].expect_rejection) continue;
            if (!key->apply(group.calls[i]).modeled) return nullptr;
        }
        return key;
    }

    /// Its children will run (it is not a death node, sits above the
    /// depth bound and can still reach a death node), so it keeps a
    /// clean checkpoint — when the class can be cloned at all.
    [[nodiscard]] bool wants_checkpoint(const SearchState& state) const {
        return s_.binding.has_cloner() && !graph_.is_death(state.node) &&
               state.depth < s_.options.max_depth &&
               groups_[state.node].steering.has_value();
    }

    /// The calls of `child`'s body, read back from the prefix tree, plus
    /// (with `steer`) the steering groups to a death node.  The
    /// transaction path is filled in; its text is left to the caller.
    [[nodiscard]] driver::TestCase candidate(const SearchState* parent,
                                             const SearchState& child,
                                             bool steer, std::string id) const {
        std::vector<tfm::NodeIndex> path;
        for (std::size_t e = parent != nullptr ? parent->entry : kRoot; e != kRoot;
             e = tree_[e].parent) {
            path.push_back(tree_[e].node);
        }
        std::reverse(path.begin(), path.end());
        path.push_back(child.node);
        if (steer) {
            const std::vector<tfm::NodeIndex>& steering = *groups_[child.node].steering;
            path.insert(path.end(), steering.begin(), steering.end());
        }
        driver::TestCase tc;
        tc.id = std::move(id);
        std::size_t calls = 0;
        for (const tfm::NodeIndex n : path) calls += groups_[n].calls.size();
        tc.calls.reserve(calls);
        bool incomplete = false;
        for (const tfm::NodeIndex n : path) {
            const Group& group = groups_[n];
            tc.calls.insert(tc.calls.end(), group.calls.begin(), group.calls.end());
            incomplete = incomplete || group.incomplete;
        }
        tc.transaction.path = path;
        tc.needs_completion = incomplete;
        return tc;
    }

    /// Run `tc` (the child's body, maybe steered to death) on the clean
    /// component, from the parent's checkpoint under the first-hit sink,
    /// and record in `child` what the run shows: its clean checkpoint,
    /// whether its body consulted the site and the checkpoint before it
    /// did.  Returns the result and whether any call of `tc`, inherited
    /// or executed, consulted the site.
    std::pair<driver::TestResult, bool> run_clean(const driver::TestCase& tc,
                                                  const SearchState* parent,
                                                  SearchState& child) {
        const Checkpoint from = parent != nullptr ? parent->clean : nullptr;
        std::vector<std::size_t> boundaries;
        if (wants_checkpoint(child)) boundaries.push_back(child.length);
        driver::TestRunner::CapturedRun run;
        {
            const mutation::CoverageScope scope(s_.sink);
            run = s_.clean_runner.run_and_capture(s_.binding, tc, boundaries,
                                                  from.get());
        }
        if (!run.checkpoints.empty()) {
            child.clean = std::make_shared<const driver::CaseCheckpoint>(
                std::move(run.checkpoints.front()));
        }
        const bool inherited = parent != nullptr && parent->site_hit;
        const std::optional<std::size_t> hit = s_.sink.hit();
        child.site_hit = inherited || (hit && *hit < child.length);
        child.pre_hit = inherited ? parent->pre_hit : child.site_hit ? from : nullptr;
        return {std::move(run.result), inherited || hit.has_value()};
    }

    struct Eval {
        bool covered = false;   ///< clean run consulted the mutant's site
        bool clean_ok = false;  ///< golden leg passed (usable baseline)
        bool verified = false;
    };

    /// The execution gate: steer the child to death, run the candidate
    /// CLEAN (arming evidence + golden baseline), and — when the site is
    /// or was traversed — run it against the REAL mutant and classify
    /// differentially.  A candidate is only ever `verified` after this
    /// second execution killed the actual mutant.  Both legs resume:
    /// the clean one from the parent's checkpoint, the mutant one from
    /// the latest clean checkpoint before the first site consultation —
    /// a mutated run is identical to the clean one until that call.
    Eval evaluate(const SearchState* parent, SearchState& child) {
        Eval ev;
        if (!groups_[child.node].steering) return ev;  // no death reachable
        const bool already_armed = child.armed;
        driver::TestCase tc = candidate(parent, child, true,
                                        "K" + std::to_string(s_.case_counter++));
        if (!already_armed) ++s_.out.stats.arming_checks;

        auto [clean, covered] = run_clean(tc, parent, child);
        ev.covered = covered;
        ev.clean_ok = clean.passed();
        if (!ev.clean_ok || (!already_armed && !ev.covered)) return ev;

        ++s_.out.stats.candidates_executed;
        // Without a site hit in the body, the clean leg's start will do.
        const Checkpoint from =
            child.site_hit ? child.pre_hit
                           : parent != nullptr ? parent->clean : nullptr;
        driver::SuiteResult mutated;
        {
            const mutation::MutantActivation activation(s_.mutant);
            mutated.results.push_back(
                from != nullptr
                    ? s_.mutant_runner.run_case_from(s_.binding, tc, *from)
                    : s_.mutant_runner.run_case(s_.binding, tc));
        }
        driver::SuiteResult golden;
        golden.results.push_back(std::move(clean));
        const oracle::DifferentialKill diff = oracle::classify_suite_differential(
            oracle::GoldenRecord::from(golden), mutated, s_.options.oracle, {},
            s_.options.obs);
        if (diff.with_model == oracle::KillReason::None) return ev;

        ev.verified = true;
        tc.transaction_text = graph_.describe(tc.transaction);
        s_.out.status = SearchStatus::Verified;
        s_.out.killer = std::move(tc);
        s_.out.reason = diff.with_model;
        s_.out.model_only = diff.model_only();
        s_.out.widened = widened_;
        return ev;
    }

    /// The frontier's prefix tree: each entry appends one node group to
    /// its parent entry's body, so a body is stored once however many
    /// descendants extend it.
    struct Entry {
        std::size_t parent;
        tfm::NodeIndex node;
    };

    Search& s_;
    const tfm::Graph& graph_;
    bool widened_;
    const driver::ModelBinding* key_model_;  ///< null: key by depth
    std::vector<Group> groups_;              ///< per graph node
    std::vector<Entry> tree_;
    std::deque<SearchState> queue_;
    std::set<std::string> seen_;  // unarmed states only: "node|model-key"
};

}  // namespace

ProductSearch::ProductSearch(const tspec::ComponentSpec& spec,
                             const reflect::Registry& registry,
                             const driver::CompletionRegistry* completions,
                             SearchOptions options)
    : spec_(spec),
      registry_(registry),
      completions_(completions),
      options_(std::move(options)),
      tfm_(spec.build_tfm()),
      widened_(specification_graph(spec)),
      tfm_hops_(tfm_.next_hop_to_death()),
      widened_hops_(widened_.next_hop_to_death()) {}

tfm::Graph ProductSearch::specification_graph(const tspec::ComponentSpec& spec) {
    tfm::Graph graph;
    std::vector<tfm::NodeIndex> births;
    std::vector<tfm::NodeIndex> workers;
    std::vector<tfm::NodeIndex> deaths;
    for (const tspec::MethodSpec& method : spec.methods) {
        if (method.is_constructor()) {
            births.push_back(
                graph.add_node({"b:" + method.id, true, {method.id}}));
        } else if (method.is_destructor()) {
            deaths.push_back(
                graph.add_node({"d:" + method.id, false, {method.id}}));
        } else {
            workers.push_back(
                graph.add_node({"w:" + method.id, false, {method.id}}));
        }
    }
    for (const tfm::NodeIndex b : births) {
        for (const tfm::NodeIndex w : workers) graph.add_edge(b, w);
        for (const tfm::NodeIndex d : deaths) graph.add_edge(b, d);
    }
    for (const tfm::NodeIndex w : workers) {
        for (const tfm::NodeIndex v : workers) graph.add_edge(w, v);
        for (const tfm::NodeIndex d : deaths) graph.add_edge(w, d);
    }
    return graph;
}

SearchOutcome ProductSearch::find_killer(const mutation::Mutant& mutant) const {
    const obs::SpanScope search_span(options_.obs.tracer, "kill-search",
                                     mutant.id());
    SearchOutcome out;
    out.status = SearchStatus::SiteUnreachable;

    const tspec::MethodSpec* mutated =
        spec_.find_method_by_name(mutant.method->method_name());
    if (mutated == nullptr) return out;  // site outside the t-spec interface

    FirstHitSink sink(mutant);
    driver::RunnerOptions ro = options_.runner;
    ro.promote_divergence = false;
    ro.observer = nullptr;
    const driver::TestRunner mutant_runner(registry_, ro);
    ro.observer = &sink;
    const driver::TestRunner clean_runner(registry_, ro);
    Search search{options_,    mutant,        mutated->id,
                  registry_.at(spec_.class_name), clean_runner, mutant_runner,
                  sink,        out};

    bool budget_hit = false;
    const std::string mutant_id = mutant.id();
    for (std::size_t round = 0; round < kValueRounds; ++round) {
        ++out.stats.rounds;
        const CallTables tables = build_tables(spec_, completions_,
                                               options_.seed, mutant_id, round);
        PhaseEnd end = Phase(search, tables, tfm_, tfm_hops_, false).run();
        if (end == PhaseEnd::Verified) break;
        if (end == PhaseEnd::Budget) {
            budget_hit = true;
            break;
        }
        end = Phase(search, tables, widened_, widened_hops_, true).run();
        if (end == PhaseEnd::Verified) break;
        if (end == PhaseEnd::Budget) {
            budget_hit = true;
            break;
        }
    }

    if (out.status != SearchStatus::Verified) {
        // Only a search that explored every state it reached may claim
        // exhaustion: a depth cut is as inconclusive as the budget.
        out.status = budget_hit || search.depth_cut ? SearchStatus::BudgetExhausted
                     : search.any_armed             ? SearchStatus::SearchExhausted
                                                    : SearchStatus::SiteUnreachable;
    }
    options_.obs.metrics.add(std::string("kill.search.") +
                             to_string(out.status));
    return out;
}

}  // namespace stc::kill
