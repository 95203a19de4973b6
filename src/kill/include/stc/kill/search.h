// Killer synthesis by bounded reachability over the product of the
// component's TFM and its lockstep reference model.
//
// A campaign survivor is a mutant the generated suite executed but
// could not distinguish from the original.  The paper resolves such
// survivors by manual analysis; stc::kill automates the attempt: treat
// the TFM as a transition system, pair each abstract state with the
// reference model's abstract_state() projection, mark the mutant's
// operator site as *must-traverse*, and search breadth-first for a
// transaction that (a) reaches the site and (b) thereafter reaches a
// state-divergent observation.  Divergence is judged by the same
// differential oracle the campaign uses (oracle::classify_suite_
// differential over a golden/mutated pair), so a candidate is only ever
// reported after it has been EXECUTED against the real mutant and
// actually killed it — the search proposes, execution disposes.
//
// Two phases per value round:
//   1. strict TFM — candidates are transactions of the declared test
//      model (Graph::method_sequence semantics), so any killer found is
//      a sequence the generated suite could in principle have drawn;
//   2. widened spec alphabet — candidates may chain ANY non-constructor
//      methods of the t-spec interface in any order (the synthetic
//      specification_graph()).  This is the "model-check the
//      specification, not the test model" escalation: some mutants are
//      equivalent within the TFM language yet distinguishable by a
//      legal C++ client (e.g. CObList RemoveTail after RemoveHead).
//      Killers found here are flagged `widened`.
//
// Cost of a candidate: execution is incremental.  Every queued state
// holds a clean checkpoint of the component after its body
// (driver::CaseCheckpoint: the class binding's clone, the observation
// log and the lockstep model's state), taken when the state is pushed
// and released when it is popped and expanded.  A child's clean leg
// therefore runs only its own node group plus the steering suffix to a
// death node, from its parent's checkpoint.  Its mutant leg resumes
// from the latest clean checkpoint before the candidate first consults
// the mutated site; one such checkpoint serves a whole armed subtree,
// sound because a mutated run is identical to the clean one until that
// call, and a mutated object is never cloned.  Dedup keys advance a
// clone of the parent's key model by one group.  The bodies themselves
// live once, in a per-phase prefix tree of node groups.  A class
// without a cloner runs the same search with null checkpoints, i.e.
// every leg from its constructor.
//
// Determinism: BFS expands nodes in graph insertion order, argument
// values are synthesized once per (mutant, round) from a seed derived
// with campaign::derive_item_seed, and the budget is counted in queue
// pushes — so two same-seed runs produce byte-identical outcomes
// regardless of wall clock or worker count.  Where a leg starts changes
// only which calls execute: statuses, killers, `K<n>` case ids and
// every SearchStats counter are those of running each candidate from
// its constructor.
#pragma once

#include <cstdint>
#include <string>

#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/mutation/mutant.h"
#include "stc/obs/context.h"
#include "stc/oracle/oracle.h"
#include "stc/reflect/class_binding.h"
#include "stc/tfm/graph.h"
#include "stc/tspec/model.h"

namespace stc::kill {

/// Terminal state of one mutant's search.
enum class SearchStatus {
    Verified,         ///< a candidate executed against the mutant and killed it
    SiteUnreachable,  ///< the site is outside the t-spec interface, or the
                      ///< exploration completed and no candidate consulted it
    SearchExhausted,  ///< every reachable product state explored, no kill —
                      ///< the strongest equivalence evidence this tool produces
    BudgetExhausted,  ///< stopped at --budget-states, or dropped states with
                      ///< successors at --max-depth: inconclusive
};

[[nodiscard]] const char* to_string(SearchStatus status) noexcept;

struct SearchOptions {
    std::uint64_t seed = 20010701;
    /// Product states the search may enqueue, across all rounds and both
    /// phases (counted on push, so the bound is exact and schedule-free).
    std::size_t budget_states = 4096;
    /// Longest explored path, in TFM nodes after birth.
    std::size_t max_depth = 12;
    /// Execution environment for candidate runs.  `runner.model` (when
    /// set) both feeds the product-state abstraction and arms the
    /// differential oracle; promote_divergence is forced off internally.
    driver::RunnerOptions runner{};
    oracle::OracleConfig oracle{};
    obs::Context obs{};
};

struct SearchStats {
    std::size_t states_expanded = 0;     ///< queue pushes consumed from budget
    std::size_t candidates_executed = 0; ///< golden/mutated evaluation pairs
    std::size_t arming_checks = 0;       ///< clean runs probing for the site
    std::size_t armed_states = 0;        ///< states that had traversed the site
    std::size_t rounds = 0;              ///< value rounds actually entered
};

struct SearchOutcome {
    SearchStatus status = SearchStatus::SiteUnreachable;
    /// Valid iff status == Verified: the executable test case that
    /// killed the mutant (unshrunk — callers minimize via stc::fuzz).
    driver::TestCase killer;
    oracle::KillReason reason = oracle::KillReason::None;
    /// The base oracle alone would have missed it (differential leg).
    bool model_only = false;
    /// Killer lives in the widened spec alphabet, not the TFM language.
    bool widened = false;
    SearchStats stats;
};

/// Bounded BFS for one component.  Construction precomputes both phase
/// graphs; find_killer is const and touches no shared mutable state, so
/// one instance may serve concurrent per-mutant searches.
class ProductSearch {
public:
    ProductSearch(const tspec::ComponentSpec& spec,
                  const reflect::Registry& registry,
                  const driver::CompletionRegistry* completions,
                  SearchOptions options);

    [[nodiscard]] SearchOutcome find_killer(const mutation::Mutant& mutant) const;

    /// The widened phase's synthetic graph: one birth node per
    /// constructor, one node per non-constructor/destructor method, one
    /// death node per destructor, with every ordering allowed.  Exposed
    /// so the shrinker can validate widened killers against the same
    /// language the search drew them from.
    [[nodiscard]] static tfm::Graph specification_graph(
        const tspec::ComponentSpec& spec);

private:
    const tspec::ComponentSpec& spec_;
    const reflect::Registry& registry_;
    const driver::CompletionRegistry* completions_;
    SearchOptions options_;
    tfm::Graph tfm_;
    tfm::Graph widened_;
    std::vector<std::optional<tfm::NodeIndex>> tfm_hops_;
    std::vector<std::optional<tfm::NodeIndex>> widened_hops_;
};

}  // namespace stc::kill
