// Delta-debugging shrinker for failing transactions.
//
// A fuzz finding is rarely minimal: the mutated transaction that tripped
// an assertion usually carries method calls and argument magnitudes that
// have nothing to do with the fault.  shrink_case reduces a failing test
// case in two passes while preserving the failure (caller-supplied
// predicate), alternating them until neither changes the case, so
// re-shrinking a result is a no-op:
//
//   1. Sequence minimization — ddmin (Zeller & Hildebrandt) over the
//      *interior* nodes of the transaction path.  Birth and death stay
//      pinned and every candidate must be a structurally valid
//      transaction of the TFM (Graph::is_valid_transaction), so the
//      shrinker only ever proposes call sequences a real client could
//      execute; structurally invalid candidates cost no predicate budget.
//   2. Value minimization — each surviving in-domain argument is pulled
//      toward a canonical small value (zero when the domain admits it,
//      then the domain's boundary values).  Rejection-call arguments are
//      deliberately out of domain and are left untouched.
//
// The predicate abstracts what "still fails" means: verdict equality for
// fuzz findings, oracle-classification equality for campaign kills.
// Shrinking is deterministic — no RNG — so a reproducer shrinks to the
// same bytes on every run.
#pragma once

#include <cstddef>
#include <functional>

#include "stc/driver/test_case.h"
#include "stc/obs/context.h"
#include "stc/tfm/graph.h"
#include "stc/tspec/model.h"

namespace stc::fuzz {

/// Returns true when the candidate still exhibits the target failure.
using Predicate = std::function<bool(const driver::TestCase&)>;

struct ShrinkOptions {
    /// Budget in predicate evaluations (test executions).  Structurally
    /// invalid ddmin candidates are rejected for free.
    std::size_t max_steps = 512;
    /// Observability: one "shrink-case" span, a "shrink-step" span per
    /// predicate evaluation, and step/removal/reduction counters.
    obs::Context obs;
};

struct ShrinkResult {
    driver::TestCase minimized;
    std::size_t steps = 0;               ///< predicate evaluations spent
    std::size_t sequence_removals = 0;   ///< path nodes removed by ddmin
    std::size_t value_reductions = 0;    ///< arguments simplified
    bool budget_exhausted = false;       ///< stopped early on max_steps
};

/// Minimize `failing` under `still_fails`.  The input case must satisfy
/// the predicate (callers check before shrinking); the result always
/// does — when nothing can be removed the input comes back verbatim.
[[nodiscard]] ShrinkResult shrink_case(const tspec::ComponentSpec& spec,
                                       const tfm::Graph& graph,
                                       const driver::TestCase& failing,
                                       const Predicate& still_fails,
                                       const ShrinkOptions& options = {});

}  // namespace stc::fuzz
