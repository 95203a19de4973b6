#include "stc/fuzz/shrink.h"

#include <algorithm>
#include <vector>

#include "path_case.h"

namespace stc::fuzz {

namespace {

using detail::PathCase;
using detail::assemble;
using detail::reslice;

/// Candidate replacement values for one in-domain argument, smallest
/// first: a canonical zero when the domain admits it, then the domain's
/// declared boundary values.
std::vector<domain::Value> reduction_candidates(const domain::Domain& dom) {
    std::vector<domain::Value> out;
    domain::Value zero;
    switch (dom.kind()) {
        case domain::ValueKind::Int: zero = domain::Value::make_int(0); break;
        case domain::ValueKind::Real: zero = domain::Value::make_real(0.0); break;
        case domain::ValueKind::String: zero = domain::Value::make_string(""); break;
        default: return out;  // structured kinds are never value-shrunk
    }
    if (dom.contains(zero)) out.push_back(zero);
    for (const auto& b : dom.boundary_values()) {
        if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
    }
    return out;
}

}  // namespace

ShrinkResult shrink_case(const tspec::ComponentSpec& spec, const tfm::Graph& graph,
                         const driver::TestCase& failing,
                         const Predicate& still_fails,
                         const ShrinkOptions& options) {
    const obs::SpanScope shrink_span(options.obs.tracer, "phase", "shrink-case");
    ShrinkResult result;
    result.minimized = failing;

    auto try_candidate = [&](const driver::TestCase& candidate) -> bool {
        if (result.steps >= options.max_steps) {
            result.budget_exhausted = true;
            return false;
        }
        ++result.steps;
        options.obs.metrics.add("shrink.steps");
        const obs::SpanScope step_span(options.obs.tracer, "shrink-step",
                                       candidate.transaction_text);
        return still_fails(candidate);
    };

    // The two passes alternate to a fixpoint: a value reduction can make
    // a call removable.  A round whose value pass changes nothing ends
    // it — ddmin left that case 1-minimal, and the next round would
    // replay the same tries on it.
    for (bool reduced = true; reduced && !result.budget_exhausted;) {
        // --- Phase 1: ddmin over interior path nodes ---------------------
        PathCase pc;
        if (reslice(graph, result.minimized, &pc) && pc.path.size() > 2) {
            // `kept` indexes into pc.path/pc.groups; birth (0) and death
            // (last) never enter the removable set.
            std::vector<std::size_t> interior;
            for (std::size_t i = 1; i + 1 < pc.path.size(); ++i) interior.push_back(i);

            auto build = [&](const std::vector<std::size_t>& keep) -> PathCase {
                PathCase candidate;
                candidate.path.push_back(pc.path.front());
                candidate.groups.push_back(pc.groups.front());
                for (const std::size_t i : keep) {
                    candidate.path.push_back(pc.path[i]);
                    candidate.groups.push_back(pc.groups[i]);
                }
                candidate.path.push_back(pc.path.back());
                candidate.groups.push_back(pc.groups.back());
                return candidate;
            };

            std::size_t granularity = std::min<std::size_t>(2, interior.size());
            while (!interior.empty() && !result.budget_exhausted && granularity > 0) {
                const std::size_t chunk =
                    (interior.size() + granularity - 1) / granularity;
                bool removed_some = false;
                for (std::size_t start = 0;
                     start < interior.size() && !result.budget_exhausted;
                     start += chunk) {
                    // Complement test: drop interior[start, start+chunk).
                    std::vector<std::size_t> keep;
                    keep.reserve(interior.size());
                    for (std::size_t i = 0; i < interior.size(); ++i) {
                        if (i < start || i >= start + chunk) keep.push_back(interior[i]);
                    }
                    const PathCase candidate_pc = build(keep);
                    if (!graph.is_valid_transaction(candidate_pc.path)) continue;
                    const driver::TestCase candidate =
                        assemble(graph, result.minimized, candidate_pc);
                    if (!try_candidate(candidate)) continue;
                    result.sequence_removals += interior.size() - keep.size();
                    result.minimized = candidate;
                    interior = keep;
                    granularity = std::min<std::size_t>(
                        std::max<std::size_t>(granularity - 1, 2), interior.size());
                    removed_some = true;
                    break;  // re-chunk against the smaller interior
                }
                if (removed_some) continue;
                if (granularity >= interior.size()) break;  // 1-minimal
                granularity = std::min(granularity * 2, interior.size());
            }
        }

        // --- Phase 2: pull surviving argument values toward boundaries ---
        const std::size_t reductions_before = result.value_reductions;
        for (std::size_t c = 0;
             c < result.minimized.calls.size() && !result.budget_exhausted; ++c) {
            // Copy the per-call invariants out up front: the loop below
            // reassigns result.minimized, which frees the calls buffer any
            // reference into it would dangle over.  Accepting a candidate
            // never changes the call shape, only one argument value.
            if (result.minimized.calls[c].expect_rejection) {
                continue;  // args are out of domain on purpose
            }
            const std::string method_id = result.minimized.calls[c].method_id;
            const std::size_t arg_count = result.minimized.calls[c].arguments.size();
            const tspec::MethodSpec* method = spec.find_method(method_id);
            if (method == nullptr || method->parameters.size() != arg_count) {
                continue;
            }
            for (std::size_t a = 0; a < arg_count && !result.budget_exhausted; ++a) {
                const tspec::TypedSlot& slot = method->parameters[a];
                if (!slot.domain) continue;
                for (const domain::Value& v : reduction_candidates(*slot.domain)) {
                    // Candidates are ranked smallest-first; once the current
                    // value's own rank is reached, every later candidate is
                    // worse, so stop (also makes re-shrinking a no-op).
                    if (v == result.minimized.calls[c].arguments[a]) break;
                    driver::TestCase candidate = result.minimized;
                    candidate.calls[c].arguments[a] = v;
                    if (try_candidate(candidate)) {
                        result.minimized = std::move(candidate);
                        ++result.value_reductions;
                        options.obs.metrics.add("shrink.value_reductions");
                        break;
                    }
                    if (result.budget_exhausted) break;
                }
            }
        }
        reduced = result.value_reductions != reductions_before;
    }

    options.obs.metrics.add("shrink.cases");
    options.obs.metrics.add("shrink.sequence_removals",
                            result.sequence_removals);
    return result;
}

}  // namespace stc::fuzz
