#include "stc/driver/generator.h"

#include <memory>
#include <mutex>

#include "stc/support/error.h"

namespace stc::driver {

std::string MethodCall::render() const {
    std::string out = (expect_rejection ? "!" : "") + method_name + "(";
    for (std::size_t i = 0; i < arguments.size(); ++i) {
        if (i != 0) out += ", ";
        out += arguments[i].to_source();
    }
    out += ")";
    return out;
}

const MethodCall& TestCase::constructor_call() const {
    if (calls.empty() || !calls.front().is_constructor) {
        throw SpecError("test case " + id + " does not start with a constructor");
    }
    return calls.front();
}

void CompletionRegistry::provide(const std::string& class_name, Completion completion) {
    // Completions append to arenas (element, ledger, provider pools)
    // that are plain vectors; one mutex per completion, shared by every
    // copy of this registry, serializes those appends.
    completions_[class_name] = [completion = std::move(completion),
                                mutex = std::make_shared<std::mutex>()](
                                   support::Pcg32& rng) {
        const std::lock_guard<std::mutex> lock(*mutex);
        return completion(rng);
    };
}

const CompletionRegistry::Completion* CompletionRegistry::find(
    const std::string& class_name) const {
    const auto it = completions_.find(class_name);
    return it == completions_.end() ? nullptr : &it->second;
}

DriverGenerator::DriverGenerator(tspec::ComponentSpec spec, GeneratorOptions options)
    : spec_(std::move(spec)), options_(options) {}

DriverGenerator& DriverGenerator::completions(const CompletionRegistry* registry) {
    completions_ = registry;
    return *this;
}

std::vector<tfm::Transaction> DriverGenerator::transactions() const {
    const tfm::Graph graph = spec_.build_tfm();
    auto all = graph.enumerate_transactions(options_.enumeration);
    const auto selected = tfm::select_transactions(graph, all, options_.criterion);
    std::vector<tfm::Transaction> out;
    out.reserve(selected.size());
    for (std::size_t i : selected) out.push_back(all[i]);
    return out;
}

MethodCall synthesize_call(const tspec::MethodSpec& method, support::Pcg32& rng,
                           std::size_t case_ordinal,
                           const CompletionRegistry* completions,
                           ValuePolicy policy, bool* needs_completion,
                           bool expect_rejection, const obs::Context& obs) {
    MethodCall call;
    call.method_id = method.id;
    call.method_name = method.name;
    call.is_constructor = method.is_constructor();
    call.is_destructor = method.is_destructor();
    call.expect_rejection = expect_rejection;

    // A negative call drives exactly one parameter outside its declared
    // domain — the first one whose domain can name an invalid value.
    bool violation_placed = false;

    for (const tspec::TypedSlot& p : method.parameters) {
        if (expect_rejection && !violation_placed && p.domain) {
            const auto invalid = p.domain->invalid_values();
            if (!invalid.empty()) {
                call.arguments.push_back(invalid[case_ordinal % invalid.size()]);
                violation_placed = true;
                continue;
            }
        }
        if (p.domain) {
            if (policy == ValuePolicy::Boundary) {
                const auto boundary = p.domain->boundary_values();
                if (!boundary.empty()) {
                    call.arguments.push_back(boundary[case_ordinal % boundary.size()]);
                    continue;
                }
            }
            obs.metrics.add("generator.value_draws");
            call.arguments.push_back(p.domain->sample(rng));
            continue;
        }
        // Structured parameter: completed by the tester (§3.4.1).
        const CompletionRegistry::Completion* completion =
            completions == nullptr ? nullptr : completions->find(p.class_name);
        if (completion != nullptr && *completion) {
            obs.metrics.add("generator.value_draws");
            call.arguments.push_back((*completion)(rng));
        } else {
            call.arguments.push_back(domain::Value::make_pointer(nullptr, p.class_name));
            *needs_completion = true;
        }
    }
    return call;
}

bool DriverGenerator::can_reject(const tspec::MethodSpec& method) {
    for (const tspec::TypedSlot& p : method.parameters) {
        if (p.domain && !p.domain->invalid_values().empty()) return true;
    }
    return false;
}

TestSuite DriverGenerator::generate() const {
    spec_.ensure_valid();
    const obs::SpanScope generate_span(options_.obs.tracer, "phase",
                                       "generate-suite");
    const tfm::Graph graph = spec_.build_tfm();

    TestSuite suite;
    suite.class_name = spec_.class_name;
    suite.seed = options_.seed;
    suite.model_nodes = graph.node_count();
    suite.model_links = graph.edge_count();

    const auto all = graph.enumerate_transactions(options_.enumeration);
    suite.transactions_enumerated = all.size();
    const auto selected = tfm::select_transactions(graph, all, options_.criterion);

    support::Pcg32 rng(options_.seed);
    std::size_t next_id = 0;

    for (std::size_t index : selected) {
        const tfm::Transaction& t = all[index];
        const auto method_ids = graph.method_sequence(t);

        for (std::size_t rep = 0; rep < options_.cases_per_transaction; ++rep) {
            TestCase tc;
            tc.id = "TC" + std::to_string(next_id++);
            tc.transaction = t;
            tc.transaction_text = graph.describe(t);

            for (const std::string& entry : method_ids) {
                const bool negative = tspec::is_negative_call(entry);
                const std::string mid = tspec::strip_negative_marker(entry);
                const tspec::MethodSpec* method = spec_.find_method(mid);
                if (method == nullptr) {
                    throw SpecError("transaction references unknown method id " + mid);
                }
                if (negative && !can_reject(*method)) {
                    throw SpecError("negative call !" + mid +
                                    ": no parameter domain can produce an "
                                    "out-of-domain value");
                }
                tc.calls.push_back(synthesize_call(
                    *method, rng, rep, completions_, options_.value_policy,
                    &tc.needs_completion, negative, options_.obs));
            }

            if (tc.calls.empty() || !tc.calls.front().is_constructor) {
                throw SpecError("transaction " + tc.transaction_text +
                                " does not begin with a constructor");
            }

            if (options_.include_entry_states) {
                // Mid-life entry variants: the same transaction entered
                // from each predefined internal state (set/reset, §3.3).
                for (const std::string& state : spec_.states) {
                    TestCase variant = tc;
                    variant.id = "TC" + std::to_string(next_id++);
                    variant.entry_state = state;
                    suite.cases.push_back(std::move(variant));
                }
            }
            suite.cases.push_back(std::move(tc));
        }
    }
    if (options_.obs.metrics.enabled()) {
        options_.obs.metrics.add("generator.cases", suite.cases.size());
        options_.obs.metrics.add("generator.suites");
    }
    return suite;
}

}  // namespace stc::driver
