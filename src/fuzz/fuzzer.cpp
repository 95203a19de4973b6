#include "stc/fuzz/fuzzer.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "path_case.h"
#include "stc/campaign/seed.h"  // header-only mixing (derived RNG streams)
#include "stc/driver/suite_io.h"
#include "stc/support/error.h"

namespace stc::fuzz {

namespace {

using detail::PathCase;
using detail::assemble;
using detail::reslice;

/// "AddHead(321)" -> "AddHead", "!Dec()" -> "Dec" — the stable identity
/// of a failing method for finding deduplication.
std::string normalize_method(const std::string& rendered) {
    std::string out = rendered.substr(0, rendered.find('('));
    if (!out.empty() && out.front() == '!') out.erase(0, 1);
    return out;
}

bool is_failure(driver::Verdict v) noexcept {
    switch (v) {
        case driver::Verdict::AssertionViolation:
        case driver::Verdict::Crash:
        case driver::Verdict::UncaughtException:
        case driver::Verdict::ContractNotEnforced:
        case driver::Verdict::ModelDivergence:
        case driver::Verdict::IllegalQuiescence:
            return true;
        case driver::Verdict::Pass:
        case driver::Verdict::SetupError:  // infrastructure, not the CUT
            return false;
    }
    return false;
}

/// Coverage novelty tracker.  An input is interesting when it reaches a
/// TFM node, link, per-node visit-count bucket (AFL-style, capped at 8),
/// or verdict kind no earlier input reached.
class CoverageMap {
public:
    bool observe(const std::vector<tfm::NodeIndex>& path, driver::Verdict v) {
        bool novel = false;
        std::map<tfm::NodeIndex, std::size_t> visits;
        for (const tfm::NodeIndex n : path) {
            novel |= nodes_.insert(n).second;
            ++visits[n];
        }
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            novel |= edges_.insert({path[i], path[i + 1]}).second;
        }
        for (const auto& [n, count] : visits) {
            novel |= buckets_.insert({n, std::min<std::size_t>(count, 8)}).second;
        }
        novel |= verdicts_.insert(driver::to_string(v)).second;
        return novel;
    }

    [[nodiscard]] std::size_t nodes() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edges() const noexcept { return edges_.size(); }

private:
    std::set<tfm::NodeIndex> nodes_;
    std::set<std::pair<tfm::NodeIndex, tfm::NodeIndex>> edges_;
    std::set<std::pair<tfm::NodeIndex, std::size_t>> buckets_;
    std::set<std::string> verdicts_;
};

/// Synthesize the call group of one TFM node with freshly drawn values —
/// the value-mutation primitive, sharing the generator's §3.4.1 logic.
std::vector<driver::MethodCall> synth_group(const tspec::ComponentSpec& spec,
                                            const tfm::Graph& graph,
                                            tfm::NodeIndex node,
                                            const driver::CompletionRegistry* completions,
                                            support::Pcg32& rng,
                                            const obs::Context& obs) {
    std::vector<driver::MethodCall> calls;
    for (const std::string& entry : graph.node(node).method_ids) {
        const bool marked_negative = tspec::is_negative_call(entry);
        const std::string mid = tspec::strip_negative_marker(entry);
        const tspec::MethodSpec* method = spec.find_method(mid);
        if (method == nullptr) {
            throw SpecError("TFM node references unknown method id " + mid);
        }
        // Mutated values cycle through a random boundary/invalid ordinal;
        // a quarter of draws use the boundary policy for edge pressure.
        const std::size_t ordinal = rng.index(8);
        const auto policy = rng.chance(0.25) ? driver::ValuePolicy::Boundary
                                             : driver::ValuePolicy::Random;
        const bool negative =
            marked_negative && driver::DriverGenerator::can_reject(*method);
        bool needs_completion = false;
        calls.push_back(driver::synthesize_call(*method, rng, ordinal,
                                                completions, policy,
                                                &needs_completion, negative, obs));
    }
    return calls;
}

/// Follow the shortest-path-to-death chain from `from`, appending nodes
/// and fresh call groups.  Returns false when death is unreachable.
bool steer_to_death(const tspec::ComponentSpec& spec, const tfm::Graph& graph,
                    const std::vector<std::optional<tfm::NodeIndex>>& hops,
                    const driver::CompletionRegistry* completions,
                    support::Pcg32& rng, const obs::Context& obs,
                    PathCase* pc) {
    tfm::NodeIndex current = pc->path.back();
    while (!graph.is_death(current)) {
        const auto hop = hops[current];
        if (!hop || pc->path.size() >= tfm::kMaxPathLength) return false;
        current = *hop;
        pc->path.push_back(current);
        pc->groups.push_back(
            synth_group(spec, graph, current, completions, rng, obs));
    }
    return true;
}

}  // namespace

std::string Finding::key() const {
    return std::string(driver::to_string(verdict)) + "|" + failed_method;
}

CorpusEntry Finding::to_corpus_entry(const std::string& class_name) const {
    CorpusEntry entry;
    entry.suite.class_name = class_name;
    entry.suite.cases.push_back(reproducer);
    entry.verdict = verdict;
    entry.failed_method = failed_method;
    entry.mutant_id = mutant_id;
    return entry;
}

std::string FuzzStats::render() const {
    std::ostringstream os;
    os << "fuzz iterations " << iterations << "\n"
       << "fuzz executions " << executions << "\n"
       << "fuzz interesting " << interesting << "\n"
       << "fuzz population " << population << "\n"
       << "fuzz nodes-covered " << nodes_covered << "\n"
       << "fuzz edges-covered " << edges_covered << "\n";
    for (const auto& [name, count] : verdict_counts) {
        os << "fuzz verdict " << name << " " << count << "\n";
    }
    return os.str();
}

Fuzzer::Fuzzer(tspec::ComponentSpec spec, FuzzOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

Fuzzer& Fuzzer::completions(const driver::CompletionRegistry* registry) {
    completions_ = registry;
    return *this;
}

Fuzzer& Fuzzer::case_runner(CaseRunner runner) {
    runner_ = std::move(runner);
    return *this;
}

FuzzResult Fuzzer::run() {
    if (!runner_) throw Error("Fuzzer: case_runner is required before run()");
    spec_.ensure_valid();
    const obs::SpanScope run_span(options_.obs.tracer, "phase", "fuzz-run");

    const tfm::Graph graph = spec_.build_tfm();
    const auto hops = graph.next_hop_to_death();

    // The exploration stream is decorrelated from the generator's seed so
    // mutated draws never replay the seed suite's value sequence.
    support::Pcg32 rng(campaign::splitmix64(options_.seed),
                       campaign::fnv1a64("stc.fuzz.explore"));

    driver::DriverGenerator generator(spec_, options_.generator);
    generator.completions(completions_);
    const driver::TestSuite seed_suite = generator.generate();

    FuzzResult out;
    CoverageMap coverage;
    std::vector<driver::TestCase> population;
    std::set<std::string> finding_keys;
    std::size_t synthetic_id = 0;

    auto execute = [&](const driver::TestCase& tc) -> driver::TestResult {
        ++out.stats.executions;
        options_.obs.metrics.add("fuzz.executions");
        return runner_(tc);
    };

    // One mutation attempt; nullopt when the chosen operator cannot apply
    // (no common splice node, death unreachable, length cap, ...).
    auto mutate_once = [&]() -> std::optional<driver::TestCase> {
        if (population.empty()) return std::nullopt;
        const driver::TestCase& base = population[rng.index(population.size())];
        PathCase pc;
        if (!reslice(graph, base, &pc)) return std::nullopt;

        const std::size_t op = rng.index(4);
        if (op == 0) {
            // Re-draw the argument values of one call group.
            const std::size_t g = rng.index(pc.path.size());
            pc.groups[g] = synth_group(spec_, graph, pc.path[g], completions_,
                                       rng, options_.obs);
        } else if (op == 1) {
            // Extend: keep a prefix, random-walk a few nodes, steer home.
            // A single-node transaction (birth node that is also a death
            // node) has no proper prefix to cut at.
            if (pc.path.size() < 2) return std::nullopt;
            const std::size_t cut = rng.index(pc.path.size() - 1);
            pc.path.resize(cut + 1);
            pc.groups.resize(cut + 1);
            const std::size_t extra = 1 + rng.index(3);
            for (std::size_t step = 0; step < extra; ++step) {
                const auto& next = graph.successors(pc.path.back());
                if (next.empty() || pc.path.size() >= tfm::kMaxPathLength) break;
                const tfm::NodeIndex chosen = next[rng.index(next.size())];
                pc.path.push_back(chosen);
                pc.groups.push_back(synth_group(spec_, graph, chosen,
                                                completions_, rng, options_.obs));
            }
            if (!steer_to_death(spec_, graph, hops, completions_, rng,
                                options_.obs, &pc)) {
                return std::nullopt;
            }
        } else if (op == 2) {
            // Truncate: keep a prefix, then the shortest way to death.
            if (pc.path.size() < 2) return std::nullopt;
            const std::size_t cut = rng.index(pc.path.size() - 1);
            pc.path.resize(cut + 1);
            pc.groups.resize(cut + 1);
            if (!steer_to_death(spec_, graph, hops, completions_, rng,
                                options_.obs, &pc)) {
                return std::nullopt;
            }
        } else {
            // Splice: prefix of this member + suffix of another, joined at
            // a node both paths visit.
            const driver::TestCase& other =
                population[rng.index(population.size())];
            PathCase oc;
            if (!reslice(graph, other, &oc)) return std::nullopt;
            std::vector<std::pair<std::size_t, std::size_t>> joints;
            for (std::size_t i = 0; i < pc.path.size(); ++i) {
                for (std::size_t j = 0; j < oc.path.size(); ++j) {
                    if (pc.path[i] == oc.path[j]) joints.push_back({i, j});
                }
            }
            if (joints.empty()) return std::nullopt;
            const auto [i, j] = joints[rng.index(joints.size())];
            pc.path.resize(i + 1);
            pc.groups.resize(i + 1);
            pc.path.insert(pc.path.end(), oc.path.begin() + j + 1, oc.path.end());
            pc.groups.insert(pc.groups.end(), oc.groups.begin() + j + 1,
                             oc.groups.end());
            if (pc.path.size() > tfm::kMaxPathLength) return std::nullopt;
        }

        if (!graph.is_valid_transaction(pc.path)) return std::nullopt;
        driver::TestCase mutated = assemble(graph, base, pc);
        mutated.id = "FZ" + std::to_string(synthetic_id++);
        return mutated;
    };

    std::size_t seed_cursor = 0;
    while (out.stats.iterations < options_.iterations) {
        const std::size_t iteration = out.stats.iterations;
        const obs::SpanScope iter_span(options_.obs.tracer, "fuzz-iteration",
                                       "it" + std::to_string(iteration));

        driver::TestCase input;
        if (seed_cursor < seed_suite.cases.size()) {
            input = seed_suite.cases[seed_cursor++];
        } else {
            std::optional<driver::TestCase> mutated;
            for (int attempt = 0; attempt < 4 && !mutated; ++attempt) {
                mutated = mutate_once();
            }
            if (!mutated) {
                // Degenerate population (e.g. nothing reslices): recycle
                // the seed suite so the budget still exercises the CUT.
                input = seed_suite.cases.empty()
                            ? driver::TestCase{}
                            : seed_suite.cases[iteration %
                                               seed_suite.cases.size()];
            } else {
                input = std::move(*mutated);
            }
        }
        if (input.calls.empty()) break;  // nothing runnable at all

        const driver::TestResult result = execute(input);
        ++out.stats.iterations;
        options_.obs.metrics.add("fuzz.iterations");
        ++out.stats.verdict_counts[driver::to_string(result.verdict)];

        if (coverage.observe(input.transaction.path, result.verdict)) {
            ++out.stats.interesting;
            options_.obs.metrics.add("fuzz.interesting");
            population.push_back(input);
        }

        if (!is_failure(result.verdict)) continue;
        Finding finding;
        finding.verdict = result.verdict;
        finding.failed_method = normalize_method(result.failed_method);
        finding.message = result.message;
        finding.iteration = iteration;
        finding.mutant_id = options_.mutant_id;
        if (!finding_keys.insert(finding.key()).second) continue;

        finding.original = input;
        const auto still_fails = [&](const driver::TestCase& candidate) {
            return execute(candidate).verdict == finding.verdict;
        };
        ShrinkOptions shrink_options;
        shrink_options.max_steps = options_.max_shrink_steps;
        shrink_options.obs = options_.obs;
        finding.shrink =
            shrink_case(spec_, graph, input, still_fails, shrink_options);
        finding.reproducer = finding.shrink.minimized;
        options_.obs.metrics.add("fuzz.findings");
        out.findings.push_back(std::move(finding));
    }

    out.stats.population = population.size();
    out.stats.nodes_covered = coverage.nodes();
    out.stats.edges_covered = coverage.edges();
    return out;
}

PersistOutcome persist_entry(const std::string& dir, CorpusEntry entry,
                             const driver::CompletionRegistry* completions,
                             const CaseRunner& runner,
                             std::uint64_t entry_seed) {
    entry.suite.seed = entry_seed;
    if (entry.suite.cases.size() != 1) {
        throw Error("persist_entry: corpus entry must hold exactly one case");
    }

    // Prove the persisted bytes replay: pointer arguments survive only as
    // placeholders, so the file is trusted only if reload + recompletion
    // (from the recorded seed) reproduces the recorded verdict.
    std::ostringstream text;
    save_entry(text, entry);
    std::istringstream in(text.str());
    CorpusEntry reloaded = load_entry(in);
    if (completions != nullptr) {
        (void)driver::recomplete_suite(reloaded.suite, *completions, entry_seed);
    }
    const driver::TestResult replay = runner(reloaded.suite.cases.front());
    if (replay.verdict != entry.verdict) return {};

    PersistOutcome out;
    out.reproducible = true;
    out.path = (dir.empty() ? std::string(".") : dir) + "/" + entry_filename(entry);
    save_entry_file(out.path, entry);
    return out;
}

}  // namespace stc::fuzz
