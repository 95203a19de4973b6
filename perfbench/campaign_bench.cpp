// Campaign benchmark harness.
//
// Drives one benchmark workload through the public campaign APIs only —
// suite generation, campaign::CampaignScheduler::run,
// serve::Coordinator::run against running `concat serve` daemons, and
// kill::kill_survivors + campaign::rewrite_store — checks every outcome
// against a reference, and prints its measurements as one JSON line.
// perfbench/run.py builds this program, prepares its references, starts
// and reaps the dispatch daemons, and turns the line into the
// benchmark's result (perfbench/README.md).
//
//   campaign_bench prepare --workload W --seed N --cache DIR
//   campaign_bench run --workload W --seed N --seconds S --trace 0|1
//                      --cache DIR --work DIR [--workers H:P,H:P]
//
// `prepare` computes what a run checks against and is not timed: the
// exhaustive reference of each generator seed (in process, no pruning,
// one job) and, for kill-sortable, the result stores of the campaigns
// whose survivors the kill pass attacks.  Both are cached in DIR.
//
// `run` is a closed loop: one campaign (or kill pass) at a time until
// the run length is spent.  With --trace 1 it alternates an untraced
// and a traced campaign of the same generator seed; the per-layer
// numbers come from the traced ones, and their item phases divided by
// the untraced ones' give the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "stc/campaign/result_store.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/seed.h"
#include "stc/campaign/telemetry.h"
#include "stc/campaign/work_list.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/kill/kill.h"
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/obs/context.h"
#include "stc/sandbox/codec.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/dispatch.h"
#include "stc/support/error.h"

namespace fs = std::filesystem;
using namespace stc;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Worker threads, sandbox processes or daemons per campaign: with the
/// harness's own thread that keeps a workload within 3 busy cores.
constexpr std::size_t kJobs = 2;

// ---------------------------------------------------------------------
// Workloads

struct Workload {
    std::string name;
    std::string component;  // built-in target
    bool model = false;
    bool isolate = false;
    bool dispatch = false;
    bool kill = false;
    /// Distinct generator seeds a run cycles through.  A campaign's cost
    /// barely depends on its suite, and each seed needs an exhaustive
    /// reference (~2.5 s for sortable), so campaigns use two.  A kill
    /// pass's cost does depend on its survivors (10.5-16 items/s across
    /// seeds), so each pass of a run gets a suite of its own.
    std::size_t seed_pool = 2;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"campaign-threads", "sortable", false, false, false, false, 2},
        {"campaign-isolate", "coblist", true, true, false, false, 2},
        {"campaign-dispatch", "sortable", false, false, true, false, 2},
        {"kill-sortable", "sortable", true, false, false, true, 8},
    };
    return all;
}

/// Campaign k of a run: the workload seed itself for k = 0 (so seed
/// 20010701 reproduces EXPERIMENTS.md), a mix of (seed, k mod pool)
/// otherwise.
std::uint64_t generator_seed(const Workload& w, std::uint64_t seed, std::size_t k) {
    const std::size_t slot = k % w.seed_pool;
    return slot == 0 ? seed : obs::mix64(seed ^ slot);
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

// Kill-pass search settings (`concat kill --budget-states 4096
// --max-depth 12`).
constexpr std::size_t kKillBudget = 4096;
constexpr std::size_t kKillDepth = 12;

// ---------------------------------------------------------------------
// Statistics

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
    return percentile(values, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// References

/// Per-mutant (fate, kill reason) and the score of one campaign.
struct Reference {
    double score = 0.0;
    std::vector<std::string> ids;
    std::vector<std::string> fates;
    std::vector<std::string> reasons;
};

std::string reference_path(const std::string& cache, const Workload& w,
                           std::uint64_t g) {
    return cache + "/ref-" + w.component + (w.model ? "-model-" : "-") +
           std::to_string(g) + ".txt";
}

std::string kill_store_path(const std::string& cache, std::uint64_t g) {
    return cache + "/kill-store-" + std::to_string(g) + ".jsonl";
}

/// Write through a temporary so an interrupted prepare never leaves a
/// half-written cache entry behind.
void write_atomically(const std::string& path, const std::string& text) {
    const std::string tmp = path + ".tmp" + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << text;
        if (!out) throw Error("cannot write " + tmp);
    }
    fs::rename(tmp, path);
}

std::optional<Reference> load_reference(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    Reference ref;
    std::string word;
    if (!(in >> word >> ref.score) || word != "score") return std::nullopt;
    std::string id, fate, reason;
    while (in >> id >> fate >> reason) {
        ref.ids.push_back(id);
        ref.fates.push_back(fate);
        ref.reasons.push_back(reason);
    }
    return ref;
}

driver::GeneratorOptions generator_options(std::uint64_t g,
                                           const obs::Context& obs) {
    driver::GeneratorOptions options;
    options.seed = g;
    options.obs = obs;
    return options;
}

const driver::ModelBinding* model_for(const Workload& w,
                                      const std::string& class_name) {
    if (!w.model) return nullptr;
    const driver::ModelBinding* binding = model::binding_for(class_name);
    if (binding == nullptr) throw Error("no reference model for " + class_name);
    return binding;
}

/// The exhaustive reference: in process, no pruning, one job.
Reference compute_reference(const Workload& w, std::uint64_t g) {
    const serve::BuiltinTarget* target = serve::find_builtin_target(w.component);
    const serve::BuiltinComponent holder = target->make_component();
    const core::SelfTestableComponent& component = *holder.component;
    const driver::TestSuite suite = component.generate_tests(generator_options(g, {}));
    const auto mutants = target->mutants();
    campaign::CampaignOptions options;
    options.jobs = 1;
    options.seed = g;
    options.prune = false;
    options.engine.runner.model = model_for(w, suite.class_name);
    const campaign::CampaignScheduler scheduler(component.registry(), options);
    const campaign::CampaignResult result = scheduler.run(suite, mutants);
    Reference ref;
    ref.score = result.run.score();
    for (const mutation::MutantOutcome& outcome : result.run.outcomes) {
        ref.ids.push_back(outcome.mutant->id());
        ref.fates.push_back(mutation::to_string(outcome.fate));
        ref.reasons.push_back(oracle::to_string(outcome.reason));
    }
    return ref;
}

void save_reference(const std::string& path, const Reference& ref) {
    std::ostringstream text;
    text << "score " << std::setprecision(17) << ref.score << "\n";
    for (std::size_t i = 0; i < ref.ids.size(); ++i) {
        text << ref.ids[i] << " " << ref.fates[i] << " " << ref.reasons[i] << "\n";
    }
    write_atomically(path, text.str());
}

/// The store a kill pass starts from: `concat campaign sortable --model
/// --jobs 2 --resume STORE`.
void prepare_kill_store(const Workload& w, std::uint64_t g,
                        const std::string& path) {
    const serve::BuiltinTarget* target = serve::find_builtin_target(w.component);
    const serve::BuiltinComponent holder = target->make_component();
    const core::SelfTestableComponent& component = *holder.component;
    const driver::TestSuite suite = component.generate_tests(generator_options(g, {}));
    const auto mutants = target->mutants();
    campaign::CampaignOptions options;
    options.jobs = kJobs;
    options.seed = g;
    options.store_path = path + ".tmp" + std::to_string(::getpid());
    options.engine.runner.model = model_for(w, suite.class_name);
    fs::remove(options.store_path);
    const campaign::CampaignScheduler scheduler(component.registry(), options);
    (void)scheduler.run(suite, mutants);
    fs::rename(options.store_path, path);
}

// ---------------------------------------------------------------------
// Span analysis (traced campaigns only)

/// Per-layer self time of the spans inside one item-phase window.
struct SpanBreakdown {
    std::map<std::string, double> self_ms;  // layer -> self time
    std::vector<double> case_us;            // test-case durations
    std::vector<double> search_ms;          // kill-search durations
    double generate_ms = -1.0;
    double baseline_ms = -1.0;
    double prune_plan_ms = -1.0;
    double resume_ms = -1.0;
    double shrink_ms = 0.0;
    std::size_t cases = 0;
    std::size_t streamed_spans = 0;
};

std::string layer_of(const obs::TraceEvent& e) {
    const std::string& c = e.category;
    if (c == "test-case" || c == "method-call" || c == "suite-run") return "driver";
    if (c == "model-compare") return "model";
    if (c == "oracle-compare") return "oracle";
    if (c == "mutant-evaluation") return "mutation";
    if (c == "serve" || c == "dispatch") return "serve";
    if (c == "sandbox") return "sandbox";
    if (c == "kill-search" || c == "kill-phase") return "kill";
    if (c == "shrink-step" || e.name == "shrink-case") return "fuzz";
    return "other";
}

/// The phase spans an executor's calling thread holds open while its
/// workers run the items: waiting, not work, so never attributed.
bool is_executor_phase(const obs::TraceEvent& e) {
    return e.category == "phase" &&
           (e.name == "campaign" || e.name == "item-execution" ||
            e.name == "dispatch" || e.name == "kill-run");
}

/// `window_*` bound the item phase on the tracer's clock; the spans that
/// lie inside it are attributed to their layers.  A span's self time is
/// its duration minus its direct children's.
SpanBreakdown analyze_spans(const std::vector<obs::TraceEvent>& events,
                            std::uint64_t window_start, std::uint64_t window_end) {
    SpanBreakdown out;
    const auto phase_ms = [&](const obs::TraceEvent& e, double* slot) {
        if (*slot < 0.0) *slot = 0.0;
        *slot += static_cast<double>(e.dur_us) / 1000.0;
    };
    std::vector<const obs::TraceEvent*> inside;
    for (const obs::TraceEvent& e : events) {
        if (e.actor != 0) ++out.streamed_spans;
        if (e.category == "test-case") {
            ++out.cases;
            out.case_us.push_back(static_cast<double>(e.dur_us));
        }
        if (e.category == "kill-search") {
            out.search_ms.push_back(static_cast<double>(e.dur_us) / 1000.0);
        }
        if (e.category == "phase") {
            if (e.name == "generate-suite") phase_ms(e, &out.generate_ms);
            if (e.name == "golden-baseline") phase_ms(e, &out.baseline_ms);
            if (e.name == "prune-plan") phase_ms(e, &out.prune_plan_ms);
            if (e.name == "resume-scan") phase_ms(e, &out.resume_ms);
            if (e.name == "shrink-case") {
                out.shrink_ms += static_cast<double>(e.dur_us) / 1000.0;
            }
        }
        if (is_executor_phase(e)) continue;
        if (e.ts_us >= window_start && e.ts_us + e.dur_us <= window_end) {
            inside.push_back(&e);
        }
    }
    std::unordered_map<std::uint64_t, double> child_us;
    for (const obs::TraceEvent* e : inside) {
        if (e->parent_id != 0) child_us[e->parent_id] += static_cast<double>(e->dur_us);
    }
    for (const obs::TraceEvent* e : inside) {
        const auto it = child_us.find(e->span_id);
        const double children = it == child_us.end() ? 0.0 : it->second;
        const double self = std::max(0.0, static_cast<double>(e->dur_us) - children);
        out.self_ms[layer_of(*e)] += self / 1000.0;
    }
    return out;
}

// ---------------------------------------------------------------------
// Replays: per-record costs of the store, telemetry and sandbox codec,
// measured after a traced campaign on its own records.

std::vector<std::string> read_lines(const std::string& path) {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

/// The distinct key sets each event kind of a telemetry file has (a
/// kind the coordinator writes and the daemons stream has two).
using EventKeys = std::map<std::string, std::set<std::vector<std::string>>>;

EventKeys event_keys(const std::string& path) {
    EventKeys out;
    for (const std::string& line : read_lines(path)) {
        const auto event = obs::JsonObject::parse(line);
        if (!event) continue;
        std::vector<std::string> keys;
        for (const auto& [key, value] : event->fields()) keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        out[event->get_string("event").value_or("")].insert(std::move(keys));
    }
    return out;
}

std::vector<double> replay_store_appends(const std::string& store_path,
                                         const std::string& scratch) {
    std::vector<double> us;
    std::string error;
    const auto peek = campaign::peek_store(store_path, &error);
    if (!peek) return us;
    fs::remove(scratch);
    campaign::ResultStore store(scratch, peek->fingerprint);
    for (const campaign::ItemRecord& record : peek->records) {
        const auto t0 = Clock::now();
        store.append(record);
        us.push_back(ms_between(t0, Clock::now()) * 1000.0);
    }
    return us;
}

std::vector<double> replay_telemetry(const std::string& telemetry_path,
                                     const std::string& scratch) {
    std::vector<double> us;
    std::vector<obs::JsonObject> events;
    for (const std::string& line : read_lines(telemetry_path)) {
        if (auto event = obs::JsonObject::parse(line)) events.push_back(std::move(*event));
    }
    campaign::TelemetrySink sink = campaign::TelemetrySink::to_file(scratch);
    for (obs::JsonObject& event : events) {
        const auto t0 = Clock::now();
        sink.emit(std::move(event));
        us.push_back(ms_between(t0, Clock::now()) * 1000.0);
    }
    return us;
}

// ---------------------------------------------------------------------
// Measurements

/// One campaign or kill pass.
struct Sample {
    std::size_t items = 0;
    std::size_t failed = 0;
    double setup_ms = 0.0;      // on the calling thread alone
    double handshake_ms = 0.0;  // dispatch: the daemons' session open
    double item_ms = 0.0;
    double score = 0.0;
    std::size_t survivors = 0;
    std::size_t killers = 0;      // verified and replayed from the corpus
    std::size_t unpersisted = 0;  // verified, no corpus entry, replayed in memory
    bool traced = false;
};

/// Everything the traced campaigns of a run add up to the per-layer
/// metrics.  Counts are per traced campaign; latencies pool samples.
struct Layers {
    std::size_t campaigns = 0;
    double capacity_ms = 0.0;  // jobs x item phase, summed
    std::map<std::string, double> self_ms;
    std::vector<double> generate_ms, baseline_ms, prune_plan_ms, resume_ms;
    std::vector<double> case_us;
    std::vector<double> item_wall_ms;  // item-finish wall_ms
    std::vector<double> items_ms;      // item phase per campaign
    std::map<std::string, double> counts;
    std::vector<double> store_append_us, telemetry_emit_us;
    std::vector<double> codec_us;
    double frame_bytes = 0.0;
    std::size_t frames = 0;
    std::vector<double> handshake_ms, open_ms;
    std::vector<double> round_trip_ms;
    std::vector<double> search_ms, rewrite_ms;
    double untraced_items_ms = 0.0;
    double traced_items_ms = 0.0;

    void add(const std::string& name, double value) { counts[name] += value; }
};

struct Env {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    std::string cache;
    std::string work;
    std::string workers;
    std::map<std::uint64_t, Reference> references;
    Layers layers;
    /// Set for the warm-up campaign: keep the event keys of its
    /// telemetry (dispatch only) for run.py --self-check.
    bool collect_keys = false;
    EventKeys telemetry_keys;
};

const Reference& reference_for(Env& env, std::uint64_t g) {
    auto it = env.references.find(g);
    if (it != env.references.end()) return it->second;
    const std::string path = reference_path(env.cache, *env.workload, g);
    auto ref = load_reference(path);
    if (!ref) throw Error("missing reference " + path + " (run prepare first)");
    return env.references.emplace(g, std::move(*ref)).first->second;
}

/// Mismatches of a campaign's outcomes against its reference; a missing
/// outcome (lost item) counts as one.
std::size_t check_outcomes(const Reference& ref,
                           const std::vector<mutation::MutantOutcome>& outcomes,
                           double score) {
    std::size_t failed = 0;
    if (outcomes.size() != ref.ids.size()) {
        return std::max(outcomes.size(), ref.ids.size());
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const mutation::MutantOutcome& o = outcomes[i];
        if (o.mutant == nullptr || o.mutant->id() != ref.ids[i] ||
            ref.fates[i] != mutation::to_string(o.fate) ||
            ref.reasons[i] != oracle::to_string(o.reason)) {
            ++failed;
        }
    }
    if (failed == 0 && std::abs(score - ref.score) > 1e-12) failed = 1;
    return failed;
}

obs::Context traced_context() {
    obs::Context ctx;
    ctx.tracer = obs::Tracer::make();
    ctx.metrics = obs::Metrics::make();
    return ctx;
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// Fold the item-finish events of a telemetry file into `layers`.
void absorb_telemetry(const std::string& path, Layers& layers, double* wall_sum,
                      std::size_t* spawns) {
    for (const std::string& line : read_lines(path)) {
        const auto event = obs::JsonObject::parse(line);
        if (!event) continue;
        const std::string kind = event->get_string("event").value_or("");
        if (kind == "item-finish") {
            const double wall = event->get_double("wall_ms").value_or(0.0);
            layers.item_wall_ms.push_back(wall);
            *wall_sum += wall;
        } else if (kind == "worker-spawn") {
            ++*spawns;
        }
    }
}

/// The program's counters behind the per-layer count metrics.
const std::pair<const char*, const char*> kCounters[] = {
    {"runner.method_calls", "driver.method_calls"},
    {"runner.invariant_checks", "bit.invariant_checks"},
    {"model.compares", "model.compares"},
    {"oracle.suite_compares", "oracle.suite_compares"},
};

void absorb_metrics(const obs::Metrics& metrics, Layers& layers) {
    for (const auto& [counter, metric] : kCounters) {
        layers.add(metric, static_cast<double>(metrics.counter(counter)));
    }
}

/// The counters of a streamed metrics-snapshot payload (Metrics::
/// write_json: a flat "counters" object of name -> integer).
std::map<std::string, double> snapshot_counters(const std::string& text) {
    std::map<std::string, double> out;
    const std::string open = "\"counters\":{";
    const std::size_t begin = text.find(open);
    if (begin == std::string::npos) return out;
    const std::size_t end = text.find('}', begin);
    std::size_t at = begin + open.size();
    while (at < end) {
        const std::size_t name_end = text.find("\":", at + 1);
        if (name_end == std::string::npos || name_end > end) break;
        const std::string name = text.substr(at + 1, name_end - at - 1);
        out[name] = std::strtod(text.c_str() + name_end + 2, nullptr);
        at = text.find(',', name_end);
        if (at == std::string::npos || at > end) break;
        ++at;
    }
    return out;
}

void absorb_spans(const SpanBreakdown& spans, Layers& layers) {
    for (const auto& [layer, ms] : spans.self_ms) layers.self_ms[layer] += ms;
    if (spans.generate_ms >= 0.0) layers.generate_ms.push_back(spans.generate_ms);
    if (spans.baseline_ms >= 0.0) layers.baseline_ms.push_back(spans.baseline_ms);
    if (spans.prune_plan_ms >= 0.0) layers.prune_plan_ms.push_back(spans.prune_plan_ms);
    if (spans.resume_ms >= 0.0) layers.resume_ms.push_back(spans.resume_ms);
    layers.case_us.insert(layers.case_us.end(), spans.case_us.begin(), spans.case_us.end());
    layers.search_ms.insert(layers.search_ms.end(), spans.search_ms.begin(),
                            spans.search_ms.end());
    layers.add("driver.cases", static_cast<double>(spans.cases));
    layers.add("obs.streamed_spans", static_cast<double>(spans.streamed_spans));
    layers.add("fuzz.shrink_ms", spans.shrink_ms);
}

void absorb_prune(const mutation::PruneStats& prune, Layers& layers) {
    layers.add("mutation.executed_pairs", static_cast<double>(prune.executed_pairs));
    layers.add("mutation.pruned_pairs", static_cast<double>(prune.pruned_pairs));
    layers.add("mutation.memoized_pairs", static_cast<double>(prune.memoized_pairs));
    layers.add("mutation.memoized_calls", static_cast<double>(prune.memoized_calls));
}

/// Sizes of a campaign's store and telemetry files, and their records
/// replayed through ResultStore::append and TelemetrySink::emit.
void absorb_files(const std::string& store, const std::string& telemetry,
                  const std::string& work, Layers& layers) {
    layers.add("campaign.store_bytes", static_cast<double>(file_bytes(store)));
    layers.add("campaign.telemetry_bytes", static_cast<double>(file_bytes(telemetry)));
    const auto appends = replay_store_appends(store, work + "/replay-store.jsonl");
    layers.store_append_us.insert(layers.store_append_us.end(), appends.begin(),
                                  appends.end());
    const auto emits = replay_telemetry(telemetry, work + "/replay-telemetry.jsonl");
    layers.telemetry_emit_us.insert(layers.telemetry_emit_us.end(), emits.begin(),
                                    emits.end());
}

/// Encode + decode every outcome as a sandbox reply frame carries it
/// (pair counters included, as a pruned campaign's replies have them).
void replay_codec(const std::vector<mutation::MutantOutcome>& outcomes, Layers& layers) {
    const mutation::PruneStats counters;
    for (const mutation::MutantOutcome& outcome : outcomes) {
        const auto t0 = Clock::now();
        const std::string frame = sandbox::encode_outcome(outcome, &counters);
        const auto decoded = sandbox::decode_outcome(frame);
        layers.codec_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
        if (decoded) {
            layers.frame_bytes += static_cast<double>(frame.size());
            ++layers.frames;
        }
    }
}

// --- campaign-threads / campaign-isolate ------------------------------

Sample run_local_campaign(Env& env, std::uint64_t g, std::size_t k, bool traced) {
    const Workload& w = *env.workload;
    const std::string store = env.work + "/store-" + std::to_string(k) + ".jsonl";
    const std::string telemetry = env.work + "/telemetry-" + std::to_string(k) + ".jsonl";
    fs::remove(store);
    fs::remove(telemetry);
    const obs::Context ctx = traced ? traced_context() : obs::Context{};

    const auto t0 = Clock::now();
    const serve::BuiltinTarget* target = serve::find_builtin_target(w.component);
    const serve::BuiltinComponent holder = target->make_component();
    const core::SelfTestableComponent& component = *holder.component;
    const driver::TestSuite suite = component.generate_tests(generator_options(g, ctx));
    const auto mutants = target->mutants();
    campaign::CampaignOptions options;
    options.jobs = kJobs;
    options.seed = g;
    options.store_path = store;
    options.telemetry_path = telemetry;
    options.obs = ctx;
    options.isolate = w.isolate;
    options.engine.runner.model = model_for(w, suite.class_name);
    const campaign::CampaignScheduler scheduler(component.registry(), options);
    const campaign::CampaignResult result = scheduler.run(suite, mutants);
    const auto t1 = Clock::now();

    Sample s;
    s.traced = traced;
    s.items = mutants.size();
    s.item_ms = result.stats.wall_ms;
    s.setup_ms = ms_between(t0, t1) - result.stats.wall_ms;
    s.score = result.run.score();
    s.failed = check_outcomes(reference_for(env, g), result.run.outcomes, s.score);
    if (result.stats.executed != mutants.size()) s.failed = std::max<std::size_t>(s.failed, 1);

    if (traced) {
        Layers& L = env.layers;
        ++L.campaigns;
        L.capacity_ms += static_cast<double>(kJobs) * result.stats.wall_ms;
        L.items_ms.push_back(result.stats.wall_ms);
        const std::vector<obs::TraceEvent> events = ctx.tracer.events();
        std::uint64_t start = 0, end = 0;
        for (const obs::TraceEvent& e : events) {
            if (e.category == "phase" && e.name == "item-execution") {
                start = e.ts_us;
                end = e.ts_us + e.dur_us;
            }
        }
        absorb_spans(analyze_spans(events, start, end), L);
        absorb_metrics(ctx.metrics, L);
        double wall_sum = 0.0;
        std::size_t spawns = 0;
        absorb_telemetry(telemetry, L, &wall_sum, &spawns);
        L.add("campaign.item_wall_ms", wall_sum);
        L.add("campaign.steals", static_cast<double>(result.stats.steals));
        mutation::PruneStats prune;
        prune.executed_pairs = result.stats.executed_pairs;
        prune.pruned_pairs = result.stats.pruned_pairs;
        prune.memoized_pairs = result.stats.memoized_pairs;
        prune.memoized_calls = result.stats.memoized_calls;
        absorb_prune(prune, L);
        if (w.isolate) {
            L.add("sandbox.spawned", static_cast<double>(spawns));
            L.add("sandbox.respawned", static_cast<double>(result.stats.respawns));
            replay_codec(result.run.outcomes, L);
        }
        absorb_files(store, telemetry, env.work, L);
    }
    fs::remove(store);
    fs::remove(telemetry);
    return s;
}

// --- campaign-dispatch ------------------------------------------------
//
// The coordinator side of `concat dispatch sortable --workers ...
// --resume STORE --telemetry-out FILE`: the campaign-start event, the
// resume pass, the merge of every Result into the store and the
// telemetry, and the closing kill-reason and campaign-end events copy
// cmd_dispatch in tools/concat_cli.cpp field for field, and must track
// it.  run.py --self-check compares the event keys of both.

Sample run_dispatch_campaign(Env& env, std::uint64_t g, std::size_t k, bool traced) {
    const Workload& w = *env.workload;
    const std::string store_path = env.work + "/store-" + std::to_string(k) + ".jsonl";
    const std::string telemetry = env.work + "/telemetry-" + std::to_string(k) + ".jsonl";
    fs::remove(store_path);
    fs::remove(telemetry);
    const obs::Context ctx = traced ? traced_context() : obs::Context{};
    const obs::Tracer& tracer = ctx.tracer;
    const std::vector<serve::Endpoint> endpoints = serve::parse_endpoints(env.workers);

    const auto t0 = Clock::now();
    serve::BuiltinCampaignConfig config;
    config.component = w.component;
    config.generator = generator_options(g, ctx);
    config.model = w.model;
    std::string error;
    const auto host = serve::BuiltinCampaign::open(config, &error, ctx);
    if (!host) throw Error("dispatch open: " + error);
    const auto t_open = Clock::now();
    const std::vector<mutation::Mutant>& mutants = host->mutants();
    const std::string& fingerprint = host->fingerprint();

    campaign::TelemetrySink sink = campaign::TelemetrySink::to_file(telemetry);
    sink.emit(obs::JsonObject()
                  .set("event", "campaign-start")
                  .set("campaign", fingerprint)
                  .set("class", host->suite().class_name)
                  .set("seed", g)
                  .set("jobs", static_cast<std::uint64_t>(endpoints.size()))
                  .set("mutants", static_cast<std::uint64_t>(mutants.size()))
                  .set("cases", static_cast<std::uint64_t>(host->suite().cases.size()))
                  .set("probe", config.probe)
                  .set("model", config.model)
                  .set("prune", host->pruned())
                  .set("baseline_clean", host->baseline_clean()));

    // Resume pass over a fresh store.
    const auto t_resume = Clock::now();
    campaign::ResultStore store(store_path, fingerprint);
    std::vector<mutation::MutantOutcome> outcomes(mutants.size());
    std::vector<campaign::WorkItem> pending;
    std::size_t resumed = 0;
    for (const campaign::WorkItem& item : host->items()) {
        outcomes[item.index].mutant = &mutants[item.index];
        const campaign::ItemRecord* record = store.find(item.key);
        mutation::MutantOutcome outcome;
        if (record == nullptr || !campaign::restore_outcome(*record, &outcome)) {
            pending.push_back(item);
            continue;
        }
        outcome.mutant = &mutants[item.index];
        outcomes[item.index] = outcome;
        ++resumed;
        sink.emit(obs::JsonObject()
                      .set("event", "item-resumed")
                      .set("item", static_cast<std::uint64_t>(item.index))
                      .set("mutant", item.mutant_id)
                      .set("fate", record->fate)
                      .set("reason", record->reason)
                      .set("model_only", record->model_only));
    }
    const double resume_ms = ms_between(t_resume, Clock::now());

    std::optional<Clock::time_point> first_start, last_connect;
    Clock::time_point last_result = t0;
    std::uint64_t window_start = 0, window_end = 0;
    std::map<std::uint64_t, Clock::time_point> sent;
    std::vector<double> round_trips, evals;
    std::size_t streamed_events = 0, merged = 0;
    std::map<std::uint64_t, std::string> final_snapshot;  // worker -> metrics json
    mutation::PruneStats prune;
    // Coordinator time spent in these callbacks during the item phase:
    // the merge (result decode, store append, telemetry emit), during
    // which the worker whose result is being merged has no work.
    double merge_ms = 0.0;
    const auto in_phase = [&] { return first_start && merged < pending.size(); };

    const auto on_event = [&](const obs::JsonObject& event) {
        const std::string kind = event.get_string("event").value_or("");
        const auto now = Clock::now();
        if (kind == "item-start") {
            if (!first_start) {
                first_start = now;
                window_start = tracer.now_us();
            }
            sent[event.get_uint("item").value_or(0)] = now;
        } else if (kind == "worker-connect") {
            last_connect = now;
        } else if (kind == "item-finish" || kind == "worker-session" ||
                   kind == "worker-session-end" || kind == "metrics-snapshot") {
            ++streamed_events;
            if (kind == "metrics-snapshot") {
                final_snapshot[event.get_uint("worker").value_or(0)] =
                    event.get_string("metrics").value_or("");
            }
        }
        sink.emit(event);
        if (in_phase()) merge_ms += ms_between(now, Clock::now());
    };
    const auto on_result = [&](const campaign::WorkItem& item,
                               const obs::JsonObject& result) {
        const auto now = Clock::now();
        last_result = now;
        window_end = tracer.now_us();
        const auto it = sent.find(item.index);
        if (it != sent.end()) round_trips.push_back(ms_between(it->second, now));
        mutation::MutantOutcome outcome =
            sandbox::decode_outcome(result.to_line())
                .value_or(sandbox::outcome_from_termination("worker-exit:-3"));
        outcome.mutant = &mutants[item.index];
        const double wall_ms = result.get_double("wall_ms").value_or(0.0);
        outcomes[item.index] = outcome;
        prune += sandbox::decode_outcome_stats(result.to_line());
        evals.push_back(wall_ms);
        obs::JsonObject finish;
        finish.set("event", "item-finish")
            .set("item", static_cast<std::uint64_t>(item.index))
            .set("mutant", item.mutant_id)
            .set("worker", result.get_uint("worker").value_or(0))
            .set("fate", mutation::to_string(outcome.fate))
            .set("reason", oracle::to_string(outcome.reason))
            .set("hit", outcome.hit_by_suite)
            .set("probe_kill", outcome.killed_by_probe)
            .set("model_only", outcome.model_only)
            .set("shrunk", false)
            .set("item_seed", item.item_seed)
            .set("wall_ms", wall_ms);
        if (!outcome.sandbox.empty()) finish.set("sandbox", outcome.sandbox);
        sink.emit(finish);
        campaign::ItemRecord record;
        record.key = item.key;
        record.mutant_id = item.mutant_id;
        record.item_index = item.index;
        record.fate = mutation::to_string(outcome.fate);
        record.reason = oracle::to_string(outcome.reason);
        record.hit_by_suite = outcome.hit_by_suite;
        record.killed_by_probe = outcome.killed_by_probe;
        record.model_only = outcome.model_only;
        record.item_seed = item.item_seed;
        record.wall_ms = wall_ms;
        record.sandbox = outcome.sandbox;
        store.append(record);
        ++merged;
        merge_ms += ms_between(now, Clock::now());
    };

    serve::DispatchOptions options;
    options.workers = endpoints;
    options.hello = serve::make_hello(config, fingerprint);
    options.expected_fingerprint = fingerprint;
    options.obs = ctx;
    options.telemetry = on_event;
    options.stream_telemetry = true;
    const auto t_run = Clock::now();
    serve::Coordinator coordinator(std::move(options));
    const serve::DispatchStats stats = coordinator.run(pending, on_result);

    mutation::MutationRun run;
    run.outcomes = std::move(outcomes);
    run.golden = host->golden();
    run.baseline_clean = host->baseline_clean();
    for (const oracle::KillReason reason : oracle::kAllKillReasons) {
        if (reason == oracle::KillReason::None) continue;
        sink.emit(obs::JsonObject()
                      .set("event", "kill-reason")
                      .set("reason", oracle::to_string(reason))
                      .set("kills", static_cast<std::uint64_t>(run.kills_by(reason))));
    }
    sink.emit(obs::JsonObject()
                  .set("event", "campaign-end")
                  .set("campaign", fingerprint)
                  .set("items", static_cast<std::uint64_t>(host->items().size()))
                  .set("executed", static_cast<std::uint64_t>(stats.executed))
                  .set("resumed", static_cast<std::uint64_t>(resumed))
                  .set("killed", static_cast<std::uint64_t>(run.killed()))
                  .set("killed_model_only",
                       static_cast<std::uint64_t>(run.kills_model_only()))
                  .set("equivalent", static_cast<std::uint64_t>(run.equivalent()))
                  .set("not_covered", static_cast<std::uint64_t>(run.not_covered()))
                  .set("score", run.score())
                  .set("workers", static_cast<std::uint64_t>(stats.workers_connected))
                  .set("respawns", std::uint64_t{0})
                  .set("pruned", host->pruned())
                  .set("executed_pairs", prune.executed_pairs)
                  .set("pruned_pairs", prune.pruned_pairs)
                  .set("memoized_pairs", prune.memoized_pairs)
                  .set("memoized_calls", prune.memoized_calls)
                  .set("wall_ms", stats.wall_ms));

    Sample s;
    s.traced = traced;
    s.items = mutants.size();
    const Clock::time_point phase_start = first_start.value_or(last_result);
    // Up to the Coordinator::run call setup runs on this thread alone;
    // from there to the first item-start the daemons open their sessions
    // in parallel (BuiltinCampaign::open each), which host steal
    // stretches as it stretches the item phase.
    s.setup_ms = ms_between(t0, t_run);
    s.handshake_ms = ms_between(t_run, std::max(t_run, phase_start));
    s.item_ms = ms_between(phase_start, last_result);
    s.score = run.score();
    s.failed = check_outcomes(reference_for(env, g), run.outcomes, s.score);
    if (stats.executed != mutants.size() || stats.redispatched != 0 ||
        stats.disconnects != 0) {
        s.failed = std::max<std::size_t>(s.failed, 1);
    }

    if (traced) {
        Layers& L = env.layers;
        ++L.campaigns;
        L.capacity_ms += static_cast<double>(kJobs) * s.item_ms;
        L.items_ms.push_back(s.item_ms);
        absorb_spans(analyze_spans(tracer.events(), window_start, window_end), L);
        // The coordinator's own instruments saw only its golden run; the
        // daemons' counters arrive in their final metrics snapshots.
        absorb_metrics(ctx.metrics, L);
        // Counter increments the daemons' shared Metrics registries took.
        double updates = 0.0;
        for (const auto& [worker, text] : final_snapshot) {
            const auto counters = snapshot_counters(text);
            for (const auto& [counter, metric] : kCounters) {
                const auto it = counters.find(counter);
                if (it != counters.end()) L.add(metric, it->second);
            }
            for (const auto& [name, value] : counters) updates += value;
        }
        L.add("obs.metrics_updates", updates);
        L.add("obs.streamed_events", static_cast<double>(streamed_events));
        double wall_sum = 0.0;
        for (const double e : evals) wall_sum += e;
        L.item_wall_ms.insert(L.item_wall_ms.end(), evals.begin(), evals.end());
        L.add("campaign.item_wall_ms", wall_sum);
        double rt_sum = 0.0;
        for (const double r : round_trips) rt_sum += r;
        L.add("serve.round_trip_ms", rt_sum);
        L.round_trip_ms.insert(L.round_trip_ms.end(), round_trips.begin(), round_trips.end());
        if (last_connect) L.handshake_ms.push_back(ms_between(t_run, *last_connect));
        L.open_ms.push_back(ms_between(t0, t_open));
        L.self_ms["merge"] += merge_ms;
        L.resume_ms.push_back(resume_ms);
        L.add("serve.redispatched", static_cast<double>(stats.redispatched));
        L.add("serve.disconnects", static_cast<double>(stats.disconnects));
        absorb_prune(prune, L);
        absorb_files(store_path, telemetry, env.work, L);
    }
    if (env.collect_keys) env.telemetry_keys = event_keys(telemetry);
    fs::remove(store_path);
    fs::remove(telemetry);
    return s;
}

// --- kill-sortable ----------------------------------------------------

/// The runner a corpus entry replays under: the kill pass's model, and
/// divergence promoted to a failing verdict.
driver::RunnerOptions replay_options(const driver::ModelBinding* model) {
    driver::RunnerOptions ro;
    ro.model = model;
    ro.promote_divergence = true;
    return ro;
}

/// Replay one verified killer from its corpus entry: it must pass on
/// the clean component and kill its mutant with the recorded verdict.
bool replay_killer(const kill::KillItem& item, const std::string& corpus_dir,
                   const core::SelfTestableComponent& component,
                   const driver::CompletionRegistry* completions,
                   const mutation::Mutant& mutant, const driver::ModelBinding* model) {
    fuzz::CorpusEntry entry;
    try {
        entry = fuzz::load_entry_file(corpus_dir + "/" + item.corpus_file);
    } catch (const std::exception&) {
        return false;
    }
    if (entry.mutant_id != item.mutant_id) return false;
    if (completions != nullptr) {
        (void)driver::recomplete_suite(entry.suite, *completions, entry.suite.seed);
    }
    const driver::TestRunner runner(component.registry(), replay_options(model));
    const reflect::ClassBinding& binding =
        component.registry().at(component.spec().class_name);
    if (!runner.run_case(binding, entry.reproducer()).passed()) return false;
    const mutation::MutantActivation activation(mutant);
    const driver::TestResult mutated = runner.run_case(binding, entry.reproducer());
    return !mutated.passed() && mutated.verdict == entry.verdict;
}

/// Replay a verified killer that has no corpus entry.  persist_entry
/// declines a killer whose reloaded, recompleted form does not
/// reproduce its verdict (a pointer argument whose identity mattered)
/// or that passes on its mutant when run alone; such a killer is
/// checked in memory with the predicate kill_survivors shrank it under:
/// the clean run passes and the mutated run is killed for the same
/// reason.
bool replay_in_memory(const kill::KillItem& item, const core::SelfTestableComponent& component,
                      const mutation::Mutant& mutant, const driver::ModelBinding* model,
                      std::uint64_t g) {
    driver::RunnerOptions ro;
    ro.model = model;
    const driver::TestRunner runner(component.registry(), ro);
    driver::TestSuite suite;
    suite.class_name = component.spec().class_name;
    suite.seed = g;
    suite.cases.push_back(item.killer);
    const driver::SuiteResult clean = runner.run(suite);
    for (const driver::TestResult& r : clean.results) {
        if (!r.passed()) return false;
    }
    driver::SuiteResult mutated;
    {
        const mutation::MutantActivation activation(mutant);
        mutated = runner.run(suite);
    }
    const oracle::DifferentialKill diff = oracle::classify_suite_differential(
        oracle::GoldenRecord::from(clean), mutated, {}, {}, {});
    return diff.with_model == item.reason;
}

Sample run_kill_pass(Env& env, std::uint64_t g, std::size_t k, bool traced) {
    const Workload& w = *env.workload;
    const std::string store = env.work + "/kill-" + std::to_string(k) + ".jsonl";
    const std::string corpus = env.work + "/corpus-" + std::to_string(k);
    fs::copy_file(kill_store_path(env.cache, g), store,
                  fs::copy_options::overwrite_existing);
    fs::remove_all(corpus);
    // Runner-level spans would number millions per pass (every candidate
    // execution); the traced pass records the search, shrink and phase
    // spans only.
    const obs::Context ctx = traced ? traced_context() : obs::Context{};

    const auto t0 = Clock::now();
    const serve::BuiltinTarget* target = serve::find_builtin_target(w.component);
    const serve::BuiltinComponent holder = target->make_component();
    const core::SelfTestableComponent& component = *holder.component;
    const driver::TestSuite suite = component.generate_tests(generator_options(g, ctx));
    const auto mutants = target->mutants();
    const driver::ModelBinding* model = model_for(w, suite.class_name);
    campaign::CampaignOptions campaign_options;
    campaign_options.seed = g;
    campaign_options.engine.runner.model = model;
    const campaign::CampaignScheduler scheduler(component.registry(), campaign_options);
    const std::string fingerprint = scheduler.fingerprint(suite, mutants, nullptr);
    std::string error;
    auto peek = campaign::peek_store(store, &error);
    if (!peek) throw Error("kill store: " + error);
    if (peek->fingerprint != fingerprint) throw Error("kill store fingerprint mismatch");

    kill::KillContext context;
    context.spec = &component.spec();
    context.registry = &component.registry();
    context.completions = holder.completions;
    context.mutants = &mutants;
    kill::KillOptions options;
    options.seed = g;
    options.jobs = kJobs;
    options.corpus_dir = corpus;
    options.obs = ctx;
    options.search.seed = g;
    options.search.budget_states = kKillBudget;
    options.search.max_depth = kKillDepth;
    options.search.runner.model = model;
    options.search.obs = ctx;

    const auto t1 = Clock::now();
    const std::uint64_t window_start = ctx.tracer.now_us();
    const kill::KillRun run = kill::kill_survivors(context, peek->records, options);
    const auto t_rewrite = Clock::now();
    const std::uint64_t window_end = ctx.tracer.now_us();
    campaign::rewrite_store(store, fingerprint, peek->records);
    const auto t2 = Clock::now();

    Sample s;
    s.traced = traced;
    s.items = run.survivors;
    s.setup_ms = ms_between(t0, t1);
    s.item_ms = ms_between(t1, t2);
    s.survivors = run.survivors;
    s.score = run.score_after();

    std::map<std::string, const mutation::Mutant*> by_id;
    for (const mutation::Mutant& m : mutants) by_id.emplace(m.id(), &m);
    for (const kill::KillItem& item : run.items) {
        if (item.status != kill::SearchStatus::Verified) continue;
        const mutation::Mutant& mutant = *by_id.at(item.mutant_id);
        const bool ok =
            item.corpus_file.empty()
                ? replay_in_memory(item, component, mutant, model, g)
                : replay_killer(item, corpus, component, holder.completions, mutant, model);
        if (!ok) {
            ++s.failed;
        } else if (item.corpus_file.empty()) {
            ++s.unpersisted;
        } else {
            ++s.killers;
        }
    }
    // The rewritten store must carry exactly the raised fates.
    const auto rewritten = campaign::peek_store(store, &error);
    std::size_t synthesized = 0;
    if (rewritten) {
        for (const auto& record : rewritten->records) synthesized += record.synthesized;
    }
    if (!rewritten || rewritten->records.size() != peek->records.size() ||
        synthesized != run.verified) {
        s.failed = std::max<std::size_t>(s.failed, 1);
    }

    if (traced) {
        Layers& L = env.layers;
        ++L.campaigns;
        L.capacity_ms += static_cast<double>(kJobs) * ms_between(t1, t_rewrite);
        L.items_ms.push_back(s.item_ms);
        absorb_spans(analyze_spans(ctx.tracer.events(), window_start, window_end), L);
        absorb_metrics(ctx.metrics, L);
        L.rewrite_ms.push_back(ms_between(t_rewrite, t2));
        double steps = 0.0;
        for (const kill::KillItem& item : run.items) {
            L.add("kill.states_expanded", static_cast<double>(item.stats.states_expanded));
            L.add("kill.candidates_executed", static_cast<double>(item.stats.candidates_executed));
            L.add("kill.arming_checks", static_cast<double>(item.stats.arming_checks));
            L.add("kill.armed_states", static_cast<double>(item.stats.armed_states));
            L.add(std::string("kill.") + kill::to_string(item.status), 1.0);
            if (item.status == kill::SearchStatus::Verified) {
                steps += static_cast<double>(item.shrink.steps);
            }
        }
        L.add("fuzz.shrink_steps", steps);
        L.add("kill.survivors", static_cast<double>(run.survivors));
        L.add("kill.killers_verified", static_cast<double>(s.killers));
        L.add("kill.unpersisted", static_cast<double>(s.unpersisted));
        L.add("campaign.store_bytes", static_cast<double>(file_bytes(store)));
        // Corpus persistence, replayed: each verified killer persisted
        // again (serialize, reload, recomplete, replay) into a scratch
        // directory, as kill_survivors' persist_killer does, including
        // the attempts persist_entry declines.
        const std::string scratch = env.work + "/persist-replay";
        fs::remove_all(scratch);
        const driver::TestRunner runner(component.registry(), replay_options(model));
        const reflect::ClassBinding& binding =
            component.registry().at(component.spec().class_name);
        double persist_ms = 0.0;
        for (const kill::KillItem& item : run.items) {
            if (item.status != kill::SearchStatus::Verified) continue;
            const mutation::Mutant& mutant = *by_id.at(item.mutant_id);
            fuzz::CorpusEntry entry;
            entry.suite.class_name = component.spec().class_name;
            entry.suite.cases.push_back(item.killer);
            entry.mutant_id = item.mutant_id;
            entry.kill_reason = oracle::to_string(item.reason);
            const fuzz::CaseRunner case_runner = [&](const driver::TestCase& tc) {
                const mutation::MutantActivation activation(mutant);
                return runner.run_case(binding, tc);
            };
            const driver::TestResult observed = case_runner(item.killer);
            if (observed.passed()) continue;  // never reaches persist_entry
            entry.verdict = observed.verdict;
            entry.failed_method = observed.failed_method;
            const auto tp = Clock::now();
            (void)fuzz::persist_entry(
                scratch, entry, holder.completions, case_runner,
                campaign::derive_item_seed(g, item.mutant_id, "kill-corpus"));
            persist_ms += ms_between(tp, Clock::now());
        }
        L.add("fuzz.persist_ms", persist_ms);
        fs::remove_all(scratch);
    }
    fs::remove(store);
    fs::remove_all(corpus);
    return s;
}

/// Busy and stolen CPU time of this machine so far, in clock ticks:
/// the "cpu" line of /proc/stat.  Steal is time the hypervisor ran
/// other guests while one of this machine's CPUs had work.
struct CpuTicks {
    double busy = 0.0;
    double steal = 0.0;
};

CpuTicks cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double f[8] = {};  // user nice system idle iowait irq softirq steal
    in >> cpu;
    for (double& field : f) in >> field;
    if (!in) return {};
    return {f[0] + f[1] + f[2] + f[5] + f[6], f[7]};
}

Sample run_one(Env& env, std::uint64_t g, std::size_t k, bool traced) {
    const Workload& w = *env.workload;
    if (w.kill) return run_kill_pass(env, g, k, traced);
    if (w.dispatch) return run_dispatch_campaign(env, g, k, traced);
    return run_local_campaign(env, g, k, traced);
}

// ---------------------------------------------------------------------
// Output

double rss_mb(int who) {
    rusage usage{};
    getrusage(who, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics of the traced campaigns.  Every workload reports
/// every name; a layer the workload does not exercise reads 0.
std::map<std::string, double> layer_metrics(const Env& env) {
    const Layers& L = env.layers;
    const double n = std::max<double>(1.0, static_cast<double>(L.campaigns));
    const auto count = [&](const std::string& name) {
        const auto it = L.counts.find(name);
        return it == L.counts.end() ? 0.0 : it->second / n;
    };
    const auto self = [&](const std::string& layer) {
        const auto it = L.self_ms.find(layer);
        return ratio(it == L.self_ms.end() ? 0.0 : it->second, L.capacity_ms);
    };
    const Workload& w = *env.workload;
    std::map<std::string, double> m;
    m["driver.generate_ms"] = median(L.generate_ms);
    m["driver.cases"] = count("driver.cases");
    m["driver.method_calls"] = count("driver.method_calls");
    m["driver.case_us_p50"] = percentile(L.case_us, 0.5);
    m["driver.case_us_p99"] = percentile(L.case_us, 0.99);
    m["driver.self_share"] = self("driver");
    m["bit.invariant_checks"] = count("bit.invariant_checks");
    m["model.compares"] = count("model.compares");
    m["model.self_share"] = self("model");
    m["oracle.suite_compares"] = count("oracle.suite_compares");
    m["oracle.self_share"] = self("oracle");
    m["mutation.baseline_ms"] = median(L.baseline_ms);
    m["mutation.prune_plan_ms"] = median(L.prune_plan_ms);
    const double executed = count("mutation.executed_pairs");
    const double pruned = count("mutation.pruned_pairs");
    m["mutation.executed_pairs"] = executed;
    m["mutation.pruned_pairs"] = pruned;
    m["mutation.memoized_pairs"] = count("mutation.memoized_pairs");
    m["mutation.memoized_calls"] = count("mutation.memoized_calls");
    m["mutation.pruned_share"] = ratio(pruned, executed + pruned);
    m["mutation.self_share"] = self("mutation");
    const bool campaign_items = !w.kill;
    m["mutation.eval_ms_p50"] = campaign_items ? percentile(L.item_wall_ms, 0.5) : 0.0;
    m["mutation.eval_ms_p99"] = campaign_items ? percentile(L.item_wall_ms, 0.99) : 0.0;
    m["campaign.items_ms"] = median(L.items_ms);
    m["campaign.busy_share"] =
        campaign_items ? ratio(count("campaign.item_wall_ms") * n, L.capacity_ms) : 0.0;
    m["campaign.steals"] = count("campaign.steals");
    m["campaign.store_append_us"] = median(L.store_append_us);
    m["campaign.telemetry_emit_us"] = median(L.telemetry_emit_us);
    m["campaign.store_bytes"] = count("campaign.store_bytes");
    m["campaign.telemetry_bytes"] = count("campaign.telemetry_bytes");
    m["campaign.resume_ms"] = median(L.resume_ms);
    const bool sb = w.isolate;
    m["sandbox.item_ms_p50"] = sb ? percentile(L.item_wall_ms, 0.5) : 0.0;
    m["sandbox.item_ms_p99"] = sb ? percentile(L.item_wall_ms, 0.99) : 0.0;
    m["sandbox.busy_share"] = sb ? m["campaign.busy_share"] : 0.0;
    m["sandbox.spawned"] = count("sandbox.spawned");
    m["sandbox.respawned"] = count("sandbox.respawned");
    m["sandbox.codec_us"] = median(L.codec_us);
    m["sandbox.frame_bytes"] = ratio(L.frame_bytes, static_cast<double>(L.frames));
    m["sandbox.child_rss_mb"] = sb ? rss_mb(RUSAGE_CHILDREN) : 0.0;
    m["serve.open_ms"] = median(L.open_ms);
    m["serve.handshake_ms"] = median(L.handshake_ms);
    m["serve.round_trip_ms_p50"] = percentile(L.round_trip_ms, 0.5);
    m["serve.round_trip_ms_p99"] = percentile(L.round_trip_ms, 0.99);
    // A dispatched item's wall_ms is the daemon's evaluation time.
    const bool sv = w.dispatch;
    m["serve.daemon_eval_ms_p50"] = sv ? percentile(L.item_wall_ms, 0.5) : 0.0;
    const double rt = count("serve.round_trip_ms");
    m["serve.wait_share"] = rt > 0.0 ? 1.0 - ratio(count("campaign.item_wall_ms"), rt) : 0.0;
    m["serve.daemon_busy_share"] = sv ? m["campaign.busy_share"] : 0.0;
    m["serve.self_share"] = self("serve");
    m["serve.merge_share"] = self("merge");
    m["serve.redispatched"] = count("serve.redispatched");
    m["serve.disconnects"] = count("serve.disconnects");
    m["obs.streamed_events"] = count("obs.streamed_events");
    m["obs.streamed_spans"] = count("obs.streamed_spans");
    m["obs.metrics_updates"] = count("obs.metrics_updates");
    m["obs.trace_overhead"] = ratio(L.traced_items_ms, L.untraced_items_ms);
    double attributed = 0.0;
    for (const auto& [layer, ms] : L.self_ms) attributed += ms;
    m["obs.attributed_share"] = ratio(attributed, L.capacity_ms);
    m["kill.survivors"] = count("kill.survivors");
    m["kill.killers_verified"] = count("kill.killers_verified");
    m["kill.unpersisted"] = count("kill.unpersisted");
    m["kill.states_expanded"] = count("kill.states_expanded");
    m["kill.candidates_executed"] = count("kill.candidates_executed");
    m["kill.arming_checks"] = count("kill.arming_checks");
    m["kill.armed_states"] = count("kill.armed_states");
    m["kill.search_ms_p50"] = percentile(L.search_ms, 0.5);
    m["kill.search_ms_p99"] = percentile(L.search_ms, 0.99);
    m["kill.rewrite_store_ms"] = median(L.rewrite_ms);
    m["kill.verified_share"] = ratio(count("kill.verified"), count("kill.survivors"));
    m["kill.budget_exhausted"] = count("kill.budget-exhausted");
    m["kill.search_exhausted"] = count("kill.search-exhausted");
    m["kill.site_unreachable"] = count("kill.site-unreachable");
    m["kill.self_share"] = self("kill");
    m["fuzz.shrink_steps"] = count("fuzz.shrink_steps");
    m["fuzz.shrink_ms"] = count("fuzz.shrink_ms");
    m["fuzz.persist_ms"] = count("fuzz.persist_ms");
    m["fuzz.self_share"] = self("fuzz");
    return m;
}

void print_number(std::ostream& os, double v) {
    os << std::setprecision(17) << v;
}

int cmd_prepare(const Workload& w, std::uint64_t seed, const std::string& cache) {
    fs::create_directories(cache);
    for (std::size_t slot = 0; slot < w.seed_pool; ++slot) {
        const std::uint64_t g = generator_seed(w, seed, slot);
        if (w.kill) {
            const std::string path = kill_store_path(cache, g);
            if (!fs::exists(path)) prepare_kill_store(w, g, path);
            continue;
        }
        const std::string path = reference_path(cache, w, g);
        if (!fs::exists(path)) save_reference(path, compute_reference(w, g));
    }
    return 0;
}

int cmd_run(Env& env, double seconds, bool trace) {
    fs::create_directories(env.work);
    // Warm-up, untimed: first-touch page faults, lazily built
    // registries, and the daemons' first sessions.  A kill pass runs for
    // seconds, so its first-touch costs vanish without one.
    if (!env.workload->kill) {
        env.collect_keys = true;
        (void)run_one(env, generator_seed(*env.workload, env.seed, 0), 0, false);
        env.collect_keys = false;
    }

    std::vector<Sample> samples;
    const CpuTicks ticks_before = cpu_ticks();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t k = 0; samples.empty() || Clock::now() < deadline; ++k) {
        const std::uint64_t g = generator_seed(*env.workload, env.seed, k);
        if (!trace) {
            samples.push_back(run_one(env, g, k, false));
            continue;
        }
        const Sample plain = run_one(env, g, k, false);
        const Sample traced = run_one(env, g, k, true);
        env.layers.untraced_items_ms += plain.item_ms;
        env.layers.traced_items_ms += traced.item_ms;
        samples.push_back(plain);
        samples.push_back(traced);
    }
    // On a shared host the hypervisor runs other guests on this
    // machine's CPUs, which stretched the item phases here by up to 2x
    // while the host was busy.  The share of runnable CPU time stolen
    // over the run is taken out of every phase where several threads or
    // processes run: the item phase and the dispatch daemons' session
    // open.  The rest of setup runs on one thread, which the measured
    // steal barely touches, so it stays as measured.
    const CpuTicks ticks_after = cpu_ticks();
    const double steal = ticks_after.steal - ticks_before.steal;
    const double kept = 1.0 - ratio(steal, ticks_after.busy - ticks_before.busy + steal);

    std::size_t items = 0, failed = 0, untraced_items = 0;
    double item_ms = 0.0;
    std::vector<double> setup_s;
    for (const Sample& s : samples) {
        items += s.items;
        failed += s.failed;
        if (s.traced) continue;  // end-to-end numbers come from untraced runs
        untraced_items += s.items;
        item_ms += s.item_ms;
        setup_s.push_back((s.setup_ms + s.handshake_ms * kept) / 1000.0);
    }

    std::ostringstream os;
    os << "{\"workload\":\"" << env.workload->name << "\",\"campaigns\":" << samples.size()
       << ",\"attempted\":" << items << ",\"failed\":" << failed
       << ",\"first_score\":";
    print_number(os, samples.front().score);
    os << ",\"first_survivors\":" << samples.front().survivors
       << ",\"first_killers\":" << samples.front().killers
       << ",\"first_unpersisted\":" << samples.front().unpersisted << ",\"steal_share\":";
    print_number(os, 1.0 - kept);
    os << ",\"telemetry_keys\":{";
    bool first_kind = true;
    for (const auto& [kind, key_sets] : env.telemetry_keys) {
        os << (first_kind ? "" : ",") << "\"" << kind << "\":[";
        bool first_set = true;
        for (const std::vector<std::string>& keys : key_sets) {
            os << (first_set ? "[" : ",[");
            for (std::size_t i = 0; i < keys.size(); ++i) {
                os << (i == 0 ? "" : ",") << "\"" << keys[i] << "\"";
            }
            os << "]";
            first_set = false;
        }
        os << "]";
        first_kind = false;
    }
    os << "},\"metrics\":{";
    std::map<std::string, double> metrics;
    metrics["items_per_s"] =
        ratio(static_cast<double>(untraced_items), item_ms * kept / 1000.0);
    metrics["setup_s"] = median(setup_s);
    metrics["peak_rss_mb"] = rss_mb(RUSAGE_SELF);
    metrics["failed_share"] = ratio(static_cast<double>(failed), static_cast<double>(items));
    if (env.workload->kill) {
        metrics["killers_verified"] = static_cast<double>(samples.front().killers);
    }
    if (trace) {
        for (const auto& [name, value] : layer_metrics(env)) metrics[name] = value;
    }
    bool first = true;
    for (const auto& [name, value] : metrics) {
        os << (first ? "" : ",") << "\"" << name << "\":";
        print_number(os, value);
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    fs::remove_all(env.work);
    return 0;
}

int usage() {
    std::cerr << "usage: campaign_bench prepare --workload W --seed N --cache DIR\n"
                 "       campaign_bench run --workload W --seed N --seconds S "
                 "--trace 0|1 --cache DIR --work DIR [--workers H:P,H:P]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0) return usage();
        args[flag.substr(2)] = argv[i + 1];
    }
    const Workload* workload = find_workload(args["workload"]);
    if (workload == nullptr || !args.count("seed") || !args.count("cache")) {
        return usage();
    }
    try {
        const std::uint64_t seed = std::stoull(args["seed"]);
        if (mode == "prepare") return cmd_prepare(*workload, seed, args["cache"]);
        if (mode != "run" || !args.count("work") || !args.count("seconds")) return usage();
        if (workload->dispatch && !args.count("workers")) return usage();
        Env env;
        env.workload = workload;
        env.seed = seed;
        env.cache = args["cache"];
        env.work = args["work"];
        env.workers = args["workers"];
        return cmd_run(env, std::stod(args["seconds"]), args["trace"] == "1");
    } catch (const std::exception& e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 1;
    }
}
