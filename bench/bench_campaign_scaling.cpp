// Campaign scaling — wall-clock speedup of the stc::campaign
// work-stealing scheduler at 1/2/4/8 workers over the serial engine
// loop, on the paper's CObList subject (the Experiment 1/2 component).
//
// Two properties are measured:
//   1. determinism — every worker count produces the same fates and
//      kill reasons, bit-for-bit, as the serial run (the scheduler's
//      core contract: parallelism must not change the science);
//   2. scaling — elapsed time shrinks as workers are added.  The
//      speedup gate only applies when the hardware actually has >= 4
//      cores; on smaller machines the numbers are reported unchecked.
//
// `--smoke` runs a tiny sharded campaign (first 8 mutants, 2 workers)
// in a fraction of a second — registered as a ctest so the parallel
// path is exercised on every build.
//
// `--json-out FILE` additionally measures the fast execution tier —
// before/after pairs for coverage-signature pruning + checkpoint
// memoization on both built-in subjects: CObList (dense coverage,
// ~x2) and the Experiment 1 CSortableObList consumer suite (sparse
// coverage, the >= 5x items/sec headline) — and the distributed
// campaign service (in-process `concat serve` daemons on loopback,
// one coordinator) at 1 and 2 workers, and
// writes the machine-readable rows checked in as BENCH_campaign.json:
//     [{"commit": ..., "date": ..., "config": ...,
//       "items_per_sec": ..., "wall_ms": ...}, ...]
// `--commit` / `--date` stamp the rows (the generator script passes
// `git rev-parse --short HEAD` and the build date).
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "shop_targets.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/thread_pool.h"
#include "stc/obs/json.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/dispatch.h"
#include "stc/tfm/coverage.h"
#include "stc/serve/worker.h"
#include "stc/support/error.h"

namespace {

struct RunOutcome {
    std::vector<std::pair<stc::mutation::MutantFate, stc::oracle::KillReason>>
        fates;
    double wall_ms = 0.0;
    double campaign_wall_ms = 0.0;  // item phase as metered by the scheduler
    std::uint64_t steals = 0;
};

RunOutcome run_at(const stc::reflect::Registry& registry,
                  const stc::driver::TestSuite& suite,
                  const std::vector<stc::mutation::Mutant>& mutants,
                  std::size_t jobs, bool prune = true) {
    stc::campaign::CampaignOptions options;
    options.jobs = jobs;
    options.seed = 20010701;
    options.prune = prune;

    const auto t0 = std::chrono::steady_clock::now();
    const stc::campaign::CampaignScheduler scheduler(registry, options);
    const auto result = scheduler.run(suite, mutants);
    const auto t1 = std::chrono::steady_clock::now();

    RunOutcome out;
    out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.campaign_wall_ms = result.stats.wall_ms;
    out.steals = result.stats.steals;
    out.fates.reserve(result.run.outcomes.size());
    for (const auto& o : result.run.outcomes) {
        out.fates.emplace_back(o.fate, o.reason);
    }
    return out;
}

/// One dispatched run: `workers` in-process serve daemons on ephemeral
/// loopback ports, one coordinator, the full default CObList campaign
/// (the same campaign the local rows run).  Returns wall time and the
/// merged fates for the determinism cross-check.
struct DispatchOutcome {
    std::map<std::size_t, std::string> fates;  // item index -> fate string
    double wall_ms = 0.0;
    std::size_t items = 0;
    std::size_t streamed_events = 0;  // telemetry events received (streaming)
    std::size_t streamed_spans = 0;   // worker spans absorbed (streaming)
};

/// `streaming` turns on the full minor-2 observability path: an enabled
/// coordinator tracer (so every worker streams its spans back) plus
/// event streaming at a 100ms snapshot cadence — the cost the
/// obs-streaming-on / obs-off row pair in BENCH_campaign.json bounds.
DispatchOutcome run_dispatched(std::size_t workers, bool streaming = false) {
    using namespace stc;

    serve::BuiltinCampaignConfig config;
    config.component = "coblist";
    std::string error;
    const auto host = serve::BuiltinCampaign::open(config, &error);
    if (host == nullptr) throw Error("bench: " + error);

    struct Daemon {
        std::unique_ptr<serve::WorkerDaemon> daemon;
        std::thread thread;
    };
    std::vector<Daemon> daemons(workers);
    std::vector<serve::Endpoint> endpoints;
    for (Daemon& d : daemons) {
        serve::ServeOptions options;
        options.once = true;
        d.daemon = std::make_unique<serve::WorkerDaemon>(
            serve::builtin_session_factory(), options);
        const std::uint16_t port = d.daemon->bind();
        endpoints.push_back(
            serve::parse_endpoint("127.0.0.1:" + std::to_string(port)));
        d.thread = std::thread([&d] { d.daemon->serve(); });
    }

    serve::DispatchOptions options;
    options.workers = endpoints;
    options.hello = serve::make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();

    DispatchOutcome out;
    obs::Tracer tracer;
    if (streaming) {
        tracer = obs::Tracer::make();
        options.obs.tracer = tracer;
        options.stream_telemetry = true;
        options.telemetry_interval_ms = 100;
        options.telemetry = [&out](const obs::JsonObject&) {
            ++out.streamed_events;
        };
    }
    out.items = host->items().size();
    const auto t0 = std::chrono::steady_clock::now();
    serve::Coordinator coordinator(std::move(options));
    (void)coordinator.run(host->items(),
                          [&](const campaign::WorkItem& item,
                              const stc::obs::JsonObject& result) {
                              out.fates[item.index] =
                                  result.get_string("fate").value_or("?");
                          });
    const auto t1 = std::chrono::steady_clock::now();
    out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (streaming) out.streamed_spans = tracer.events().size();

    for (Daemon& d : daemons) {
        d.daemon->stop();
        d.thread.join();
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace stc;
    bool smoke = false;
    std::string json_out;
    std::string commit = "unknown";
    std::string date = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--json-out" && i + 1 < argc) {
            json_out = argv[++i];
        } else if (arg == "--commit" && i + 1 < argc) {
            commit = argv[++i];
        } else if (arg == "--date" && i + 1 < argc) {
            date = argv[++i];
        }
    }

    bench::banner(smoke ? "Campaign scaling (smoke)" : "Campaign scaling");

    bench::Experiment experiment;
    const auto suite = experiment.base.generate_tests();
    auto mutants = mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    if (smoke && mutants.size() > 8) mutants.resize(8);

    const std::size_t cores = campaign::WorkStealingPool::hardware_workers();
    std::cout << "subject: CObList, " << mutants.size() << " mutant(s), "
              << suite.size() << " case(s); hardware cores: " << cores << "\n\n";

    const std::vector<std::size_t> worker_counts =
        smoke ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 2, 4, 8};

    std::vector<RunOutcome> runs;
    runs.reserve(worker_counts.size());
    for (const std::size_t jobs : worker_counts) {
        runs.push_back(run_at(experiment.registry, suite, mutants, jobs));
        const RunOutcome& r = runs.back();
        std::cout << "  jobs=" << jobs << "  wall=" << r.wall_ms
                  << "ms  (items " << r.campaign_wall_ms << "ms, steals "
                  << r.steals << ")  speedup x"
                  << (runs.front().wall_ms / r.wall_ms) << "\n";
    }

    bool fates_identical = true;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        fates_identical = fates_identical && runs[i].fates == runs[0].fates;
    }
    std::cout << "\nfates identical across worker counts: "
              << (fates_identical ? "yes" : "NO — DETERMINISM BROKEN") << "\n";

    // Distributed rows + machine-readable output.  The dispatch runs use
    // the full default campaign (not the smoke-trimmed mutant set), the
    // same one the checked-in BENCH_campaign.json baselines.
    if (!json_out.empty()) {
        const auto full_suite = experiment.base.generate_tests();
        auto full_mutants =
            mutation::enumerate_mutants(mfc::descriptors(), "CObList");
        // The fast-tier before/after pairs: the same serial campaign
        // with coverage-signature pruning + checkpoint memoization off
        // and on.  Fates must be byte-identical on both subjects (the
        // tier's core contract).  The headline >= 5x items/sec gate
        // runs on the Experiment 1 subject (CSortableObList under the
        // consumer's suite): more methods per component means each
        // case reaches fewer mutation sites, the sparse-coverage
        // setting pruning targets (~9% density, x11 ceiling).  CObList
        // is kept as the dense-coverage data point (~46% density caps
        // its ratio near x2 no matter how good the tier is).
        const RunOutcome unpruned =
            run_at(experiment.registry, full_suite, full_mutants, 1, false);
        const RunOutcome local =
            run_at(experiment.registry, full_suite, full_mutants, 1);
        const bool prune_identical = local.fates == unpruned.fates;
        const double prune_speedup =
            local.wall_ms > 0.0 ? unpruned.wall_ms / local.wall_ms : 0.0;
        std::cout << "  local jobs=1 no-prune  wall=" << unpruned.wall_ms
                  << "ms\n  local jobs=1 pruned    wall=" << local.wall_ms
                  << "ms  speedup x" << prune_speedup << "  fates "
                  << (prune_identical ? "identical" : "DIFFER — TIER BROKEN")
                  << "\n";

        const auto sortable_suite = experiment.full_suite();
        const auto sortable_mutants = mutation::enumerate_mutants(
            mfc::descriptors(), sortable_suite.class_name);
        const RunOutcome sortable_unpruned = run_at(
            experiment.registry, sortable_suite, sortable_mutants, 1, false);
        const RunOutcome sortable_pruned =
            run_at(experiment.registry, sortable_suite, sortable_mutants, 1);
        const bool sortable_identical =
            sortable_pruned.fates == sortable_unpruned.fates;
        const double sortable_speedup =
            sortable_pruned.wall_ms > 0.0
                ? sortable_unpruned.wall_ms / sortable_pruned.wall_ms
                : 0.0;
        std::cout << "  sortable jobs=1 no-prune  wall="
                  << sortable_unpruned.wall_ms
                  << "ms\n  sortable jobs=1 pruned    wall="
                  << sortable_pruned.wall_ms << "ms  speedup x"
                  << sortable_speedup << "  fates "
                  << (sortable_identical ? "identical"
                                         : "DIFFER — TIER BROKEN")
                  << "\n";

        std::vector<obs::JsonObject> rows;
        auto add_row = [&](const std::string& config, std::size_t items,
                           double wall_ms) {
            obs::JsonObject row;
            row.set("commit", commit)
                .set("date", date)
                .set("config", config)
                .set("items_per_sec",
                     wall_ms > 0.0 ? static_cast<double>(items) /
                                         (wall_ms / 1000.0)
                                   : 0.0)
                .set("wall_ms", wall_ms);
            rows.push_back(std::move(row));
        };
        add_row("local-jobs-1-no-prune", full_mutants.size(), unpruned.wall_ms);
        add_row("local-jobs-1", full_mutants.size(), local.wall_ms);
        add_row("local-sortable-jobs-1-no-prune", sortable_mutants.size(),
                sortable_unpruned.wall_ms);
        add_row("local-sortable-jobs-1", sortable_mutants.size(),
                sortable_pruned.wall_ms);

        bool gates_ok = prune_identical && sortable_identical;
        // The tier's headline: >= 5x items/sec on the sparse-coverage
        // subject.  4.0 in the gate leaves margin for machine noise
        // below the ~6x this subject measures on an idle core.
        if (sortable_speedup < 4.0) {
            std::cout << "FAIL: fast-tier speedup x" << sortable_speedup
                      << " on the sparse-coverage subject (expected >= 5x, "
                         "gated at 4x for noise)\n";
            gates_ok = false;
        }
        // The assembly row (stc::assembly): Wallet's interface mutants
        // evaluated through the Shop product's public interface under
        // the all-links criterion — the same campaign the EXPERIMENTS.md
        // interface-vs-assembly delta table and the CI assembly gate
        // run (all-transactions would enumerate ~100k product
        // transactions).  Kills must include the product-only ones, so
        // the row doubles as a cheap conformance gate.
        examples::register_example_targets();
        serve::BuiltinCampaignConfig shop_config;
        shop_config.component = "shop";
        shop_config.generator.criterion = tfm::Criterion::AllEdges;
        std::string shop_error;
        const auto shop = serve::BuiltinCampaign::open(shop_config,
                                                       &shop_error);
        if (shop == nullptr) throw Error("bench: " + shop_error);
        const auto shop_t0 = std::chrono::steady_clock::now();
        std::size_t shop_killed = 0;
        for (const auto& item : shop->items()) {
            if (shop->evaluate(item.index, item.mutant_id).fate ==
                mutation::MutantFate::Killed) {
                ++shop_killed;
            }
        }
        const auto shop_t1 = std::chrono::steady_clock::now();
        const double shop_wall =
            std::chrono::duration<double, std::milli>(shop_t1 - shop_t0)
                .count();
        add_row("assembly-shop-all-links-jobs-1", shop->items().size(),
                shop_wall);
        std::cout << "  assembly shop all-links  wall=" << shop_wall
                  << "ms  (" << shop->items().size() << " item(s), "
                  << shop_killed << " killed)\n";
        if (!shop->baseline_clean() || shop_killed == 0) {
            std::cout << "FAIL: assembly campaign unhealthy (baseline "
                      << (shop->baseline_clean() ? "clean" : "DIRTY")
                      << ", " << shop_killed << " kill(s))\n";
            gates_ok = false;
        }

        bool dispatch_identical = true;
        for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
            const DispatchOutcome dispatched = run_dispatched(workers);
            add_row("dispatch-workers-" + std::to_string(workers),
                    dispatched.items, dispatched.wall_ms);
            std::cout << "  dispatch workers=" << workers
                      << "  wall=" << dispatched.wall_ms << "ms  ("
                      << dispatched.items << " item(s))\n";
            for (std::size_t i = 0; i < local.fates.size(); ++i) {
                const auto it = dispatched.fates.find(i);
                if (it == dispatched.fates.end() ||
                    it->second != mutation::to_string(local.fates[i].first)) {
                    dispatch_identical = false;
                }
            }
        }
        // The observability row pair: the same 2-worker dispatch with
        // the full streaming path off and on.  The delta is the cost of
        // distributed tracing + telemetry streaming, and the streaming
        // row must still merge identical fates (observability is a side
        // channel, never a participant).
        const DispatchOutcome obs_off = run_dispatched(2, false);
        const DispatchOutcome obs_on = run_dispatched(2, true);
        add_row("dispatch-workers-2-obs-off", obs_off.items, obs_off.wall_ms);
        add_row("dispatch-workers-2-obs-streaming", obs_on.items,
                obs_on.wall_ms);
        std::cout << "  dispatch workers=2 obs-off        wall="
                  << obs_off.wall_ms << "ms\n"
                  << "  dispatch workers=2 obs-streaming  wall="
                  << obs_on.wall_ms << "ms  (" << obs_on.streamed_events
                  << " streamed event(s), " << obs_on.streamed_spans
                  << " span(s))\n";
        if (obs_on.fates != obs_off.fates) dispatch_identical = false;
        if (obs_on.streamed_events == 0 || obs_on.streamed_spans == 0) {
            std::cout << "FAIL: streaming run produced no streamed "
                         "telemetry\n";
            gates_ok = false;
        }
        // Regression gate for the streaming-telemetry throughput cliff:
        // with batched Telemetry frames (wire minor 3, one write() per
        // work item instead of per span) streaming must stay within 2x
        // of the obs-off run.
        if (obs_on.wall_ms > 2.0 * obs_off.wall_ms) {
            std::cout << "FAIL: streaming telemetry costs >2x obs-off ("
                      << obs_on.wall_ms << "ms vs " << obs_off.wall_ms
                      << "ms)\n";
            gates_ok = false;
        }

        std::cout << "dispatched fates identical to local: "
                  << (dispatch_identical ? "yes" : "NO — DETERMINISM BROKEN")
                  << "\n";
        fates_identical = fates_identical && dispatch_identical && gates_ok;

        std::ofstream out(json_out);
        out << "[\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            out << "  " << rows[i].to_line()
                << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        out << "]\n";
        std::cout << "wrote " << rows.size() << " row(s) to " << json_out
                  << "\n";
    }

    if (smoke) return fates_identical ? 0 : 1;

    // The scaling gate: only meaningful when the hardware can actually
    // run 4 workers.  Threshold 1.2 leaves margin for CI noise below
    // the >1.5x expected of a healthy 4-core run.
    const double speedup4 = runs[0].wall_ms / runs[2].wall_ms;
    std::cout << "speedup at 4 workers: x" << speedup4
              << (cores >= 4 ? "" : "  (unchecked: <4 cores)") << "\n";
    const bool scaling_ok = cores < 4 || speedup4 > 1.2;
    return fates_identical && scaling_ok ? 0 : 1;
}
