// Sandbox overhead — per-mutant cost of process isolation: the same
// CObList campaign executed in-process (work-stealing threads) and
// under `--isolate` (forked sandbox workers, stc::sandbox), at 1 and 2
// jobs.  Reported per worker count:
//   - per-mutant wall cost of both engines and the isolation multiple
//     (one pipe round trip per item, plus a fork per worker spawn or
//     respawn, is the price of surviving a real crash);
//   - the determinism gate: for these benign mutants the isolated run
//     must reproduce the in-process fates and kill reasons bit-for-bit
//     — isolation is an execution detail, never a science change.
//
// `--smoke` shrinks the mutant set and is registered as a ctest, so the
// fork/IPC path and the cross-engine determinism contract run on every
// build.
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "stc/campaign/scheduler.h"

namespace {

struct RunOutcome {
    std::vector<std::pair<stc::mutation::MutantFate, stc::oracle::KillReason>>
        fates;
    double wall_ms = 0.0;
    std::size_t respawns = 0;
};

RunOutcome run_engine(const stc::reflect::Registry& registry,
                      const stc::driver::TestSuite& suite,
                      const std::vector<stc::mutation::Mutant>& mutants,
                      std::size_t jobs, bool isolate) {
    stc::campaign::CampaignOptions options;
    options.jobs = jobs;
    options.seed = 20010701;
    options.isolate = isolate;
    options.sandbox.timeout_ms = 30000;

    const auto t0 = std::chrono::steady_clock::now();
    const stc::campaign::CampaignScheduler scheduler(registry, options);
    const auto result = scheduler.run(suite, mutants);
    const auto t1 = std::chrono::steady_clock::now();

    RunOutcome out;
    out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.respawns = result.stats.respawns;
    out.fates.reserve(result.run.outcomes.size());
    for (const auto& o : result.run.outcomes) {
        out.fates.emplace_back(o.fate, o.reason);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace stc;
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    bench::banner(smoke ? "Sandbox overhead (smoke)" : "Sandbox overhead");

    bench::Experiment experiment;
    const auto suite = experiment.base.generate_tests();
    auto mutants = mutation::enumerate_mutants(mfc::descriptors(), "CObList");
    if (smoke && mutants.size() > 6) mutants.resize(6);
    const auto n = static_cast<double>(mutants.size());

    std::cout << "subject: CObList, " << mutants.size() << " mutant(s), "
              << suite.size() << " case(s)\n\n";

    bool deterministic = true;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
        const RunOutcome in_process =
            run_engine(experiment.registry, suite, mutants, jobs, false);
        const RunOutcome isolated =
            run_engine(experiment.registry, suite, mutants, jobs, true);
        std::cout << "  jobs=" << jobs
                  << "  in-process " << in_process.wall_ms / n << " ms/mutant"
                  << "  isolated " << isolated.wall_ms / n << " ms/mutant"
                  << "  (x" << isolated.wall_ms / in_process.wall_ms
                  << ", respawns " << isolated.respawns << ")\n";
        deterministic = deterministic && isolated.fates == in_process.fates;
    }

    std::cout << "\nisolated fates match in-process: "
              << (deterministic ? "yes" : "NO — ISOLATION CHANGED THE SCIENCE")
              << "\n";
    return deterministic ? 0 : 1;
}
