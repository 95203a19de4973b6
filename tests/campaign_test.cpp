// Campaign subsystem tests: deterministic seeding, the JSONL layer,
// the work-stealing pool, and the scheduler's three contracts —
// serial/parallel determinism, resumability without re-execution, and
// well-formed telemetry.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "stc/campaign/jsonl.h"
#include "stc/campaign/result_store.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/seed.h"
#include "stc/campaign/telemetry.h"
#include "stc/campaign/thread_pool.h"
#include "stc/support/error.h"
#include "test_component.h"

namespace stc::campaign {
namespace {

// ---------------------------------------------------------------- seeding

TEST(Seed, DerivationIsStableAndOrderSensitive) {
    const auto a = derive_item_seed(1, "CObList::AddHead@s0.IndVarBitNeg", "TC0");
    EXPECT_EQ(a, derive_item_seed(1, "CObList::AddHead@s0.IndVarBitNeg", "TC0"));
    EXPECT_NE(a, derive_item_seed(2, "CObList::AddHead@s0.IndVarBitNeg", "TC0"));
    EXPECT_NE(a, derive_item_seed(1, "CObList::AddHead@s0.IndVarBitNeg", "TC1"));
    // Swapping mutant and transaction ids must not collide.
    EXPECT_NE(derive_item_seed(1, "x", "y"), derive_item_seed(1, "y", "x"));
}

TEST(Seed, AdjacentItemsGetUnrelatedSeeds) {
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(derive_item_seed(7, "mutant" + std::to_string(i), "suite"));
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Seed, HexIsFixedWidth) {
    EXPECT_EQ(to_hex(0), "0000000000000000");
    EXPECT_EQ(to_hex(0xdeadbeefULL), "00000000deadbeef");
}

// ------------------------------------------------------------------ jsonl

TEST(Jsonl, RoundTripsEveryValueKind) {
    JsonObject o;
    o.set("s", std::string("hello"))
        .set("neg", static_cast<std::int64_t>(-42))
        .set("big", static_cast<std::uint64_t>(18446744073709551615ULL))
        .set("pi", 3.25)
        .set("yes", true)
        .set("no", false);
    const auto parsed = JsonObject::parse(o.to_line());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->get_string("s"), "hello");
    EXPECT_EQ(parsed->get_int("neg"), -42);
    EXPECT_EQ(parsed->get_uint("big"), 18446744073709551615ULL);
    EXPECT_EQ(parsed->get_double("pi"), 3.25);
    EXPECT_EQ(parsed->get_bool("yes"), true);
    EXPECT_EQ(parsed->get_bool("no"), false);
    // Re-rendering the parsed object reproduces the line exactly.
    EXPECT_EQ(parsed->to_line(), o.to_line());
}

TEST(Jsonl, RendersEveryValueKindByteForByte) {
    // Every store record, telemetry event, sandbox reply and wire frame
    // is one of these lines, so their bytes are pinned here.
    JsonObject o;
    o.set("s", std::string("q\"b\\k\nx\x01y\x1f"))
        .set("min", std::numeric_limits<std::int64_t>::min())
        .set("zero", static_cast<std::int64_t>(0))
        .set("max", std::numeric_limits<std::uint64_t>::max())
        .set("d", 3.25)
        .set("tenth", 0.1)
        .set("inf", std::numeric_limits<double>::infinity())
        .set("nan", std::numeric_limits<double>::quiet_NaN())
        .set("yes", true)
        .set("no", false);
    EXPECT_EQ(o.to_line(),
              "{\"s\":\"q\\\"b\\\\k\\nx\\u0001y\\u001f\","
              "\"min\":-9223372036854775808,\"zero\":0,"
              "\"max\":18446744073709551615,\"d\":3.25,"
              "\"tenth\":0.10000000000000001,\"inf\":null,\"nan\":null,"
              "\"yes\":true,\"no\":false}");
}

TEST(Jsonl, EscapesHostileStrings) {
    JsonObject o;
    const std::string hostile = "a\"b\\c\nd\te\x01f";
    o.set("k", hostile);
    const std::string line = o.to_line();
    EXPECT_EQ(line.find('\n'), std::string::npos);  // stays one line
    const auto parsed = JsonObject::parse(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->get_string("k"), hostile);
}

TEST(Jsonl, RejectsMalformedLines) {
    EXPECT_FALSE(JsonObject::parse("").has_value());
    EXPECT_FALSE(JsonObject::parse("{\"a\":1").has_value());
    EXPECT_FALSE(JsonObject::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(JsonObject::parse("{\"a\":\"unterminated}").has_value());
    EXPECT_FALSE(JsonObject::parse("{\"a\":1} trailing").has_value());
    EXPECT_FALSE(JsonObject::parse("[1,2]").has_value());
}

TEST(Jsonl, ToleratesNullByDroppingTheField) {
    const auto parsed = JsonObject::parse("{\"a\":null,\"b\":2}");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->has("a"));
    EXPECT_EQ(parsed->get_uint("b"), 2u);
}

TEST(Jsonl, ItemRecordRoundTrips) {
    ItemRecord r;
    r.key = "00ff00ff00ff00ff";
    r.mutant_id = "Counter::Inc@s0.IndVarBitNeg";
    r.item_index = 17;
    r.fate = "killed";
    r.reason = "assertion";
    r.hit_by_suite = true;
    r.killed_by_probe = false;
    r.item_seed = 123456789;
    r.wall_ms = 1.5;
    const auto back = ItemRecord::from_json(r.to_json());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->key, r.key);
    EXPECT_EQ(back->mutant_id, r.mutant_id);
    EXPECT_EQ(back->item_index, 17u);
    EXPECT_EQ(back->fate, "killed");
    EXPECT_EQ(back->reason, "assertion");
    EXPECT_TRUE(back->hit_by_suite);
    EXPECT_FALSE(back->killed_by_probe);
    EXPECT_EQ(back->item_seed, 123456789u);
    EXPECT_DOUBLE_EQ(back->wall_ms, 1.5);
}

TEST(Jsonl, ItemRecordRejectsMissingFields) {
    JsonObject o;
    o.set("key", "abc").set("fate", "killed");
    EXPECT_FALSE(ItemRecord::from_json(o).has_value());
}

// ----------------------------------------------------- store torn tails

TEST(ResultStoreTornTail, TruncationAtEveryByteOffsetNeverFusesRecords) {
    const std::string path = "/tmp/stc_store_torn_tail.jsonl";
    const std::string fingerprint = "feedfacefeedface";

    // Build a reference store, then remember its records and bytes.
    std::remove(path.c_str());
    std::vector<ItemRecord> originals;
    {
        ResultStore store(path, fingerprint);
        for (int i = 0; i < 6; ++i) {
            ItemRecord r;
            r.key = "key" + std::to_string(i);
            r.mutant_id = "Hostile::Segv@s0.IndVarRepReq.ONE";
            r.item_index = static_cast<std::size_t>(i);
            r.fate = "killed";
            r.reason = "crash";
            r.hit_by_suite = true;
            r.killed_by_probe = (i % 2) == 0;
            r.item_seed = 1000u + static_cast<std::uint64_t>(i);
            r.wall_ms = 0.25 * i;
            if (i % 2) r.sandbox = "crash-signal:11";
            store.append(r);
            originals.push_back(r);
        }
    }
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 100u);

    // Chop the file at every byte offset — every possible place a
    // SIGKILL could land mid-append — and reopen.  The invariants:
    // recovery never throws, every surviving record is byte-faithful
    // to an original (a torn line never fuses into a plausible fake),
    // and after recovery the store appends and reloads cleanly.
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        {
            std::ofstream out(path, std::ios::trunc | std::ios::binary);
            out.write(bytes.data(), static_cast<std::streamsize>(cut));
        }
        ResultStore store(path, fingerprint);
        EXPECT_LE(store.loaded(), originals.size());
        std::size_t found = 0;
        for (const ItemRecord& original : originals) {
            const ItemRecord* r = store.find(original.key);
            if (r == nullptr) continue;
            ++found;
            EXPECT_EQ(r->mutant_id, original.mutant_id);
            EXPECT_EQ(r->item_index, original.item_index);
            EXPECT_EQ(r->fate, original.fate);
            EXPECT_EQ(r->reason, original.reason);
            EXPECT_EQ(r->hit_by_suite, original.hit_by_suite);
            EXPECT_EQ(r->killed_by_probe, original.killed_by_probe);
            EXPECT_EQ(r->item_seed, original.item_seed);
            EXPECT_DOUBLE_EQ(r->wall_ms, original.wall_ms);
            EXPECT_EQ(r->sandbox, original.sandbox);
        }
        EXPECT_EQ(found, store.loaded());
        EXPECT_LE(store.dropped(), 1u);  // at most the one torn line

        // The recovered store must be appendable and then reload with
        // nothing further dropped: the rewrite really fixed the file.
        ItemRecord extra;
        extra.key = "extra";
        extra.mutant_id = "M";
        extra.item_index = 99;
        extra.fate = "alive";
        extra.reason = "none";
        extra.hit_by_suite = false;
        store.append(extra);

        ResultStore reopened(path, fingerprint);
        EXPECT_EQ(reopened.dropped(), 0u);
        EXPECT_EQ(reopened.loaded(), store.loaded() + 1);
        ASSERT_NE(reopened.find("extra"), nullptr);
        EXPECT_EQ(reopened.find("extra")->fate, "alive");
    }
}

TEST(ResultStoreFile, RewriteSurvivesSigkillAtAnyInstant) {
    // rewrite_store publishes a kill pass's raised fates and a torn-tail
    // recovery's survivors over a finished store.  A forked child flips
    // the file between two record sets until it is SIGKILLed at a
    // staggered delay; whenever it died, the file must read as one
    // complete set — never a truncated or interleaved mix.
    const std::string path = "/tmp/stc_store_rewrite_" +
                             std::to_string(getpid()) + ".jsonl";
    const auto make_records = [](const std::string& tag, std::size_t n) {
        std::vector<ItemRecord> records;
        for (std::size_t i = 0; i < n; ++i) {
            ItemRecord r;
            r.key = tag + std::to_string(i);
            r.mutant_id = "CObList::AddHead@s" + std::to_string(i);
            r.item_index = i;
            r.fate = tag == "a" ? "alive" : "killed";
            r.reason = tag == "a" ? "alive" : "output-diff";
            r.hit_by_suite = true;
            r.item_seed = 7 * i;
            records.push_back(r);
        }
        return records;
    };
    const auto lines = [](const std::vector<ItemRecord>& records) {
        std::vector<std::string> out;
        for (const ItemRecord& r : records) out.push_back(r.to_json().to_line());
        return out;
    };
    const std::vector<ItemRecord> a = make_records("a", 40);
    const std::vector<ItemRecord> b = make_records("b", 90);
    rewrite_store(path, "fp-rewrite", a);

    for (int round = 0; round < 24; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const pid_t child = fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            for (;;) {
                rewrite_store(path, "fp-rewrite", b);
                rewrite_store(path, "fp-rewrite", a);
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(173 * round));
        ::kill(child, SIGKILL);
        ::waitpid(child, nullptr, 0);

        std::string error;
        const auto peek = peek_store(path, &error);
        ASSERT_TRUE(peek.has_value()) << error;
        EXPECT_EQ(peek->fingerprint, "fp-rewrite");
        EXPECT_EQ(peek->dropped, 0u);
        const std::vector<std::string> seen = lines(peek->records);
        EXPECT_TRUE(seen == lines(a) || seen == lines(b))
            << seen.size() << " record(s)";
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

/// Caps the size of every file this process writes while alive, with
/// SIGXFSZ ignored so a write past the cap fails (EFBIG) instead of
/// killing the process: a full disk, reproducibly.
class FileSizeCap {
public:
    explicit FileSizeCap(rlim_t bytes) : handler_(std::signal(SIGXFSZ, SIG_IGN)) {
        ::getrlimit(RLIMIT_FSIZE, &saved_);
        rlimit capped = saved_;
        capped.rlim_cur = bytes;
        ::setrlimit(RLIMIT_FSIZE, &capped);
    }
    ~FileSizeCap() {
        ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, handler_);
    }
    FileSizeCap(const FileSizeCap&) = delete;
    FileSizeCap& operator=(const FileSizeCap&) = delete;

private:
    rlimit saved_{};
    void (*handler_)(int);
};

TEST(ResultStoreFile, FailedAppendIsStickyAndResumable) {
    const std::string path = "/tmp/stc_store_full_" +
                             std::to_string(getpid()) + ".jsonl";
    std::remove(path.c_str());
    const auto record = [](std::size_t i) {
        ItemRecord r;
        r.key = "k" + std::to_string(i);
        r.mutant_id = "CObList::AddHead@s" + std::to_string(i);
        r.item_index = i;
        r.fate = "killed";
        r.reason = "crash";
        r.hit_by_suite = true;
        return r;
    };
    {
        ResultStore store(path, "fp-full");
        const auto whole = std::filesystem::file_size(path) +
                           record(0).to_json().to_line().size() + 1;
        const FileSizeCap cap(whole + 10);
        store.append(record(0));
        EXPECT_FALSE(store.failed());
        store.append(record(1));  // cut 10 bytes in
        EXPECT_TRUE(store.failed());
        const auto torn = std::filesystem::file_size(path);
        EXPECT_EQ(torn, whole + 10);
        store.append(record(2));
        EXPECT_TRUE(store.failed());
        EXPECT_EQ(std::filesystem::file_size(path), torn);
    }
    // Without the cap, a resume keeps the whole record and drops the
    // torn one.
    const ResultStore resumed(path, "fp-full");
    EXPECT_EQ(resumed.loaded(), 1u);
    EXPECT_EQ(resumed.dropped(), 1u);
    EXPECT_NE(resumed.find("k0"), nullptr);
    std::remove(path.c_str());
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
    const std::size_t n = 100;
    std::vector<std::atomic<int>> executed(n);
    WorkStealingPool pool(4);
    std::vector<WorkStealingPool::Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&executed, i](const WorkerContext&) {
            executed[i].fetch_add(1);
        });
    }
    pool.run(std::move(tasks));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(executed[i].load(), 1) << i;
}

TEST(ThreadPool, StealsFromUnbalancedShards) {
    // Worker 0's shard gets all the slow tasks (round-robin deal with 2
    // workers: even indices).  Worker 1 finishes early and must steal.
    WorkStealingPool pool(2);
    std::vector<WorkStealingPool::Task> tasks;
    std::atomic<int> done{0};
    for (std::size_t i = 0; i < 16; ++i) {
        const bool slow = i % 2 == 0;
        tasks.push_back([&done, slow](const WorkerContext&) {
            if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    }
    pool.run(std::move(tasks));
    EXPECT_EQ(done.load(), 16);
    // Stealing is timing-dependent on a 1-core host, so the steal count
    // itself is not asserted — only completion.
}

TEST(ThreadPool, SingleWorkerRunsInlineInOrder) {
    WorkStealingPool pool(1);
    std::vector<std::size_t> order;
    std::vector<WorkStealingPool::Task> tasks;
    for (std::size_t i = 0; i < 10; ++i) {
        tasks.push_back([&order, i](const WorkerContext&) { order.push_back(i); });
    }
    EXPECT_EQ(pool.run(std::move(tasks)), 0u);  // no steals in serial mode
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ZeroWorkersSelectsHardware) {
    EXPECT_EQ(WorkStealingPool(0).workers(),
              WorkStealingPool::hardware_workers());
    EXPECT_GE(WorkStealingPool::hardware_workers(), 1u);
}

TEST(ThreadPool, RunReturnsOnlyAfterTheLastTaskEnds) {
    // Task 1 is first in worker 1's shard and waits until every other
    // task has run, so the other workers find nothing left and return
    // while it still runs.  run() must wait for it all the same.
    const std::size_t n = 32;
    std::vector<std::atomic<int>> executed(n);
    std::latch others(static_cast<std::ptrdiff_t>(n - 1));
    std::atomic<bool> last_done{false};
    std::vector<WorkStealingPool::Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&, i](const WorkerContext&) {
            executed[i].fetch_add(1);
            if (i != 1) {
                others.count_down();
                return;
            }
            others.wait();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            last_done.store(true);
        });
    }
    WorkStealingPool(4).run(std::move(tasks));
    EXPECT_TRUE(last_done.load());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(executed[i].load(), 1) << i;
}

TEST(ThreadPool, EveryTaskRunsOnceWhenWorkersFinishUnevenly) {
    // Only worker 0's shard holds slow tasks: the others drain their
    // own, steal, and return early, round after round.
    const std::size_t n = 24;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> executed(n);
        std::vector<WorkStealingPool::Task> tasks;
        for (std::size_t i = 0; i < n; ++i) {
            tasks.push_back([&executed, i](const WorkerContext&) {
                if (i % 4 == 0) {
                    std::this_thread::sleep_for(std::chrono::microseconds(300));
                }
                executed[i].fetch_add(1);
            });
        }
        WorkStealingPool(4).run(std::move(tasks));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(executed[i].load(), 1) << "round " << round << " task " << i;
        }
    }
}

// -------------------------------------------------------------- scheduler

class CampaignTest : public ::testing::Test {
protected:
    CampaignTest() : spec_(stc::testing::counter_spec()) {
        registry_.add(stc::testing::counter_binding());
        suite_ = driver::DriverGenerator(spec_).generate();
        driver::GeneratorOptions probe_options;
        probe_options.seed = 999;
        probe_options.cases_per_transaction = 3;
        probe_ = driver::DriverGenerator(spec_, probe_options).generate();
        mutants_ =
            mutation::enumerate_mutants(stc::testing::counter_descriptors(),
                                        "Counter");
    }

    static void expect_same_outcomes(const mutation::MutationRun& a,
                                     const mutation::MutationRun& b) {
        ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
        for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
            EXPECT_EQ(a.outcomes[i].mutant, b.outcomes[i].mutant) << i;
            EXPECT_EQ(a.outcomes[i].fate, b.outcomes[i].fate) << i;
            EXPECT_EQ(a.outcomes[i].reason, b.outcomes[i].reason) << i;
            EXPECT_EQ(a.outcomes[i].hit_by_suite, b.outcomes[i].hit_by_suite) << i;
            EXPECT_EQ(a.outcomes[i].killed_by_probe, b.outcomes[i].killed_by_probe)
                << i;
        }
    }

    [[nodiscard]] CampaignResult run_campaign(CampaignOptions options,
                                              bool with_probe = true) const {
        const CampaignScheduler scheduler(registry_, std::move(options));
        return scheduler.run(suite_, mutants_, with_probe ? &probe_ : nullptr);
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
    driver::TestSuite suite_;
    driver::TestSuite probe_;
    std::vector<mutation::Mutant> mutants_;
};

TEST_F(CampaignTest, ParallelFatesMatchTheSerialEngine) {
    // The ground truth: the untouched serial engine.
    const mutation::MutationEngine engine(registry_);
    const mutation::MutationRun serial = engine.run(suite_, mutants_, &probe_);

    CampaignOptions serial_options;
    serial_options.jobs = 1;
    const CampaignResult one = run_campaign(serial_options);

    CampaignOptions parallel_options;
    parallel_options.jobs = 4;
    const CampaignResult four = run_campaign(parallel_options);

    EXPECT_TRUE(one.run.baseline_clean);
    expect_same_outcomes(serial, one.run);
    expect_same_outcomes(serial, four.run);
    EXPECT_EQ(one.fingerprint, four.fingerprint);
    EXPECT_EQ(four.stats.workers, 4u);
    EXPECT_EQ(four.stats.executed, mutants_.size());
    EXPECT_DOUBLE_EQ(one.run.score(), four.run.score());
}

TEST_F(CampaignTest, FingerprintTracksEveryCampaignInput) {
    const CampaignScheduler base(registry_, {});
    const std::string fp = base.fingerprint(suite_, mutants_, nullptr);
    EXPECT_EQ(fp, base.fingerprint(suite_, mutants_, nullptr));  // stable

    CampaignOptions reseeded;
    reseeded.seed = 42;
    EXPECT_NE(fp, CampaignScheduler(registry_, reseeded)
                      .fingerprint(suite_, mutants_, nullptr));

    auto fewer = mutants_;
    fewer.pop_back();
    EXPECT_NE(fp, base.fingerprint(suite_, fewer, nullptr));

    EXPECT_NE(fp, base.fingerprint(suite_, mutants_, &probe_));

    CampaignOptions weaker;
    weaker.engine.oracle.use_output_diff = false;
    EXPECT_NE(fp, CampaignScheduler(registry_, weaker)
                      .fingerprint(suite_, mutants_, nullptr));
}

TEST_F(CampaignTest, ResumeSkipsEveryFinishedItem) {
    const std::string store = "/tmp/stc_campaign_resume.jsonl";
    std::remove(store.c_str());

    CampaignOptions options;
    options.jobs = 2;
    options.store_path = store;
    const CampaignResult first = run_campaign(options);
    EXPECT_EQ(first.stats.executed, mutants_.size());
    EXPECT_EQ(first.stats.resumed, 0u);

    // Restart: identical campaign, nothing re-executes, same report.
    const CampaignResult second = run_campaign(options);
    EXPECT_EQ(second.stats.executed, 0u);
    EXPECT_EQ(second.stats.resumed, mutants_.size());
    expect_same_outcomes(first.run, second.run);
    EXPECT_EQ(first.run.killed(), second.run.killed());
}

TEST_F(CampaignTest, StoreWriteFailureFailsTheRunNamingTheStore) {
    const std::string store = "/tmp/stc_campaign_store_full_" +
                              std::to_string(getpid()) + ".jsonl";
    std::remove(store.c_str());
    CampaignOptions options;
    options.jobs = 2;
    options.store_path = store;
    {
        const FileSizeCap cap(512);
        try {
            (void)run_campaign(options);
            ADD_FAILURE() << "a campaign whose store lost records succeeded";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(store), std::string::npos)
                << e.what();
        }
    }
    // The cap gone, the same store resumes what reached it and finishes.
    const CampaignResult resumed = run_campaign(options);
    EXPECT_GT(resumed.stats.resumed, 0u);
    EXPECT_GT(resumed.stats.executed, 0u);
    EXPECT_EQ(resumed.stats.resumed + resumed.stats.executed, mutants_.size());
    std::remove(store.c_str());
}

TEST_F(CampaignTest, InterruptedStoreResumesTheUnfinishedTail) {
    const std::string store = "/tmp/stc_campaign_interrupt.jsonl";
    std::remove(store.c_str());

    CampaignOptions options;
    options.jobs = 2;
    options.store_path = store;
    const CampaignResult full = run_campaign(options);

    // Simulate a mid-campaign kill: keep the header and the first 5
    // records, end with a torn half-written line.
    std::vector<std::string> lines;
    {
        std::ifstream in(store);
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 6u);
    {
        std::ofstream out(store, std::ios::trunc);
        for (std::size_t i = 0; i < 6; ++i) out << lines[i] << '\n';
        out << "{\"key\":\"torn";  // the write the kill interrupted
    }

    const CampaignResult resumed = run_campaign(options);
    EXPECT_EQ(resumed.stats.resumed, 5u);
    EXPECT_EQ(resumed.stats.executed, mutants_.size() - 5u);
    expect_same_outcomes(full.run, resumed.run);
}

TEST_F(CampaignTest, StoreFromADifferentCampaignIsDiscarded) {
    const std::string store = "/tmp/stc_campaign_stale.jsonl";
    std::remove(store.c_str());

    CampaignOptions options;
    options.store_path = store;
    (void)run_campaign(options);

    // Same store file, different campaign seed: nothing may resume.
    CampaignOptions reseeded = options;
    reseeded.seed = 99;
    const CampaignResult fresh = run_campaign(reseeded);
    EXPECT_EQ(fresh.stats.resumed, 0u);
    EXPECT_EQ(fresh.stats.executed, mutants_.size());
}

TEST_F(CampaignTest, TelemetryStreamIsWellFormedJsonl) {
    const std::string trace = "/tmp/stc_campaign_trace.jsonl";
    std::remove(trace.c_str());

    CampaignOptions options;
    options.jobs = 2;
    options.telemetry_path = trace;
    const CampaignResult result = run_campaign(options);

    std::ifstream in(trace);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t starts = 0, finishes = 0, campaign_events = 0;
    std::uint64_t expected_seq = 0;
    std::optional<JsonObject> last;
    while (std::getline(in, line)) {
        const auto parsed = JsonObject::parse(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        ASSERT_TRUE(parsed->get_string("event").has_value()) << line;
        EXPECT_EQ(parsed->get_uint("seq"), expected_seq++) << line;
        const std::string event = *parsed->get_string("event");
        if (event == "item-start") {
            ++starts;
            EXPECT_TRUE(parsed->has("worker")) << line;
            EXPECT_TRUE(parsed->has("queue")) << line;
        } else if (event == "item-finish") {
            ++finishes;
            EXPECT_TRUE(parsed->get_string("fate").has_value()) << line;
            EXPECT_TRUE(parsed->get_string("reason").has_value()) << line;
            EXPECT_TRUE(parsed->has("wall_ms")) << line;
            EXPECT_TRUE(parsed->has("item_seed")) << line;
        } else if (event == "campaign-start" || event == "campaign-end") {
            ++campaign_events;
        }
        last = parsed;
    }
    EXPECT_EQ(starts, mutants_.size());
    EXPECT_EQ(finishes, mutants_.size());
    EXPECT_EQ(campaign_events, 2u);

    // The final event is the summary, and it agrees with the run.
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->get_string("event"), "campaign-end");
    EXPECT_EQ(last->get_uint("killed"), result.run.killed());
    EXPECT_EQ(last->get_uint("items"), mutants_.size());
    EXPECT_EQ(last->get_double("score"), result.run.score());
}

TEST_F(CampaignTest, ResumedCampaignAppendsTelemetryInsteadOfTruncating) {
    const std::string store = "/tmp/stc_campaign_resume_tel_store.jsonl";
    const std::string telemetry = "/tmp/stc_campaign_resume_tel.jsonl";
    std::remove(store.c_str());
    std::remove(telemetry.c_str());

    CampaignOptions options;
    options.store_path = store;
    options.telemetry_path = telemetry;
    (void)run_campaign(options);

    std::size_t first_lines = 0;
    {
        std::ifstream in(telemetry);
        std::string line;
        while (std::getline(in, line)) ++first_lines;
    }
    ASSERT_GT(first_lines, 0u);

    // Re-run the identical campaign: everything resumes from the store,
    // and the telemetry of the first generation must survive — the file
    // opens in append mode, gaining a second campaign-start.
    (void)run_campaign(options);

    std::size_t campaign_starts = 0, resumes = 0, total_lines = 0;
    std::ifstream in(telemetry);
    std::string line;
    while (std::getline(in, line)) {
        ++total_lines;
        const auto parsed = JsonObject::parse(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        const auto event = parsed->get_string("event");
        if (event == "campaign-start") ++campaign_starts;
        if (event == "item-resumed") ++resumes;
    }
    EXPECT_GT(total_lines, first_lines);
    EXPECT_EQ(campaign_starts, 2u);
    EXPECT_EQ(resumes, mutants_.size());

    // Without a store (nothing to resume), the same telemetry path
    // truncates: one generation only.
    CampaignOptions fresh;
    fresh.telemetry_path = telemetry;
    (void)run_campaign(fresh);
    campaign_starts = 0;
    std::ifstream again(telemetry);
    while (std::getline(again, line)) {
        const auto parsed = JsonObject::parse(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        if (parsed->get_string("event") == "campaign-start") ++campaign_starts;
    }
    EXPECT_EQ(campaign_starts, 1u);
}

TEST_F(CampaignTest, ObservabilityDoesNotChangeFatesAndRecordsSpans) {
    CampaignOptions plain;
    plain.jobs = 2;
    const CampaignResult baseline = run_campaign(plain);

    CampaignOptions observed;
    observed.jobs = 2;
    observed.obs.tracer = obs::Tracer::make();
    observed.obs.metrics = obs::Metrics::make();
    const CampaignResult traced = run_campaign(observed);

    // The determinism contract survives instrumentation.
    expect_same_outcomes(baseline.run, traced.run);
    EXPECT_EQ(baseline.fingerprint, traced.fingerprint);

    // The trace holds the whole span hierarchy of the campaign.
    std::set<std::string> categories;
    for (const auto& event : observed.obs.tracer.events()) {
        categories.insert(event.category);
    }
    for (const char* expected :
         {"phase", "campaign", "suite-run", "test-case", "method-call",
          "oracle-compare", "mutant-evaluation"}) {
        EXPECT_EQ(categories.count(expected), 1u) << expected;
    }
    // Invariant evaluations are a counter, not spans (they ran once per
    // method call and dominated trace volume).
    EXPECT_EQ(categories.count("invariant-check"), 0u);

    // And the metrics agree with the run's own accounting.
    const auto& metrics = observed.obs.metrics;
    EXPECT_EQ(metrics.counter("campaign.items"), mutants_.size());
    EXPECT_EQ(metrics.counter("campaign.executed"), mutants_.size());
    EXPECT_EQ(metrics.counter("mutation.fate.killed"), traced.run.killed());
    EXPECT_GT(metrics.counter("runner.method_calls"), 0u);
    EXPECT_GT(metrics.counter("bit.assertions_checked"), 0u);
    bool saw_eval_histogram = false;
    for (const auto& h : metrics.histograms()) {
        if (h.name == "mutation.eval_ms") {
            saw_eval_histogram = true;
            EXPECT_GE(h.count, mutants_.size());
        }
    }
    EXPECT_TRUE(saw_eval_histogram);
}

TEST_F(CampaignTest, TelemetrySinkToStreamIsShared) {
    std::ostringstream os;
    TelemetrySink sink = TelemetrySink::to_stream(os);
    TelemetrySink copy = sink;  // copies share the sequence counter
    sink.emit(JsonObject().set("event", "a"));
    copy.emit(JsonObject().set("event", "b"));
    EXPECT_EQ(sink.count(), 2u);
    std::istringstream in(os.str());
    std::string line;
    std::uint64_t seq = 0;
    while (std::getline(in, line)) {
        const auto parsed = JsonObject::parse(line);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->get_uint("seq"), seq++);
    }
    EXPECT_EQ(seq, 2u);
}

// ------------------------------------------------- string round-trips

TEST(FateStrings, RoundTrip) {
    using mutation::MutantFate;
    for (const MutantFate fate :
         {MutantFate::Killed, MutantFate::Alive, MutantFate::EquivalentPresumed,
          MutantFate::NotCovered}) {
        EXPECT_EQ(mutation::fate_from_string(mutation::to_string(fate)), fate);
    }
    EXPECT_FALSE(mutation::fate_from_string("zombie").has_value());

    using oracle::KillReason;
    // Exhaustive over the declared enumeration, so adding a reason (as
    // IllegalQuiescence was) without its string breaks here, not in a
    // resume file.
    std::set<std::string> names;
    for (const KillReason reason : oracle::kAllKillReasons) {
        const char* text = oracle::to_string(reason);
        EXPECT_TRUE(names.insert(text).second) << text;
        EXPECT_EQ(oracle::kill_reason_from_string(text), reason);
    }
    EXPECT_EQ(names.size(), std::size(oracle::kAllKillReasons));
    EXPECT_EQ(names.count("illegal-quiescence"), 1u);
    EXPECT_FALSE(oracle::kill_reason_from_string("boredom").has_value());
}

TEST(ResultStoreFile, EveryKillReasonSurvivesResume) {
    // One record per kill reason through the JSONL store's write → crash
    // → reopen cycle: a reason the resume path cannot parse would
    // silently re-execute the item (or worse, mis-fate it).
    const std::string path = "/tmp/stc_store_reasons_" +
                             std::to_string(getpid()) + ".jsonl";
    std::remove(path.c_str());
    {
        ResultStore store(path, "fp-reasons");
        std::size_t index = 0;
        for (const oracle::KillReason reason : oracle::kAllKillReasons) {
            ItemRecord r;
            r.key = "k" + std::to_string(index);
            r.mutant_id = "Wallet::Deposit@s" + std::to_string(index);
            r.item_index = index++;
            r.fate = reason == oracle::KillReason::None ? "alive" : "killed";
            r.reason = oracle::to_string(reason);
            r.hit_by_suite = true;
            store.append(r);
        }
    }
    ResultStore reopened(path, "fp-reasons");
    EXPECT_EQ(reopened.loaded(), std::size(oracle::kAllKillReasons));
    EXPECT_EQ(reopened.dropped(), 0u);
    std::size_t index = 0;
    for (const oracle::KillReason reason : oracle::kAllKillReasons) {
        const ItemRecord* r = reopened.find("k" + std::to_string(index++));
        ASSERT_NE(r, nullptr) << oracle::to_string(reason);
        EXPECT_EQ(oracle::kill_reason_from_string(r->reason), reason);
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace stc::campaign
