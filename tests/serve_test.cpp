// stc::serve tests: worker daemon + coordinator over real loopback
// sockets, in-process (daemon on a thread, coordinator on the test
// thread).  The mechanics tests drive a toy session so they run in
// microseconds; the end-to-end test dispatches a real builtin campaign
// and checks the merged fates against locally evaluated ones — the
// determinism contract `concat dispatch` rests on.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "shop_targets.h"
#include "stc/campaign/result_store.h"
#include "stc/campaign/telemetry.h"
#include "stc/campaign/work_list.h"
#include "stc/mutation/engine.h"
#include "stc/tfm/coverage.h"
#include "stc/obs/json.h"
#include "stc/obs/trace.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/dispatch.h"
#include "stc/serve/socket.h"
#include "stc/serve/span_codec.h"
#include "stc/serve/worker.h"
#include "stc/support/error.h"
#include "stc/wire/frame.h"

namespace stc::serve {
namespace {

// A minimal deterministic session: the "outcome" of item N is a pure
// function of N, so any shard split / redispatch must merge to the same
// results.
class ToySession : public Session {
public:
    explicit ToySession(std::string fingerprint)
        : fingerprint_(std::move(fingerprint)) {}

    const std::string& fingerprint() const override { return fingerprint_; }

    obs::JsonObject evaluate(const obs::JsonObject& work) override {
        const std::uint64_t index = work.get_uint("item").value_or(0);
        obs::JsonObject result;
        result.set("item", index)
            .set("mutant", work.get_string("mutant").value_or(""))
            .set("answer", index * 7 + 1);
        return result;
    }

private:
    std::string fingerprint_;
};

SessionFactory toy_factory(const std::string& fingerprint) {
    return [fingerprint](const obs::JsonObject&, const obs::Context&,
                         std::string*) -> std::unique_ptr<Session> {
        return std::make_unique<ToySession>(fingerprint);
    };
}

std::vector<campaign::WorkItem> toy_items(std::size_t n) {
    std::vector<campaign::WorkItem> items;
    for (std::size_t i = 0; i < n; ++i) {
        campaign::WorkItem item;
        item.index = i;
        item.mutant_id = "toy-mutant-" + std::to_string(i);
        item.item_seed = 1000 + i;
        item.key = campaign::item_key("toy-fp", item.mutant_id);
        items.push_back(item);
    }
    return items;
}

/// One daemon on an ephemeral loopback port, served on its own thread.
/// `telemetry`, when given, is the daemon's own event sink (called on
/// the daemon thread).
struct DaemonHandle {
    explicit DaemonHandle(
        SessionFactory factory, bool once = true,
        std::function<void(const obs::JsonObject&)> telemetry = {}) {
        ServeOptions options;
        options.once = once;
        options.telemetry = std::move(telemetry);
        daemon = std::make_unique<WorkerDaemon>(std::move(factory),
                                                std::move(options));
        port = daemon->bind();
        thread = std::thread([this] { daemon->serve(); });
    }
    ~DaemonHandle() {
        daemon->stop();
        if (thread.joinable()) thread.join();
    }
    Endpoint endpoint() const {
        return parse_endpoint("127.0.0.1:" + std::to_string(port));
    }

    std::unique_ptr<WorkerDaemon> daemon;
    std::uint16_t port = 0;
    std::thread thread;
};

/// A ToySession that takes `per_item` to evaluate each item.
SessionFactory sleepy_factory(std::chrono::milliseconds per_item) {
    return [per_item](const obs::JsonObject&, const obs::Context&,
                      std::string*) -> std::unique_ptr<Session> {
        class Sleepy : public ToySession {
        public:
            explicit Sleepy(std::chrono::milliseconds per_item)
                : ToySession("toy-fp"), per_item_(per_item) {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                std::this_thread::sleep_for(per_item_);
                return ToySession::evaluate(work);
            }

        private:
            std::chrono::milliseconds per_item_;
        };
        return std::make_unique<Sleepy>(per_item);
    };
}

/// Holds the toy workers' answers until the coordinator has settled
/// every worker's handshake (one worker-connect or worker-disconnect
/// event each).  A toy session answers in microseconds, so without the
/// gate the first worker through its handshake can take every item —
/// its own shard, then the rest by stealing — before the coordinator
/// reads the other's HelloAck: the other then never connects, is never
/// rejected, or never gets work.
class HandshakeGate {
public:
    explicit HandshakeGate(std::size_t workers) : workers_(workers) {}

    /// DispatchOptions::telemetry hook (coordinator thread).
    void observe(const obs::JsonObject& event) {
        const std::string kind = event.get_string("event").value_or("");
        const auto worker = event.get_uint("worker");
        if ((kind != "worker-connect" && kind != "worker-disconnect") ||
            !worker) {
            return;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        settled_.insert(*worker);
        if (settled_.size() >= workers_) open_.notify_all();
    }

    /// Block until every handshake settled (worker threads).  Bounded,
    /// so a coordinator that never settles one fails the test's own
    /// assertions instead of hanging it.
    void wait() {
        std::unique_lock<std::mutex> lock(mutex_);
        open_.wait_for(lock, std::chrono::seconds(10),
                       [&] { return settled_.size() >= workers_; });
    }

private:
    std::size_t workers_;
    std::mutex mutex_;
    std::condition_variable open_;
    std::set<std::uint64_t> settled_;
};

/// A toy_factory whose sessions answer only once `gate` opens.
SessionFactory gated_factory(HandshakeGate& gate) {
    return [&gate](const obs::JsonObject&, const obs::Context&,
                   std::string*) -> std::unique_ptr<Session> {
        class Gated : public ToySession {
        public:
            explicit Gated(HandshakeGate& gate)
                : ToySession("toy-fp"), gate_(gate) {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                gate_.wait();
                return ToySession::evaluate(work);
            }

        private:
            HandshakeGate& gate_;
        };
        return std::make_unique<Gated>(gate);
    };
}

/// The next message on `fd`, or nullopt once the peer hung up.
std::optional<wire::Message> next_message(int fd, wire::Decoder& decoder) {
    for (;;) {
        wire::Message message;
        const wire::Decoder::Status status = decoder.next(&message);
        if (status == wire::Decoder::Status::Ok) return message;
        if (status != wire::Decoder::Status::NeedMore) return std::nullopt;
        char chunk[4096];
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got <= 0) return std::nullopt;
        decoder.feed(chunk, static_cast<std::size_t>(got));
    }
}

/// A hand-driven worker on an ephemeral loopback port: `script` runs on
/// its own thread with the one connection it accepts.
struct RawWorker {
    explicit RawWorker(std::function<void(int fd)> script) {
        listener = listen_on("127.0.0.1", 0, &port);
        thread = std::thread([this, script = std::move(script)] {
            const Fd conn = accept_on(listener.get());
            if (conn.valid()) script(conn.get());
        });
    }
    ~RawWorker() { join(); }
    RawWorker(const RawWorker&) = delete;
    RawWorker& operator=(const RawWorker&) = delete;
    /// Wait for the script to end (it must end when its peer hangs up).
    void join() {
        if (!thread.joinable()) return;
        ::shutdown(listener.get(), SHUT_RDWR);  // wakes an idle accept
        thread.join();
    }
    Endpoint endpoint() const {
        return parse_endpoint("127.0.0.1:" + std::to_string(port));
    }

    Fd listener;
    std::uint16_t port = 0;
    std::thread thread;
};

/// Answer the coordinator's Hello as a toy worker would; false if the
/// peer went away.
bool accept_hello(int fd, wire::Decoder& decoder) {
    const auto hello = next_message(fd, decoder);
    return hello && hello->type == wire::MessageType::Hello &&
           wire::write_message(fd, wire::MessageType::HelloAck,
                               obs::JsonObject()
                                   .set("ok", true)
                                   .set("fingerprint", "toy-fp")
                                   .to_line());
}

/// One versioned message as a peer of protocol version `version` would
/// frame it.
std::string message_of_version(std::uint8_t version, wire::MessageType type,
                               const std::string& payload) {
    std::string bytes = wire::encode_message(type, payload);
    bytes[4] = static_cast<char>(version);
    return bytes;
}

DispatchOptions toy_dispatch(const std::vector<Endpoint>& endpoints) {
    DispatchOptions options;
    options.workers = endpoints;
    options.hello = obs::JsonObject().set("component", "toy");
    options.expected_fingerprint = "toy-fp";
    return options;
}

// ------------------------------------------------------------ endpoints

TEST(ServeEndpoint, ParseFormsAndErrors) {
    const Endpoint full = parse_endpoint("10.1.2.3:555");
    EXPECT_EQ(full.host, "10.1.2.3");
    EXPECT_EQ(full.port, 555);

    const Endpoint bare = parse_endpoint("4242");
    EXPECT_EQ(bare.host, "127.0.0.1");
    EXPECT_EQ(bare.port, 4242);

    const auto list = parse_endpoints("127.0.0.1:1,127.0.0.1:2");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[1].port, 2);

    EXPECT_THROW((void)parse_endpoint("host:notaport"), Error);
    EXPECT_THROW((void)parse_endpoints(""), Error);
}

// ------------------------------------------------------------- dispatch

TEST(ServeDispatch, TwoWorkersCompleteEveryItemExactlyOnce) {
    HandshakeGate gate(2);
    DaemonHandle d1(gated_factory(gate));
    DaemonHandle d2(gated_factory(gate));

    const auto items = toy_items(10);
    std::map<std::size_t, std::uint64_t> answers;
    DispatchOptions options = toy_dispatch({d1.endpoint(), d2.endpoint()});
    options.telemetry = [&](const obs::JsonObject& e) { gate.observe(e); };
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        items, [&](const campaign::WorkItem& item,
                   const obs::JsonObject& result) {
            EXPECT_EQ(answers.count(item.index), 0u) << "duplicate result";
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    EXPECT_EQ(stats.workers, 2u);
    EXPECT_EQ(stats.workers_connected, 2u);
    EXPECT_EQ(stats.disconnects, 0u);
    EXPECT_EQ(stats.executed, 10u);
    ASSERT_EQ(answers.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(answers[i], i * 7 + 1);
    }
    // Both daemons carried part of the shard split: every result tags
    // its worker ordinal, and with the content-hash shard both ordinals
    // must appear for this item count.
}

TEST(ServeDispatch, ResumedSubsetKeepsGlobalIndices) {
    DaemonHandle steady(toy_factory("toy-fp"));
    // A mid-campaign death on top of the subset exercises the
    // redispatch bookkeeping with non-identity indices too.
    DaemonHandle flaky([](const obs::JsonObject&, const obs::Context&,
                          std::string*) -> std::unique_ptr<Session> {
        class Flaky : public ToySession {
        public:
            Flaky() : ToySession("toy-fp") {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                if (++count_ > 1) throw Error("injected mid-campaign death");
                return ToySession::evaluate(work);
            }

        private:
            int count_ = 0;
        };
        return std::make_unique<Flaky>();
    });

    // The --resume shape: only the pending remainder of the work list
    // is shipped, so pending[i].index != i.  Results must still slot
    // under each item's global index.
    std::vector<campaign::WorkItem> pending;
    for (const campaign::WorkItem& item : toy_items(12)) {
        if (item.index % 3 != 0) pending.push_back(item);
    }
    ASSERT_EQ(pending.size(), 8u);

    std::map<std::size_t, std::uint64_t> answers;
    Coordinator coordinator(
        toy_dispatch({steady.endpoint(), flaky.endpoint()}));
    const DispatchStats stats = coordinator.run(
        pending, [&](const campaign::WorkItem& item,
                     const obs::JsonObject& result) {
            EXPECT_EQ(answers.count(item.index), 0u) << "duplicate result";
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    EXPECT_EQ(stats.executed, 8u);
    ASSERT_EQ(answers.size(), 8u);
    for (const campaign::WorkItem& item : pending) {
        EXPECT_EQ(answers[item.index], item.index * 7 + 1)
            << "item " << item.index;
    }
}

TEST(ServeDispatch, FingerprintMismatchMeansNoUsableWorkers) {
    DaemonHandle d1(toy_factory("OTHER-fp"));
    Coordinator coordinator(toy_dispatch({d1.endpoint()}));
    EXPECT_THROW((void)coordinator.run(toy_items(3),
                                       [](const campaign::WorkItem&,
                                          const obs::JsonObject&) {}),
                 Error);
}

TEST(ServeDispatch, HandshakeRejectionFallsBackToSurvivor) {
    HandshakeGate gate(2);
    DaemonHandle good(gated_factory(gate));
    DaemonHandle bad([](const obs::JsonObject&, const obs::Context&,
                        std::string* error) -> std::unique_ptr<Session> {
        *error = "unknown component";
        return nullptr;
    });

    std::size_t merged = 0;
    DispatchOptions options = toy_dispatch({good.endpoint(), bad.endpoint()});
    options.telemetry = [&](const obs::JsonObject& e) { gate.observe(e); };
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(6),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(merged, 6u);
    EXPECT_EQ(stats.workers_connected, 1u);
    EXPECT_EQ(stats.disconnects, 1u);
}

TEST(ServeDispatch, UnreachableEndpointFallsBackToSurvivor) {
    DaemonHandle good(toy_factory("toy-fp"));
    // Port 1 on loopback: connect is refused immediately.
    std::size_t merged = 0;
    Coordinator coordinator(
        toy_dispatch({good.endpoint(), parse_endpoint("127.0.0.1:1")}));
    const DispatchStats stats = coordinator.run(
        toy_items(6),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(merged, 6u);
    EXPECT_EQ(stats.disconnects, 1u);
}

TEST(ServeDispatch, MidCampaignDeathRedispatchesToSurvivor) {
    HandshakeGate gate(2);
    DaemonHandle steady(gated_factory(gate));
    // This daemon's session dies (Error frame, session torn down) on its
    // second item — after real work was assigned to it.
    DaemonHandle flaky([](const obs::JsonObject&, const obs::Context&,
                          std::string*) -> std::unique_ptr<Session> {
        class Flaky : public ToySession {
        public:
            Flaky() : ToySession("toy-fp") {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                if (++count_ > 1) throw Error("injected mid-campaign death");
                return ToySession::evaluate(work);
            }

        private:
            int count_ = 0;
        };
        return std::make_unique<Flaky>();
    });

    const auto items = toy_items(12);
    std::map<std::size_t, std::uint64_t> answers;
    DispatchOptions options =
        toy_dispatch({steady.endpoint(), flaky.endpoint()});
    options.telemetry = [&](const obs::JsonObject& e) { gate.observe(e); };
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        items, [&](const campaign::WorkItem& item,
                   const obs::JsonObject& result) {
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    ASSERT_EQ(answers.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(answers[i], i * 7 + 1) << "item " << i;
    }
    EXPECT_EQ(stats.disconnects, 1u);
    EXPECT_GT(stats.redispatched, 0u);
}

TEST(ServeDispatch, SilentWorkerIsDeclaredDeadByKeepalive) {
    HandshakeGate gate(2);
    DaemonHandle steady(gated_factory(gate));
    // This worker accepts the handshake, then stalls far past the
    // dead-after deadline on its first item.  The coordinator must not
    // wait for it: keepalive declares it dead and the survivor finishes.
    DaemonHandle stalled([](const obs::JsonObject&, const obs::Context&,
                            std::string*) -> std::unique_ptr<Session> {
        class Stalled : public ToySession {
        public:
            Stalled() : ToySession("toy-fp") {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                std::this_thread::sleep_for(std::chrono::milliseconds(1500));
                return ToySession::evaluate(work);
            }
        };
        return std::make_unique<Stalled>();
    });

    DispatchOptions options =
        toy_dispatch({steady.endpoint(), stalled.endpoint()});
    options.keepalive_ms = 50;
    options.dead_after_ms = 250;
    options.telemetry = [&](const obs::JsonObject& e) { gate.observe(e); };

    std::map<std::size_t, std::uint64_t> answers;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(8), [&](const campaign::WorkItem& item,
                          const obs::JsonObject& result) {
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    ASSERT_EQ(answers.size(), 8u);
    EXPECT_EQ(stats.disconnects, 1u);
    EXPECT_GT(stats.redispatched, 0u);
}

TEST(ServeDispatch, EachWorkerKeepsAWindowOfWorkInFlight) {
    // A few ms per item: each worker's window is sent long before its
    // first Result can return.
    DaemonHandle d1(sleepy_factory(std::chrono::milliseconds(5)));
    DaemonHandle d2(sleepy_factory(std::chrono::milliseconds(5)));

    // (worker, +1 for a send / -1 for a merge), in coordinator order.
    std::vector<std::pair<std::uint64_t, int>> log;
    DispatchOptions options = toy_dispatch({d1.endpoint(), d2.endpoint()});
    options.telemetry = [&](const obs::JsonObject& event) {
        if (event.get_string("event").value_or("") == "item-start") {
            log.emplace_back(event.get_uint("worker").value_or(9), +1);
        }
    };
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(32), [&](const campaign::WorkItem&,
                           const obs::JsonObject& result) {
            log.emplace_back(result.get_uint("worker").value_or(9), -1);
        });
    EXPECT_EQ(stats.executed, 32u);

    for (std::uint64_t w = 0; w < 2; ++w) {
        std::size_t before_first_merge = 0;
        std::size_t outstanding = 0;
        std::size_t peak = 0;
        bool merged = false;
        for (const auto& [worker, step] : log) {
            if (worker != w) continue;
            if (step < 0) {
                merged = true;
                --outstanding;
                continue;
            }
            if (!merged) ++before_first_merge;
            peak = std::max(peak, ++outstanding);
        }
        EXPECT_EQ(before_first_merge, kDispatchWindow) << "worker " << w;
        EXPECT_EQ(peak, kDispatchWindow) << "worker " << w;
    }
}

TEST(ServeDispatch, OutOfOrderResultFailsTheWorkerAndItsWindowMovesOn) {
    // The survivor holds its first item until the out-of-order worker
    // has two Work frames, so it cannot finish the campaign alone first.
    std::atomic<bool> window_seen{false};
    DaemonHandle steady(
        [&window_seen](const obs::JsonObject&, const obs::Context&,
                       std::string*) -> std::unique_ptr<Session> {
            class Patient : public ToySession {
            public:
                explicit Patient(std::atomic<bool>* go)
                    : ToySession("toy-fp"), go_(go) {}
                obs::JsonObject evaluate(const obs::JsonObject& work) override {
                    for (int i = 0; i < 2000 && !go_->load(); ++i) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                    return ToySession::evaluate(work);
                }

            private:
                std::atomic<bool>* go_;
            };
            return std::make_unique<Patient>(&window_seen);
        });
    // Reads two Work frames, then answers the second one first.
    std::vector<std::uint64_t> received;
    RawWorker reorder([&](int fd) {
        wire::Decoder decoder;
        if (!accept_hello(fd, decoder)) return;
        std::vector<obs::JsonObject> works;
        while (works.size() < 2) {
            const auto message = next_message(fd, decoder);
            if (!message) return;
            if (message->type != wire::MessageType::Work) continue;
            works.push_back(*obs::JsonObject::parse(message->payload));
            received.push_back(works.back().get_uint("item").value_or(0));
        }
        window_seen = true;
        (void)wire::write_message(
            fd, wire::MessageType::Result,
            ToySession("toy-fp").evaluate(works[1]).to_line());
        while (next_message(fd, decoder)) {
        }
    });

    DispatchOptions options =
        toy_dispatch({steady.endpoint(), reorder.endpoint()});
    options.keepalive_ms = 50;
    options.dead_after_ms = 500;
    std::vector<obs::JsonObject> events;
    options.telemetry = [&](const obs::JsonObject& event) {
        events.push_back(event);
    };
    std::map<std::size_t, std::uint64_t> answers;
    std::map<std::size_t, std::uint64_t> merged_by;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(12), [&](const campaign::WorkItem& item,
                           const obs::JsonObject& result) {
            EXPECT_EQ(answers.count(item.index), 0u) << "duplicate result";
            answers[item.index] = result.get_uint("answer").value_or(0);
            merged_by[item.index] = result.get_uint("worker").value_or(9);
        });
    reorder.join();

    ASSERT_EQ(answers.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(answers[i], i * 7 + 1) << "item " << i;
    }
    EXPECT_EQ(stats.disconnects, 1u);
    EXPECT_GE(stats.redispatched, 2u);
    ASSERT_EQ(received.size(), 2u);
    for (const std::uint64_t index : received) {
        EXPECT_EQ(merged_by[index], 0u) << "item " << index;
    }
    std::size_t wrong_item_failures = 0;
    for (const obs::JsonObject& event : events) {
        if (event.get_string("event").value_or("") == "worker-disconnect" &&
            event.get_uint("worker") == std::optional<std::uint64_t>(1) &&
            event.get_string("reason").value_or("") ==
                "protocol: result for wrong item") {
            ++wrong_item_failures;
        }
    }
    EXPECT_EQ(wrong_item_failures, 1u);
}

TEST(ServeDispatch, IdleWorkerTakesUnsentItemsFromASlowOne) {
    DaemonHandle fast(toy_factory("toy-fp"));
    DaemonHandle slow(sleepy_factory(std::chrono::milliseconds(20)));

    const auto items = toy_items(24);
    std::size_t fast_shard = 0;
    for (const campaign::WorkItem& item : items) {
        if (campaign::shard_of(item.key, 2) == 0) ++fast_shard;
    }
    ASSERT_LE(fast_shard + 2 * kDispatchWindow, items.size());

    std::map<std::size_t, std::uint64_t> merged_by;
    Coordinator coordinator(toy_dispatch({fast.endpoint(), slow.endpoint()}));
    const DispatchStats stats = coordinator.run(
        items, [&](const campaign::WorkItem& item,
                   const obs::JsonObject& result) {
            EXPECT_EQ(merged_by.count(item.index), 0u) << "duplicate result";
            merged_by[item.index] = result.get_uint("worker").value_or(9);
        });

    EXPECT_EQ(merged_by.size(), items.size());
    EXPECT_EQ(stats.disconnects, 0u);
    EXPECT_EQ(stats.redispatched, 0u);
    EXPECT_GT(stats.stolen, 0u);
    std::size_t fast_executed = 0;
    for (const auto& [index, worker] : merged_by) {
        if (worker == 0) ++fast_executed;
    }
    EXPECT_GT(fast_executed, fast_shard);
}

TEST(ServeDispatch, WedgedWorkerDoesNotStarveTheShutdownDrain) {
    // Ordinal 0 answers its Work but never closes after Shutdown, so
    // only the coordinator's 2 s drain bound ends its session.
    HandshakeGate gate(2);
    RawWorker wedged([&gate](int fd) {
        wire::Decoder decoder;
        if (!accept_hello(fd, decoder)) return;
        while (const auto message = next_message(fd, decoder)) {
            if (message->type == wire::MessageType::Work) {
                gate.wait();
                const auto work = obs::JsonObject::parse(message->payload);
                (void)wire::write_message(
                    fd, wire::MessageType::Result,
                    ToySession("toy-fp").evaluate(*work).to_line());
            } else if (message->type == wire::MessageType::Ping) {
                (void)wire::write_message(fd, wire::MessageType::Pong,
                                          message->payload);
            }
        }
    });
    DaemonHandle healthy(gated_factory(gate));

    DispatchOptions options =
        toy_dispatch({wedged.endpoint(), healthy.endpoint()});
    options.stream_telemetry = true;
    std::vector<obs::JsonObject> events;
    options.telemetry = [&](const obs::JsonObject& event) {
        gate.observe(event);
        events.push_back(event);
    };
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(8),
        [](const campaign::WorkItem&, const obs::JsonObject&) {});
    wedged.join();

    EXPECT_EQ(stats.executed, 8u);
    EXPECT_EQ(stats.disconnects, 0u);
    std::size_t healthy_ends = 0;
    for (const obs::JsonObject& event : events) {
        if (event.get_string("event").value_or("") == "worker-session-end" &&
            event.get_uint("worker") == std::optional<std::uint64_t>(1)) {
            ++healthy_ends;
        }
    }
    EXPECT_EQ(healthy_ends, 1u);
}

// --------------------------------------------------------------- worker

TEST(ServeWorker, SecondHelloIsAProtocolError) {
    DaemonHandle daemon(toy_factory("toy-fp"));
    const Fd conn = connect_to(daemon.endpoint());
    const std::string hello =
        obs::JsonObject().set("component", "toy").to_line();

    ASSERT_TRUE(
        wire::write_message(conn.get(), wire::MessageType::Hello, hello));
    const auto ack = wire::read_message(conn.get());
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, wire::MessageType::HelloAck);

    // A session is configured exactly once: a second Hello must fail
    // the connection, not silently reconfigure it.
    ASSERT_TRUE(
        wire::write_message(conn.get(), wire::MessageType::Hello, hello));
    const auto reply = wire::read_message(conn.get());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::MessageType::Error);
    const auto payload = obs::JsonObject::parse(reply->payload);
    ASSERT_TRUE(payload.has_value());
    EXPECT_NE(payload->get_string("error").value_or("").find("hello"),
              std::string::npos);
}

// ---------------------------------------------------------- builtin host

TEST(ServeBuiltinHost, HelloRoundTripsTheConfig) {
    BuiltinCampaignConfig config;
    config.component = "coblist";
    config.generator.seed = 99;
    config.generator.cases_per_transaction = 2;
    config.probe = true;
    config.model = false;

    const obs::JsonObject hello = make_hello(config, "fp-here");
    std::string error;
    const auto parsed = parse_hello(hello, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->component, "coblist");
    EXPECT_EQ(parsed->generator.seed, 99u);
    EXPECT_EQ(parsed->generator.cases_per_transaction, 2u);
    EXPECT_TRUE(parsed->probe);
    EXPECT_FALSE(parsed->model);
    EXPECT_EQ(hello.get_string("fingerprint").value_or(""), "fp-here");
}

TEST(ServeBuiltinHost, UnknownComponentIsRejectedNotFatal) {
    BuiltinCampaignConfig config;
    config.component = "no-such-thing";
    std::string error;
    EXPECT_EQ(BuiltinCampaign::open(config, &error), nullptr);
    EXPECT_FALSE(error.empty());
}

TEST(ServeBuiltinHost, RegistryServesTheExampleAssemblyTarget) {
    examples::register_example_targets();
    examples::register_example_targets();  // idempotent: replace, not grow

    const BuiltinTarget* shop = find_builtin_target("shop");
    ASSERT_NE(shop, nullptr);
    EXPECT_TRUE(shop->assembly);
    const BuiltinTarget* wallet = find_builtin_target("wallet");
    ASSERT_NE(wallet, nullptr);
    EXPECT_FALSE(wallet->assembly);
    const std::vector<std::string> names = builtin_target_names();
    EXPECT_EQ(names, (std::vector<std::string>{"audited-wallet", "coblist", "shop",
                                               "sortable", "wallet"}));

    // The worker-side reconstruction path (`open`) works for the
    // assembly product, and the ioco channel reaches the dispatch
    // evaluator: the write-through mutant that survives the intraclass
    // wallet campaign is killed here by illegal quiescence.
    BuiltinCampaignConfig config;
    config.component = "shop";
    config.generator.criterion = tfm::Criterion::AllEdges;
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;
    EXPECT_TRUE(host->baseline_clean());
    EXPECT_EQ(host->suite().class_name, "Shop");

    const std::string id = "Wallet::Deposit@s2.IndVarRepReq.NULL";
    const auto item = std::find_if(
        host->items().begin(), host->items().end(),
        [&](const campaign::WorkItem& w) { return w.mutant_id == id; });
    ASSERT_NE(item, host->items().end());
    const auto outcome = host->evaluate(item->index, id);
    EXPECT_EQ(outcome.fate, mutation::MutantFate::Killed);
    EXPECT_EQ(outcome.reason, oracle::KillReason::IllegalQuiescence);
}

TEST(ServeBuiltinHost, DispatchedFatesMatchLocalEvaluation) {
    BuiltinCampaignConfig config;
    config.component = "sortable";
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;

    DaemonHandle d1(builtin_session_factory());
    DaemonHandle d2(builtin_session_factory());

    DispatchOptions options;
    options.workers = {d1.endpoint(), d2.endpoint()};
    options.hello = make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();

    std::map<std::size_t, std::string> fates;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        host->items(), [&](const campaign::WorkItem& item,
                           const obs::JsonObject& result) {
            fates[item.index] = result.get_string("fate").value_or("?");
        });

    EXPECT_EQ(stats.workers_connected, 2u);
    ASSERT_EQ(fates.size(), host->items().size());
    for (const campaign::WorkItem& item : host->items()) {
        const mutation::MutantOutcome local =
            host->evaluate(item.index, item.mutant_id);
        EXPECT_EQ(fates[item.index], mutation::to_string(local.fate))
            << item.mutant_id;
    }
}

TEST(ServeBuiltinHost, TracedDispatchRecordsOneMergeSpanPerItem) {
    // The coordinator's share of each item (decode + Ledger::finish) is
    // its own serve/merge span, so the merge can be timed apart from the
    // daemons' evaluation.
    BuiltinCampaignConfig config;
    config.component = "coblist";
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;

    DaemonHandle d1(builtin_session_factory());
    DaemonHandle d2(builtin_session_factory());
    const obs::Tracer tracer = obs::Tracer::make();
    DispatchOptions options;
    options.workers = {d1.endpoint(), d2.endpoint()};
    options.hello = make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();
    options.obs.tracer = tracer;
    DispatchStats stats;
    const campaign::CampaignResult result =
        host->dispatch(std::move(options), "", &stats);
    EXPECT_EQ(result.stats.executed, host->items().size());

    std::map<std::uint64_t, std::size_t> merges;  // item -> merge spans
    for (const obs::TraceEvent& event : tracer.events()) {
        if (event.category != "serve" || event.name != "merge") continue;
        EXPECT_EQ(event.actor, 0);  // the coordinator's, never a daemon's
        ++merges[event.args.get_uint("item").value_or(host->items().size())];
    }
    ASSERT_EQ(merges.size(), host->items().size());
    for (const campaign::WorkItem& item : host->items()) {
        EXPECT_EQ(merges[item.index], 1u) << item.mutant_id;
    }
}

// ------------------------------------------------- executor contract

/// Per event kind, the distinct key sets (sorted, space-joined) of a
/// `--telemetry-out` stream.
using KeyTable = std::map<std::string, std::set<std::string>>;

std::string sorted_keys(std::vector<std::string> keys) {
    std::sort(keys.begin(), keys.end());
    std::string joined;
    for (const std::string& key : keys) joined += (joined.empty() ? "" : " ") + key;
    return joined;
}

KeyTable telemetry_keys(const std::string& path) {
    KeyTable table;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        const auto event = obs::JsonObject::parse(line);
        if (!event) {
            ADD_FAILURE() << "unparseable telemetry line: " << line;
            continue;
        }
        std::vector<std::string> keys;
        for (const auto& [key, value] : event->fields()) keys.push_back(key);
        table[event->get_string("event").value_or("")].insert(sorted_keys(keys));
    }
    return table;
}

/// A store's records by key, wall_ms (the one scheduling fact a record
/// carries) zeroed.
std::map<std::string, std::string> store_records(const std::string& path) {
    std::string error;
    const auto peek = campaign::peek_store(path, &error);
    EXPECT_TRUE(peek.has_value()) << error;
    std::map<std::string, std::string> out;
    if (!peek) return out;
    EXPECT_EQ(peek->dropped, 0u);
    for (campaign::ItemRecord record : peek->records) {
        record.wall_ms = 0.0;
        out[record.key] = record.to_json().to_line();
    }
    return out;
}

// The per-executor key table of docs/FORMATS.md §5, as `concat campaign
// coblist --jobs 2 [--isolate]` and a 2-daemon `concat dispatch coblist`
// write it with --resume and --telemetry-out.
const std::string kStart =
    "baseline_clean campaign cases class event jobs model mutants probe prune seed seq";
const std::string kCoverage =
    "campaign cases checkpoints digest event pairs probe_pairs seq version";
const std::string kKillReason = "event kills reason seq";
const std::string kFinishPruned =
    "event executed_pairs fate hit item item_seed memoized_pairs model_only "
    "mutant probe_kill pruned_pairs reason seq shrunk wall_ms worker";
const std::string kFinishTotals =
    "event fate hit item item_seed model_only mutant probe_kill reason seq "
    "shrunk wall_ms worker";
std::string campaign_end(const std::string& executor_key) {
    return sorted_keys({"campaign", "equivalent", "event", "executed",
                        "executed_pairs", "items", "killed", "killed_model_only",
                        "memoized_calls", "memoized_pairs", "not_covered", "pruned",
                        "pruned_pairs", "resumed", "score", "seq", "wall_ms",
                        "workers", executor_key});
}

TEST(ServeExecutorContract, PoolSandboxAndDispatchAgreeOnStoreAndEventKeys) {
    // One coblist campaign, three executors, each with a store and a
    // telemetry stream — the shapes `concat campaign --jobs 2`,
    // `--isolate` and `concat dispatch` write.  Stores must agree record
    // for record; each stream must carry exactly its executor's keys.
    const std::string dir = "/tmp/stc_executor_contract_" +
                            std::to_string(::getpid()) + "_";
    const auto path = [&](const std::string& name) { return dir + name; };
    for (const char* name : {"pool", "sandbox", "dispatch"}) {
        std::remove(path(std::string(name) + ".store").c_str());
        std::remove(path(std::string(name) + ".jsonl").c_str());
    }
    BuiltinCampaignConfig config;
    config.component = "coblist";

    // Pool and sandbox first: the sandbox forks, which is best done
    // before the daemon threads below exist.
    const BuiltinTarget* target = find_builtin_target(config.component);
    ASSERT_NE(target, nullptr);
    const BuiltinComponent holder = target->make_component();
    const driver::TestSuite suite =
        holder.component->generate_tests(config.generator);
    const std::vector<mutation::Mutant> mutants = target->mutants();
    const auto run_local = [&](bool isolate, const std::string& name) {
        campaign::CampaignOptions options;
        options.jobs = 2;
        options.seed = config.generator.seed;
        options.isolate = isolate;
        options.store_path = path(name + ".store");
        options.telemetry_path = path(name + ".jsonl");
        return campaign::CampaignScheduler(holder.component->registry(), options)
            .run(suite, mutants);
    };
    const campaign::CampaignResult pool = run_local(false, "pool");
    const campaign::CampaignResult sandbox = run_local(true, "sandbox");

    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;
    EXPECT_EQ(host->fingerprint(), pool.fingerprint);
    campaign::TelemetrySink sink = campaign::TelemetrySink::to_file(path("dispatch.jsonl"));
    DaemonHandle d1(builtin_session_factory());
    DaemonHandle d2(builtin_session_factory());
    DispatchOptions options;
    options.workers = {d1.endpoint(), d2.endpoint()};
    options.hello = make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();
    options.stream_telemetry = true;
    options.telemetry = [&sink](const obs::JsonObject& event) { sink.emit(event); };
    DispatchStats stats;
    const campaign::CampaignResult remote =
        host->dispatch(std::move(options), path("dispatch.store"), &stats);
    EXPECT_EQ(stats.executed, mutants.size());

    for (const campaign::CampaignResult* result : {&pool, &sandbox, &remote}) {
        EXPECT_EQ(result->stats.executed, mutants.size());
        EXPECT_EQ(result->run.killed(), pool.run.killed());
    }
    const auto reference = store_records(path("pool.store"));
    EXPECT_EQ(reference.size(), mutants.size());
    EXPECT_EQ(store_records(path("sandbox.store")), reference);
    EXPECT_EQ(store_records(path("dispatch.store")), reference);

    const KeyTable pool_keys = {
        {"campaign-start", {kStart}},
        {"coverage-index", {kCoverage}},
        {"item-start", {"event item mutant queue seq stolen worker"}},
        {"item-finish", {kFinishPruned}},
        {"kill-reason", {kKillReason}},
        {"campaign-end", {campaign_end("steals")}},
    };
    const KeyTable sandbox_keys = {
        {"campaign-start", {kStart}},
        {"coverage-index", {kCoverage}},
        {"worker-spawn", {"event pid seq worker"}},
        {"item-start", {"event item mutant seq worker"}},
        {"item-finish", {kFinishPruned}},  // + sandbox, when set
        {"worker-exit", {"event pid seq worker"}},
        {"kill-reason", {kKillReason}},
        {"campaign-end", {campaign_end("respawns")}},
    };
    // Dispatch merges only prune totals (no coverage-index, no per-item
    // counters; respawns is always 0), and the streamed worker events
    // share the coordinator's sink.
    const KeyTable dispatch_keys = {
        {"campaign-start", {kStart}},
        {"worker-connect", {"endpoint event fingerprint queued seq worker"}},
        {"worker-session", {"class event fingerprint seq worker"}},
        {"item-start", {"event item mutant seq worker"}},
        {"item-finish",
         {kFinishTotals,
          "event executed_pairs fate hit item memoized_calls memoized_pairs "
          "model_only mutant probe_kill pruned_pairs reason seq wall_ms worker"}},
        {"worker-session-end", {"event items seq worker"}},
        {"metrics-snapshot", {"event metrics seq worker"}},
        {"kill-reason", {kKillReason}},
        {"campaign-end", {campaign_end("respawns")}},
    };
    EXPECT_EQ(telemetry_keys(path("pool.jsonl")), pool_keys);
    EXPECT_EQ(telemetry_keys(path("sandbox.jsonl")), sandbox_keys);
    EXPECT_EQ(telemetry_keys(path("dispatch.jsonl")), dispatch_keys);
    for (const char* name : {"pool", "sandbox", "dispatch"}) {
        std::remove(path(std::string(name) + ".store").c_str());
        std::remove(path(std::string(name) + ".jsonl").c_str());
    }
}

// ------------------------------------------- distributed trace streaming

TEST(ServeDispatch, TwoWorkerSessionsMergeIntoOneCollisionFreeTrace) {
    // The tentpole acceptance shape in miniature: coordinator + two
    // in-process worker sessions, tracing and telemetry streaming
    // negotiated, everything merged into ONE coordinator-side trace.
    BuiltinCampaignConfig config;
    config.component = "sortable";
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;

    DaemonHandle d1(builtin_session_factory());
    DaemonHandle d2(builtin_session_factory());

    const obs::Tracer tracer = obs::Tracer::make();
    std::vector<obs::JsonObject> events;
    DispatchOptions options;
    options.workers = {d1.endpoint(), d2.endpoint()};
    options.hello = make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();
    options.obs.tracer = tracer;
    options.stream_telemetry = true;
    options.telemetry_interval_ms = 0;  // fates only, no periodic snapshots
    options.telemetry = [&](const obs::JsonObject& event) {
        events.push_back(event);
    };

    std::size_t merged = 0;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        host->items(),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(stats.workers_connected, 2u);
    EXPECT_EQ(merged, host->items().size());

    // The campaign-wide trace id was minted from the fingerprint.
    EXPECT_NE(tracer.trace_id(), 0u);

    // The merged trace: every span id unique across coordinator and both
    // worker sessions, and the causal chain closed — each worker
    // work-item span parents on a coordinator item-dispatch span, which
    // parents on the dispatch root.
    const auto all = tracer.events();
    std::map<std::uint64_t, const obs::TraceEvent*> by_id;
    for (const obs::TraceEvent& event : all) {
        EXPECT_EQ(by_id.count(event.span_id), 0u)
            << "duplicate span id " << obs::hex16(event.span_id);
        by_id[event.span_id] = &event;
    }

    std::uint64_t dispatch_root = 0;
    for (const obs::TraceEvent& event : all) {
        if (event.name == "dispatch") dispatch_root = event.span_id;
    }
    ASSERT_NE(dispatch_root, 0u);

    std::size_t item_spans = 0;
    std::size_t work_spans = 0;
    std::set<int> worker_actors;
    for (const obs::TraceEvent& event : all) {
        if (event.name == "item-dispatch") {
            ++item_spans;
            EXPECT_EQ(event.actor, 0);
            EXPECT_EQ(event.parent_id, dispatch_root);
        } else if (event.name == "work-item") {
            ++work_spans;
            worker_actors.insert(event.actor);
            const auto parent = by_id.find(event.parent_id);
            ASSERT_NE(parent, by_id.end())
                << "work-item parent not in the merged trace";
            EXPECT_EQ(parent->second->name, "item-dispatch");
        }
    }
    EXPECT_EQ(item_spans, host->items().size());
    EXPECT_EQ(work_spans, host->items().size());
    // Both worker sessions contributed, with distinct actor ordinals
    // (ordinal + 1), so the merged trace shows three Chrome pids.
    EXPECT_EQ(worker_actors, (std::set<int>{1, 2}));

    // The export is loadable trace JSON and round-trips every event.
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    std::istringstream is(os.str());
    const auto parsed = obs::parse_chrome_trace(is);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->size(), all.size());

    // Streamed telemetry arrived in-process: each item-finish twice (the
    // coordinator merge copy + the worker's streamed copy), plus the
    // session lifecycle events, plus a final forced metrics snapshot per
    // worker even at interval 0.
    std::map<std::string, std::size_t> kinds;
    for (const obs::JsonObject& event : events) {
        kinds[event.get_string("event").value_or("?")]++;
    }
    EXPECT_EQ(kinds["item-finish"], host->items().size());
    EXPECT_EQ(kinds["worker-session"], 2u);
    EXPECT_EQ(kinds["worker-session-end"], 2u);
    EXPECT_EQ(kinds["metrics-snapshot"], 2u);
}

TEST(ServeWorker, PeerOfAnotherVersionGetsAnErrorNamingBothVersions) {
    // The version byte is the one compatibility check: a peer speaking
    // any other version is refused by the decoder, answered with an
    // Error frame naming both versions, and the daemon keeps serving.
    DaemonHandle daemon(toy_factory("toy-fp"), /*once=*/false);
    {
        const Fd conn = connect_to(daemon.endpoint());
        const std::string old_hello = message_of_version(
            1, wire::MessageType::Hello,
            obs::JsonObject().set("component", "toy").to_line());
        ASSERT_TRUE(
            wire::write_exact(conn.get(), old_hello.data(), old_hello.size()));
        const auto reply = wire::read_message(conn.get());
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type, wire::MessageType::Error);
        const auto payload = obs::JsonObject::parse(reply->payload);
        ASSERT_TRUE(payload.has_value());
        const std::string error = payload->get_string("error").value_or("");
        EXPECT_NE(error.find("bad-version"), std::string::npos) << error;
        EXPECT_NE(error.find("peer v1"), std::string::npos) << error;
        EXPECT_NE(error.find("this daemon v" +
                             std::to_string(wire::kProtocolVersion)),
                  std::string::npos)
            << error;
        // The daemon closed that connection after its Error frame.
        EXPECT_FALSE(wire::read_message(conn.get()).has_value());
    }

    // The next coordinator is served as if nothing happened.
    std::size_t merged = 0;
    Coordinator coordinator(toy_dispatch({daemon.endpoint()}));
    const DispatchStats stats = coordinator.run(
        toy_items(6),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(stats.workers_connected, 1u);
    EXPECT_EQ(stats.disconnects, 0u);
    EXPECT_EQ(merged, 6u);
}

TEST(ServeDispatch, PeerAnsweringInAnotherVersionFailsAndTheSurvivorFinishes) {
    // Ordinal 0 answers the Hello in protocol version 1: the
    // coordinator's decoder refuses it, that worker is failed, and the
    // survivor takes every item.
    HandshakeGate gate(2);
    RawWorker old_peer([](int fd) {
        wire::Decoder decoder;
        const auto hello = next_message(fd, decoder);
        if (!hello) return;
        const std::string ack = message_of_version(
            1, wire::MessageType::HelloAck,
            obs::JsonObject().set("ok", true).set("fingerprint", "toy-fp")
                .to_line());
        (void)wire::write_exact(fd, ack.data(), ack.size());
        while (next_message(fd, decoder)) {
        }
    });
    DaemonHandle survivor(gated_factory(gate));

    DispatchOptions options =
        toy_dispatch({old_peer.endpoint(), survivor.endpoint()});
    std::vector<obs::JsonObject> events;
    options.telemetry = [&](const obs::JsonObject& event) {
        gate.observe(event);
        events.push_back(event);
    };
    std::map<std::size_t, std::uint64_t> merged_by;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(10), [&](const campaign::WorkItem& item,
                           const obs::JsonObject& result) {
            merged_by[item.index] = result.get_uint("worker").value_or(9);
        });
    old_peer.join();

    EXPECT_EQ(stats.workers_connected, 1u);
    EXPECT_EQ(stats.disconnects, 1u);
    EXPECT_EQ(stats.executed, 10u);
    ASSERT_EQ(merged_by.size(), 10u);
    for (const auto& [index, worker] : merged_by) {
        EXPECT_EQ(worker, 1u) << "item " << index;
    }
    std::size_t refusals = 0;
    for (const obs::JsonObject& event : events) {
        if (event.get_string("event").value_or("") == "worker-disconnect" &&
            event.get_uint("worker") == std::optional<std::uint64_t>(0)) {
            EXPECT_NE(event.get_string("reason").value_or("").find(
                          "bad-version"),
                      std::string::npos);
            ++refusals;
        }
    }
    EXPECT_EQ(refusals, 1u);
}

TEST(ServeDispatch, StreamedEventsNeedingEscapesArriveFieldForField) {
    // A streamed event travels as its own §5 line inside a Telemetry
    // frame.  Strings that JSON must escape — a quote, a backslash, a
    // newline, non-ASCII — must reach the coordinator's sink equal,
    // field for field, to the daemon's own copy of the event.
    std::vector<campaign::WorkItem> items = toy_items(3);
    items[0].mutant_id = "quote\" backslash\\ newline\n end";
    items[1].mutant_id = "caf\xc3\xa9 \xe2\x82\xac \xe6\xbc\xa2";
    items[2].mutant_id = "tab\t\x01 control";
    for (campaign::WorkItem& item : items) {
        item.key = campaign::item_key("toy-fp", item.mutant_id);
    }

    std::mutex mutex;
    std::vector<obs::JsonObject> daemon_events;
    std::vector<obs::JsonObject> coordinator_events;
    {
        DaemonHandle daemon(toy_factory("toy-fp"), /*once=*/true,
                            [&](const obs::JsonObject& event) {
                                const std::lock_guard<std::mutex> lock(mutex);
                                daemon_events.push_back(event);
                            });
        DispatchOptions options = toy_dispatch({daemon.endpoint()});
        options.stream_telemetry = true;
        options.telemetry_interval_ms = 0;
        options.telemetry = [&](const obs::JsonObject& event) {
            coordinator_events.push_back(event);
        };
        Coordinator coordinator(std::move(options));
        const DispatchStats stats = coordinator.run(
            items, [](const campaign::WorkItem&, const obs::JsonObject&) {});
        EXPECT_EQ(stats.executed, items.size());
    }  // joins the daemon thread

    const std::set<std::string> streamed = {
        "worker-session", "item-finish", "worker-session-end",
        "metrics-snapshot"};
    const auto only_streamed = [&](const std::vector<obs::JsonObject>& all) {
        std::vector<obs::JsonObject> out;
        for (const obs::JsonObject& event : all) {
            if (streamed.count(event.get_string("event").value_or(""))) {
                out.push_back(event);
            }
        }
        return out;
    };
    const std::vector<obs::JsonObject> sent = only_streamed(daemon_events);
    const std::vector<obs::JsonObject> received =
        only_streamed(coordinator_events);
    ASSERT_EQ(received.size(), sent.size());
    std::set<std::string> mutants;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        EXPECT_EQ(received[i].fields(), sent[i].fields())
            << "daemon:      " << sent[i].to_line() << "\n"
            << "coordinator: " << received[i].to_line();
        if (received[i].get_string("event") ==
            std::optional<std::string>("item-finish")) {
            mutants.insert(received[i].get_string("mutant").value_or(""));
        }
    }
    EXPECT_EQ(mutants, (std::set<std::string>{items[0].mutant_id,
                                              items[1].mutant_id,
                                              items[2].mutant_id}));
}

// --- Streamed-span codec ---------------------------------------------------

TEST(SpanCodec, RoundTripsEveryField) {
    obs::TraceEvent event;
    event.name = "CObList::AddHead";
    event.category = "method-call";
    event.ts_us = 123456789;
    event.dur_us = 42;
    event.tid = 3;
    event.actor = 2;
    event.span_id = 0xdeadbeefcafe0001ULL;
    event.parent_id = 0x0123456789abcdefULL;

    std::string line;
    append_span_line(line, event);
    ASSERT_TRUE(is_span_line(line));

    const auto fast = parse_span_line(line);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->name, event.name);
    EXPECT_EQ(fast->category, event.category);
    EXPECT_EQ(fast->ts_us, event.ts_us);
    EXPECT_EQ(fast->dur_us, event.dur_us);
    EXPECT_EQ(fast->tid, event.tid);
    EXPECT_EQ(fast->actor, event.actor);
    EXPECT_EQ(fast->span_id, event.span_id);
    EXPECT_EQ(fast->parent_id, event.parent_id);
    EXPECT_EQ(fast->args.size(), 0u);

    // The canonical line is ordinary JSON: the generic path must agree
    // with the fast path field for field (the fallback contract).
    const auto body = obs::JsonObject::parse(line);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(body->get_string("kind").value_or(""), "span");
    const auto generic = obs::trace_event_from_json(*body);
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->name, fast->name);
    EXPECT_EQ(generic->span_id, fast->span_id);
    EXPECT_EQ(generic->parent_id, fast->parent_id);
}

TEST(SpanCodec, ArgsBearingSpanFallsBackToGenericParse) {
    // An args value is itself a JSON line, so its quotes arrive escaped
    // and the escape-free fast scanner must hand the line to the
    // generic parser — which recovers the args object exactly.
    obs::TraceEvent event;
    event.name = "s3.IndVarRepExt.m_pNodeFree";
    event.category = "mutant-evaluation";
    event.span_id = 0x3ULL;
    event.args.set("case", "s3.t1.c0").set("call", std::uint64_t{7});

    std::string line;
    append_span_line(line, event);
    ASSERT_TRUE(is_span_line(line));
    EXPECT_FALSE(parse_span_line(line).has_value());

    const auto body = obs::JsonObject::parse(line);
    ASSERT_TRUE(body.has_value());
    const auto generic = obs::trace_event_from_json(*body);
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->name, event.name);
    EXPECT_EQ(generic->args.to_line(), event.args.to_line());
}

TEST(SpanCodec, RootSpanOmitsParent) {
    obs::TraceEvent event;
    event.name = "items";
    event.category = "phase";
    event.span_id = 0x1ULL;

    std::string line;
    append_span_line(line, event);
    const auto fast = parse_span_line(line);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->parent_id, 0u);
    EXPECT_EQ(fast->args.size(), 0u);
    EXPECT_EQ(line.find("parent"), std::string::npos);
    EXPECT_EQ(line.find("args"), std::string::npos);
}

TEST(SpanCodec, EscapedNameFallsBackToGenericParse) {
    obs::TraceEvent event;
    event.name = "weird \"quoted\" name\n";
    event.category = "method-call";
    event.span_id = 0x2ULL;

    std::string line;
    append_span_line(line, event);
    // The strict scanner refuses escapes; the generic path must still
    // recover the exact name (the write side escaped it correctly).
    EXPECT_FALSE(parse_span_line(line).has_value());
    const auto body = obs::JsonObject::parse(line);
    ASSERT_TRUE(body.has_value());
    const auto generic = obs::trace_event_from_json(*body);
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->name, event.name);
}

TEST(SpanCodec, RejectsNonCanonicalLines) {
    EXPECT_FALSE(is_span_line(R"({"kind":"event","data":"{}"})"));
    // An event line of the same Telemetry frame is never a span line.
    EXPECT_FALSE(is_span_line(R"({"event":"worker-session","worker":0})"));
    // Same JSON value, different field order: generic-path territory.
    EXPECT_FALSE(is_span_line(
        R"({"name":"x","cat":"phase","kind":"span","ts":0})"));
    EXPECT_FALSE(parse_span_line(R"({"kind":"span","name":"x"})").has_value());
    EXPECT_FALSE(parse_span_line("").has_value());
}

}  // namespace
}  // namespace stc::serve
