#include "stc/campaign/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

namespace stc::campaign {

namespace {

/// One worker's shard: a mutex-guarded deque.  The owner pops from the
/// front, thieves take from the back, so an owner and a thief contend
/// only when a single task remains.
struct Shard {
    std::mutex mutex;
    std::deque<std::size_t> tasks;  // indices into the shared task vector

    bool pop_front(std::size_t& out, std::size_t& depth_after) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty()) return false;
        out = tasks.front();
        tasks.pop_front();
        depth_after = tasks.size();
        return true;
    }

    bool steal_back(std::size_t& out) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty()) return false;
        out = tasks.back();
        tasks.pop_back();
        return true;
    }
};

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t workers)
    : workers_(workers == 0 ? hardware_workers() : workers) {}

std::size_t WorkStealingPool::hardware_workers() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t WorkStealingPool::run(std::vector<Task> tasks) const {
    if (tasks.empty()) return 0;

    if (workers_ == 1) {
        WorkerContext context;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            context.queue_depth = tasks.size() - i - 1;
            tasks[i](context);
        }
        return 0;
    }

    const std::size_t n = std::min(workers_, tasks.size());
    std::vector<Shard> shards(n);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        shards[i % n].tasks.push_back(i);  // deterministic round-robin deal
    }

    std::atomic<std::uint64_t> steals{0};

    auto worker_loop = [&](std::size_t me) {
        WorkerContext context;
        context.worker = me;
        while (true) {
            std::size_t task_index = 0;
            std::size_t depth = 0;
            bool found = shards[me].pop_front(task_index, depth);
            bool stolen = false;
            if (!found) {
                for (std::size_t k = 1; k < n && !found; ++k) {
                    found = shards[(me + k) % n].steal_back(task_index);
                }
                stolen = found;
                depth = 0;
            }
            // Every task was dealt before any worker started and no task
            // adds another, so shards only shrink: once this worker found
            // them all empty, no work is left for it.  The tasks still
            // running elsewhere end before run() joins their threads.
            if (!found) return;
            if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
            context.queue_depth = depth;
            context.stolen = stolen;
            tasks[task_index](context);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (std::size_t w = 1; w < n; ++w) threads.emplace_back(worker_loop, w);
    worker_loop(0);
    for (auto& t : threads) t.join();

    return steals.load(std::memory_order_relaxed);
}

}  // namespace stc::campaign
