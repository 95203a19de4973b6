// Work-stealing thread pool for campaign execution.
//
// Deterministic sharding: the task list is dealt round-robin into
// per-worker deques up front, so the *initial* assignment of item i is
// worker (i mod N) regardless of timing.  Workers drain their own deque
// from the front (preserving item order within a shard) and steal from
// the back of a victim's deque when empty — the classic Chase-Lev
// discipline, here with a plain mutex per deque since campaign items
// are milliseconds-to-seconds long and queue operations are not the
// bottleneck.  No task adds another, so a worker that finds every deque
// empty returns at once instead of waiting for the running tasks.
//
// Determinism contract: tasks must not communicate through schedule-
// dependent shared state; each task writes only to its own result slot.
// Under that contract the pool's output is independent of N, stealing,
// and timing — the property the campaign determinism tests pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace stc::campaign {

/// Execution context handed to every task.
struct WorkerContext {
    std::size_t worker = 0;       ///< worker index in [0, workers)
    std::size_t queue_depth = 0;  ///< tasks left in this worker's own deque
    bool stolen = false;          ///< task was stolen from another shard
};

class WorkStealingPool {
public:
    using Task = std::function<void(const WorkerContext&)>;

    /// `workers` == 0 selects the hardware concurrency.
    explicit WorkStealingPool(std::size_t workers);

    [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

    /// Run all tasks to completion; returns the number of successful
    /// steals (0 in every single-worker run).  With one worker the tasks
    /// execute inline on the calling thread, in order — the serial
    /// reference the determinism tests compare against.  A task that
    /// throws terminates (tasks are expected to catch their own
    /// failures and record them as results).
    std::uint64_t run(std::vector<Task> tasks) const;

    /// max(1, std::thread::hardware_concurrency()).
    [[nodiscard]] static std::size_t hardware_workers() noexcept;

private:
    std::size_t workers_;
};

}  // namespace stc::campaign
