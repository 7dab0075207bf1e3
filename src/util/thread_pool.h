/**
 * @file
 * A small work-stealing thread pool for the compiler's embarrassingly
 * parallel loops (plan enumeration, candidate-order scoring) and the
 * cluster's replica fan-out.
 *
 * Each worker owns a deque: it pops work from its own back and steals
 * from the fronts of its peers when empty. parallel_for() chunks an
 * index range into tasks, distributes them round-robin, and has the
 * calling thread participate until the batch drains, so a pool of J
 * threads plus the caller yields J+1 runners.
 *
 * Determinism contract: parallel_for(n, fn) invokes fn exactly once
 * for every index in [0, n); callers write results into per-index
 * slots, so any reduction over them is performed serially afterwards
 * and parallel execution is bit-identical to serial execution.
 *
 * Nesting: a task may call parallel_for on its own pool (runs inline)
 * or on another pool (fans out there), so a replica serve running on
 * the cluster's pool still compiles on the compiler's workers. Keep
 * nesting one-way (no task of pool A waits on a pool B whose tasks
 * wait on A), and let tasks block only on nested batches and on locks
 * that no nested task takes.
 */
#ifndef ELK_UTIL_THREAD_POOL_H
#define ELK_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace elk::util {

class ThreadPool {
  public:
    /// Spawns @p threads workers; 0 or 1 makes every parallel_for run
    /// inline on the caller (no threads are created).
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads (0 = inline pool).
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Calls fn(i) exactly once for every i in [0, n), spread across
     * the workers and the calling thread; returns when all calls have
     * finished. The first exception thrown by any fn is rethrown on
     * the caller. A call from inside a task of this same pool runs
     * inline; a call from a task of another pool fans out on this
     * pool's workers (the caller helps with this pool's tasks only).
     */
    void parallel_for(int n, const std::function<void(int)>& fn);

    /**
     * Nullptr-tolerant dispatch: fn(0..n-1) on @p pool when one is
     * provided, inline on the caller otherwise. The single entry
     * point the compiler's parallel passes use, so serial and pooled
     * execution share one contract.
     */
    static void run(ThreadPool* pool, int n,
                    const std::function<void(int)>& fn);

    /// std::thread::hardware_concurrency with a floor of 1.
    static int hardware_jobs();

    /// Maps a --jobs style knob to a thread count: 0 = all hardware
    /// threads, otherwise the value itself (floored at 1).
    static int resolve_jobs(int jobs);

    /**
     * Strictly parses a --jobs style argument (dying via util::fatal
     * on garbage rather than silently defaulting — 0 means "all
     * hardware threads", so a typo must not fall through to it).
     * @p what names the flag/env var in the error message.
     */
    static int parse_jobs_arg(const char* text, const char* what);

  private:
    struct Batch {
        std::atomic<int> remaining{0};
        std::mutex error_mu;
        std::exception_ptr error;
    };
    /// One index-range chunk of a parallel_for batch.
    struct Task {
        const std::function<void(int)>* fn = nullptr;
        int begin = 0;
        int end = 0;
        Batch* batch = nullptr;
    };
    struct WorkerQueue {
        std::mutex mu;
        std::deque<Task> tasks;
    };

    void worker_loop(int id);
    /// Pops from queue @p home's back, else steals from a peer's
    /// front; returns false when every queue is empty.
    bool run_one(int home);
    void run_task(const Task& task);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    /// Batch-completion signal. Pool-level (not per-Batch) so task
    /// finishers never touch a caller's stack Batch after its final
    /// counter decrement — the caller may destroy it immediately.
    std::mutex done_mu_;
    std::condition_variable done_cv_;
    std::atomic<int> pending_{0};
    std::atomic<bool> stop_{false};
};

}  // namespace elk::util

#endif  // ELK_UTIL_THREAD_POOL_H
