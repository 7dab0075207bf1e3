#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/logging.h"
#include "util/parse.h"

namespace elk::util {

namespace {

/// The pool whose task this thread is executing (nullptr outside any
/// task). A parallel_for on that same pool from inside one of its
/// tasks runs inline instead of re-entering the queues (which could
/// otherwise deadlock the batch); a call on any other pool fans out.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads)
{
    int n = std::max(0, threads <= 1 ? 0 : threads);
    queues_.reserve(n);
    for (int i = 0; i < n; ++i) {
        queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(n);
    for (int i = 0; i < n; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    // Flip stop_ under the waiters' mutex: a worker between its
    // predicate check and blocking would otherwise miss the notify
    // forever and the join would hang.
    {
        std::lock_guard<std::mutex> lock(wake_mu_);
        stop_.store(true);
    }
    wake_cv_.notify_all();
    for (auto& w : workers_) {
        w.join();
    }
}

void
ThreadPool::run(ThreadPool* pool, int n, const std::function<void(int)>& fn)
{
    if (pool != nullptr) {
        pool->parallel_for(n, fn);
        return;
    }
    for (int i = 0; i < n; ++i) {
        fn(i);
    }
}

int
ThreadPool::hardware_jobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
ThreadPool::resolve_jobs(int jobs)
{
    if (jobs == 0) {
        return hardware_jobs();
    }
    return std::max(1, jobs);
}

int
ThreadPool::parse_jobs_arg(const char* text, const char* what)
{
    return parse_int_arg(text, what, 0, 4096);
}

void
ThreadPool::run_task(const Task& task)
{
    const ThreadPool* outer = t_current_pool;
    t_current_pool = this;
    try {
        for (int i = task.begin; i < task.end; ++i) {
            (*task.fn)(i);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(task.batch->error_mu);
        if (!task.batch->error) {
            task.batch->error = std::current_exception();
        }
    }
    t_current_pool = outer;
    int prev = task.batch->remaining.fetch_sub(1, std::memory_order_acq_rel);
    if (prev == 1) {
        // Last task of the batch: wake its waiting caller. Only pool
        // members are touched from here on — the Batch lives on the
        // caller's stack and may be destroyed once remaining hits 0.
        { std::lock_guard<std::mutex> lock(done_mu_); }
        done_cv_.notify_all();
    }
}

bool
ThreadPool::run_one(int home)
{
    const int n = static_cast<int>(queues_.size());
    for (int probe = 0; probe < n; ++probe) {
        int victim = (home + probe) % n;
        Task task;
        {
            std::lock_guard<std::mutex> lock(queues_[victim]->mu);
            auto& q = queues_[victim]->tasks;
            if (q.empty()) {
                continue;
            }
            if (probe == 0) {
                task = q.back();  // own queue: LIFO for locality
                q.pop_back();
            } else {
                task = q.front();  // steal the oldest from a peer
                q.pop_front();
            }
        }
        pending_.fetch_sub(1, std::memory_order_acq_rel);
        run_task(task);
        return true;
    }
    return false;
}

void
ThreadPool::worker_loop(int id)
{
    while (true) {
        if (run_one(id)) {
            continue;
        }
        std::unique_lock<std::mutex> lock(wake_mu_);
        wake_cv_.wait(lock, [this] {
            return stop_.load() || pending_.load() > 0;
        });
        if (stop_.load() && pending_.load() == 0) {
            return;
        }
    }
}

void
ThreadPool::parallel_for(int n, const std::function<void(int)>& fn)
{
    if (n <= 0) {
        return;
    }
    if (workers_.empty() || n == 1 || t_current_pool == this) {
        for (int i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }

    // Chunk the range so each runner sees a few tasks to steal; small
    // chunks keep uneven per-index costs balanced.
    const int runners = static_cast<int>(workers_.size()) + 1;
    const int chunks = std::min(n, runners * 4);
    Batch batch;
    batch.remaining.store(chunks, std::memory_order_relaxed);
    {
        int next = 0;
        for (int c = 0; c < chunks; ++c) {
            Task task;
            task.fn = &fn;
            task.begin = next;
            task.end = next + (n - next) / (chunks - c);
            next = task.end;
            task.batch = &batch;
            auto& q = *queues_[c % queues_.size()];
            std::lock_guard<std::mutex> lock(q.mu);
            q.tasks.push_back(task);
        }
    }
    // Raise pending_ under the waiters' mutex so no worker can slip
    // between its predicate check and blocking and miss the wakeup.
    {
        std::lock_guard<std::mutex> lock(wake_mu_);
        pending_.fetch_add(chunks, std::memory_order_acq_rel);
    }
    wake_cv_.notify_all();

    // The caller works too: steal until every queue is empty, then
    // block until the in-flight tail finishes on the workers (instead
    // of spinning through the queue mutexes for the whole tail).
    while (batch.remaining.load(std::memory_order_acquire) > 0) {
        if (run_one(0)) {
            continue;
        }
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait(lock, [&] {
            return batch.remaining.load(std::memory_order_acquire) == 0;
        });
    }
    if (batch.error) {
        std::rethrow_exception(batch.error);
    }
}

}  // namespace elk::util
