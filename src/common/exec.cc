/**
 * @file
 * Thread pool implementation: worker loop over a mutex/condvar FIFO,
 * atomic-counter parallelFor with first-exception propagation, and the
 * null-pool inline fallback.
 */

#include "common/exec.hh"

#include <atomic>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace mirage::exec {

int
defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? int(hw) : 1;
}

int
resolveThreads(int threads)
{
    if (threads < 0 || threads > kMaxThreads)
        throw std::invalid_argument(
            "thread count " + std::to_string(threads) + " is outside 0.." +
            std::to_string(kMaxThreads) + " (0 = all cores)");
    return threads == 0 ? defaultThreads() : threads;
}

ThreadPool::ThreadPool(int threads)
{
    int n = resolveThreads(threads);
    workers_.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MIRAGE_ASSERT(!stopping_, "enqueue on a stopping pool");
        queue_.push_back(std::move(task));
    }
    ready_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace {

/** Shared state of one parallelFor call. */
struct ForContext
{
    std::atomic<int64_t> next{0};
    std::atomic<bool> cancelled{false};
    int drivers_pending = 0;
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable done;
};

} // namespace

void
ThreadPool::parallelFor(int64_t n, const std::function<void(int64_t)> &body)
{
    if (n <= 0)
        return;
    // One "driver" per worker claims indices off a shared counter; the
    // body reference stays valid because this call blocks until every
    // driver has finished.
    auto ctx = std::make_shared<ForContext>();
    int drivers = int(std::min<int64_t>(numThreads(), n));
    ctx->drivers_pending = drivers;

    auto drive = [ctx, n, pbody = &body]() {
        int64_t i;
        while (!ctx->cancelled.load(std::memory_order_relaxed) &&
               (i = ctx->next.fetch_add(1, std::memory_order_relaxed)) < n) {
            try {
                (*pbody)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(ctx->mutex);
                if (!ctx->error)
                    ctx->error = std::current_exception();
                ctx->cancelled.store(true, std::memory_order_relaxed);
            }
        }
        {
            std::lock_guard<std::mutex> lock(ctx->mutex);
            --ctx->drivers_pending;
        }
        ctx->done.notify_one();
    };

    for (int d = 0; d < drivers; ++d)
        enqueue(drive);

    std::unique_lock<std::mutex> lock(ctx->mutex);
    ctx->done.wait(lock, [&] { return ctx->drivers_pending == 0; });
    // Move the exception out of ctx: a worker may drop the last ctx
    // reference after this returns, and the exception object must not
    // be released on that thread while the caller's handler reads it
    // (libstdc++'s exception refcount is invisible to ThreadSanitizer).
    std::exception_ptr error = std::move(ctx->error);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(ThreadPool *pool, int64_t n,
            const std::function<void(int64_t)> &body)
{
    if (pool) {
        pool->parallelFor(n, body);
        return;
    }
    for (int64_t i = 0; i < n; ++i)
        body(i);
}

} // namespace mirage::exec
