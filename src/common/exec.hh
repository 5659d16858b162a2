/**
 * @file
 * Minimal concurrency subsystem: a fixed-size thread pool with a
 * blocking parallelFor.
 *
 * Routing trials (router::routeWithTrials) and concurrent transpile()
 * calls sharing one pool are embarrassingly parallel: every work
 * item derives all of its randomness from a counter-based stream keyed
 * by (seed, itemIndex) (see common/rng.hh), so results are bit-identical
 * regardless of thread count or scheduling order. The pool therefore
 * needs no work stealing and no task dependencies -- just a shared FIFO
 * of closures and a barrier-style parallelFor that propagates the first
 * exception to the caller.
 */

#ifndef MIRAGE_COMMON_EXEC_HH
#define MIRAGE_COMMON_EXEC_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mirage::exec {

/** Hardware concurrency, clamped to at least 1. */
int defaultThreads();

/** Largest thread count a pool accepts. A larger request is a mistake,
 * and granting it could exhaust the process's thread limit. */
inline constexpr int kMaxThreads = 1024;

/**
 * Resolve a user-facing `threads` knob: 0 means defaultThreads(),
 * 1..kMaxThreads is taken literally. Anything else throws
 * std::invalid_argument, so a pool never starts an unbounded number of
 * threads.
 */
int resolveThreads(int threads);

/**
 * Fixed-size thread pool.
 *
 * Workers drain a shared FIFO queue of parallelFor tasks; destruction
 * joins them. Each parallelFor blocks until its tasks finish, so the
 * queue is empty whenever no call is running. The pool is not
 * reentrant: calling parallelFor from inside a pool task deadlocks by
 * design (keep nesting out of the hot path).
 * Distinct non-worker threads may call parallelFor on one pool
 * concurrently: each call has its own claim counter and barrier, and
 * the calls' tasks share the workers in FIFO order. The serve engine
 * relies on this to run concurrent misses against one pool.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (0 = hardware concurrency); throws
     * std::invalid_argument, before any spawn, outside resolveThreads'
     * range. */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int numThreads() const { return int(workers_.size()); }

    /**
     * Run body(i) for every i in [0, n), distributed over the workers
     * via an atomic claim counter. Blocks until all indices finished.
     * If any invocation throws, remaining unclaimed indices are skipped
     * and the first exception (in completion order) is rethrown here.
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)> &body);

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable ready_;
    bool stopping_ = false;
};

/**
 * Convenience dispatcher: run body(i) for i in [0, n) on `pool` when
 * non-null, or inline on the calling thread (in index order) when null.
 * Serial callers pass nullptr and pay zero synchronization cost.
 */
void parallelFor(ThreadPool *pool, int64_t n,
                 const std::function<void(int64_t)> &body);

} // namespace mirage::exec

#endif // MIRAGE_COMMON_EXEC_HH
