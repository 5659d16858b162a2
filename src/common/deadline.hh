/**
 * @file
 * Cooperative per-request deadlines.
 *
 * A Deadline is a cheap copyable token -- an optional steady-clock
 * expiry -- threaded through long-running work (the routing trial
 * grid, the lowering fit loops). The work calls check() at its natural
 * iteration boundaries -- a stall step, a block translation, a fit
 * round -- and the call throws DeadlineError once the budget is
 * exhausted. The default-constructed token is inactive: check() is a
 * single flag test, so unconditional call sites cost nothing for
 * requests without a deadline.
 *
 * Expiry is cooperative on purpose: work is only ever abandoned at
 * boundaries where no shared state is half-mutated, so a timed-out
 * request unwinds cleanly (exec::parallelFor rethrows the first
 * DeadlineError and skips unclaimed indices) and the server thread
 * that ran it stays healthy.
 *
 * Determinism note: a deadline never alters the content of a result --
 * work either completes (bit-identical to an undeadlined run, since
 * the token feeds no randomness) or errors. This is why serve excludes
 * deadlines from its result-cache key.
 */

#ifndef MIRAGE_COMMON_DEADLINE_HH
#define MIRAGE_COMMON_DEADLINE_HH

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

namespace mirage {

/** Thrown by Deadline::check() when the budget is exhausted. */
class DeadlineError : public std::runtime_error
{
  public:
    explicit DeadlineError(const char *where)
        : std::runtime_error(std::string("deadline exceeded at ") + where)
    {}
};

class Deadline
{
  public:
    /** Inactive token: active() is false, check() never throws. */
    Deadline() = default;

    /** A token that expires `ms` milliseconds from now. */
    static Deadline
    afterMs(double ms)
    {
        Deadline d;
        d.expiry_ = Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
        return d;
    }

    bool active() const { return expiry_.has_value(); }

    bool expired() const { return expiry_ && Clock::now() >= *expiry_; }

    /**
     * Throw DeadlineError when expired; `where` names the checkpoint
     * for the diagnostic. No-op on an inactive token.
     */
    void
    check(const char *where) const
    {
        if (expired())
            throw DeadlineError(where);
    }

  private:
    using Clock = std::chrono::steady_clock;

    std::optional<Clock::time_point> expiry_;
};

} // namespace mirage

#endif // MIRAGE_COMMON_DEADLINE_HH
