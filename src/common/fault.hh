/**
 * @file
 * Deterministic fault injection for chaos testing.
 *
 * Production code marks the places where the outside world can fail --
 * a cache load, a socket write, a numerical fit -- with a named
 * injection point:
 *
 *     if (fault::shouldFail("catalog.load")) { ... degrade ... }
 *     fault::maybeThrow("fit.converge");  // throws fault::Injected
 *
 * Points are inert until a schedule is armed (by `mirage serve
 * --faults`, or fault::arm in a test). When disarmed the
 * check is a single relaxed atomic load, so the hooks cost nothing on
 * the happy path and stay compiled into release builds.
 *
 * A schedule is a comma-separated spec:
 *
 *     seed=42,catalog.load=1/1,serve.read=1/7,queue.admit=#3
 *
 *   - `point=N/D` injects on a pseudo-random N-out-of-D fraction of
 *     calls. The decision for call k is PRF(seed, fnv(point), k), the
 *     same counter-based construction as deriveSeed/StreamRng: a pure
 *     function of (seed, point, per-point call index), independent of
 *     thread interleaving and wall clock, so a chaos run is
 *     bit-reproducible.
 *   - `point=#K` injects exactly on the K-th call (1-based) and never
 *     again -- for pinning one specific failure in a test.
 *
 * Re-arming resets all call counters; disarm() returns the process to
 * the zero-cost state. Per-point call/injection counts are kept for
 * introspection (`stats()`), so harnesses can assert that a schedule
 * actually exercised the kinds it promised.
 */

#ifndef MIRAGE_COMMON_FAULT_HH
#define MIRAGE_COMMON_FAULT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mirage {
namespace fault {

/** Thrown by maybeThrow() when the armed schedule fires. */
class Injected : public std::runtime_error
{
  public:
    explicit Injected(const std::string &point)
        : std::runtime_error("injected fault at '" + point + "'"),
          point_(point)
    {}

    const std::string &point() const { return point_; }

  private:
    std::string point_;
};

/**
 * Arm a fault schedule. Throws std::invalid_argument on a malformed
 * spec (and leaves the previous schedule, if any, in place). Re-arming
 * with a new spec resets every per-point counter.
 */
void arm(const std::string &spec);

/** Return to the zero-cost disarmed state (counters are cleared). */
void disarm();

/** True when a schedule is armed. */
bool armed();

/** The spec currently armed ("" when disarmed). */
std::string spec();

/**
 * Record one call at `point` and decide whether it should fail under
 * the armed schedule. Always false when disarmed (one atomic load).
 */
bool shouldFail(const char *point);

/** shouldFail, but throws fault::Injected instead of returning true. */
void maybeThrow(const char *point);

/** Call/injection counts for one point since the last (re-)arm. */
struct PointStats
{
    std::string point;
    uint64_t calls = 0;
    uint64_t injected = 0;
};

/** Per-point stats, sorted by point name (empty when disarmed). */
std::vector<PointStats> stats();

/** Total injections across all points since the last (re-)arm. */
uint64_t injectedCount();

} // namespace fault
} // namespace mirage

#endif // MIRAGE_COMMON_FAULT_HH
