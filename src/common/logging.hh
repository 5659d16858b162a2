/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for internal invariant violations (library bugs) and
 * aborts; warn() never stops execution. User-caused conditions are
 * typed exceptions, never an exit from library code.
 */

#ifndef MIRAGE_COMMON_LOGGING_HH
#define MIRAGE_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace mirage {

/** Print an internal-bug error and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning; execution continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** warn() a preformatted message; an empty one prints nothing. */
void warnIf(const std::string &message);

/** Report a failed MIRAGE_ASSERT (condition text, site, message), abort. */
[[noreturn]] void assertionFailed(const char *cond, const char *file,
                                  int line, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * Internal invariant check. Unlike assert() this is active in all build
 * types; use for cheap checks guarding algorithm correctness. The
 * message is a printf format followed by its arguments.
 */
#define MIRAGE_ASSERT(cond, ...)                                           \
    do {                                                                   \
        if (!(cond))                                                       \
            ::mirage::assertionFailed(#cond, __FILE__, __LINE__,           \
                                      __VA_ARGS__);                        \
    } while (0)

} // namespace mirage

#endif // MIRAGE_COMMON_LOGGING_HH
