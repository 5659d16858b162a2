/**
 * @file
 * Logging implementation: message formatting, panic()'s abort, and
 * warn().
 */

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace mirage {

namespace {

void
vreport(const char *label, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", label);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
assertionFailed(const char *cond, const char *file, int line,
                const char *fmt, ...)
{
    char msg[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);
    panic("assertion '%s' failed at %s:%d: %s", cond, file, line, msg);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
warnIf(const std::string &message)
{
    if (!message.empty())
        warn("%s", message.c_str());
}

} // namespace mirage
