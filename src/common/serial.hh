/**
 * @file
 * Exact-round-trip serialization helpers for the persistent caches.
 *
 * Fitted decompositions are expensive to recompute, so the equivalence
 * library persists them across processes (saveCache/loadCache). The
 * warm-started library must reproduce *bit-identical* output, which
 * rules out decimal floating-point formatting: doubles are written as
 * C99 hexfloats ("%a"), which std::from_chars recovers exactly.
 *
 * A cache file is read into one buffer and parsed in place by a Cursor.
 * Tokens are split on C-locale whitespace (so CRLF and a missing final
 * newline read the same), and each number must be its whole token: an
 * integer is "[-]digits" within int64; a double is a hexfloat
 * "[-]0x<hex>[.<hex>][p<exp>]" or a decimal, finite and not underflowing
 * to 0. No '+', no NUL byte. Failure is sticky, so truncated/corrupt
 * files fail loudly instead of loading garbage.
 */

#ifndef MIRAGE_COMMON_SERIAL_HH
#define MIRAGE_COMMON_SERIAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace mirage::serial {

/** Format a double as a C99 hexfloat; Cursor::f64 parses it back exactly. */
std::string encodeDouble(double v);

/**
 * All of `text` as a "[-]digits" int64, the one integer grammar of cache
 * files and command-line options: errc{}, invalid_argument, or
 * result_out_of_range.
 */
std::errc parseInt(std::string_view text, int64_t &out);

/**
 * Whitespace-delimited token cursor over a buffer with sticky failure:
 * after the first failed read every subsequent call reports failure
 * too, so parsers can batch reads and check ok() once.
 */
class Cursor
{
  public:
    explicit Cursor(std::string_view text) : rest_(text) {}

    bool ok() const { return ok_; }

    /** Next token, or "" on failure. */
    std::string_view token();

    /** Next token parsed as the requested type (failure is sticky). */
    int64_t i64();
    double f64();

    /** Fail unless the next token equals `expected` exactly. */
    void expect(std::string_view expected);

  private:
    std::string_view rest_;
    bool ok_ = true;
};

} // namespace mirage::serial

#endif // MIRAGE_COMMON_SERIAL_HH
