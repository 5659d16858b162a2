/**
 * @file
 * Hexfloat encoding, the decimal-integer grammar, and the sticky-failure
 * buffer cursor backing the equivalence-library cache files.
 */

#include "common/serial.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mirage::serial {

std::string
encodeDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::errc
parseInt(std::string_view text, int64_t &out)
{
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, out);
    return end == last ? ec : std::errc::invalid_argument;
}

std::string_view
Cursor::token()
{
    // C-locale isspace, without the locale lookup.
    auto isSpace = [](char c) {
        return c == ' ' || (c >= '\t' && c <= '\r');
    };
    size_t begin = 0;
    while (begin < rest_.size() && isSpace(rest_[begin]))
        ++begin;
    size_t end = begin;
    while (end < rest_.size() && !isSpace(rest_[end]))
        ++end;
    if (!ok_ || begin == end) {
        ok_ = false;
        return {};
    }
    const std::string_view t = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return t;
}

int64_t
Cursor::i64()
{
    int64_t v = 0;
    if (parseInt(token(), v) != std::errc()) {
        ok_ = false;
        return 0;
    }
    return v;
}

double
Cursor::f64()
{
    // from_chars takes a hexfloat without its "0x" and a decimal as is;
    // the sign goes back on afterwards (so -0x0p+0 keeps its sign bit).
    const std::string_view t = token();
    const bool negative = t.starts_with('-');
    const bool hex = t.substr(negative).starts_with("0x");
    const std::string_view digits = hex ? t.substr(negative + 2) : t;
    const char *last = digits.data() + digits.size();
    double v = 0;
    const auto [end, ec] = std::from_chars(
        digits.data(), last, v,
        hex ? std::chars_format::hex : std::chars_format::general);
    // Reject partial parses, a second sign, and non-finite values: an
    // overflowing hexfloat ("0x1p+99999") or a literal "inf"/"nan"
    // token is corruption, not data (no cache field is non-finite).
    if (ec != std::errc() || end != last || (hex && digits.starts_with('-')) ||
        !std::isfinite(v)) {
        ok_ = false;
        return 0;
    }
    return hex && negative ? -v : v;
}

void
Cursor::expect(std::string_view expected)
{
    if (token() != expected)
        ok_ = false;
}

} // namespace mirage::serial
