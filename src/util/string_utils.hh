/**
 * @file
 * Small string helpers used by the assembler, the table printers, the
 * JSON reports and the command-line tools.
 */

#ifndef MSSP_UTIL_STRING_UTILS_HH
#define MSSP_UTIL_STRING_UTILS_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mssp
{

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string_view> split(std::string_view s, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string_view> splitWs(std::string_view s);

/** Case-sensitive prefix test. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/**
 * Parse an integer literal: decimal, 0x-hex, 0b-binary, optional
 * leading '-', or a single-quoted character ('a').
 *
 * @param s   text to parse (must be fully consumed)
 * @param out receives the value on success
 * @retval true on success
 */
bool parseInt(std::string_view s, int64_t &out);

/** Left-pad @p s with spaces to width @p w. */
std::string padLeft(const std::string &s, size_t w);

/** Right-pad @p s with spaces to width @p w. */
std::string padRight(const std::string &s, size_t w);

/** Escape @p s for a JSON string body, as every report does: a
 *  backslash before quotes and backslashes, a six-character unicode
 *  escape (\u000a) for any other control byte. */
std::string jsonEscape(std::string_view s);

/**
 * Parse all of @p s as a number in [@p lo, @p hi]: decimal digits for
 * an unsigned T (no sign, no spaces), a decimal or exponent literal
 * for a floating-point T. Empty text, junk, a trailing suffix, a
 * value out of range or one that overflows T give nullopt.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view s, T lo, T hi)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    T value{};
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size())
        return std::nullopt;
    // Written so that a NaN fails it.
    if (!(value >= lo && value <= hi))
        return std::nullopt;
    return value;
}

/** Report a bad numeric flag value on stderr and exit 2 (the usage
 *  exit of the execution tools). */
[[noreturn]] void badFlagValue(std::string_view tool, std::string_view flag,
                               std::string_view text, std::string_view lo,
                               std::string_view hi);

/**
 * The value of numeric command-line flag @p flag of @p tool:
 * parseNumber(@p text, @p lo, @p hi), or, when that fails, a message
 * naming the flag and the range on stderr and exit status 2.
 */
template <typename T>
T
flagNumber(std::string_view tool, std::string_view flag,
           std::string_view text, T lo, T hi)
{
    if (std::optional<T> v = parseNumber<T>(text, lo, hi))
        return *v;
    char lo_text[32], hi_text[32];
    char *lo_end = std::to_chars(lo_text, lo_text + sizeof lo_text, lo).ptr;
    char *hi_end = std::to_chars(hi_text, hi_text + sizeof hi_text, hi).ptr;
    badFlagValue(tool, flag, text,
                 std::string_view(lo_text, lo_end - lo_text),
                 std::string_view(hi_text, hi_end - hi_text));
}

} // namespace mssp

#endif // MSSP_UTIL_STRING_UTILS_HH
