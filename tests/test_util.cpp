/**
 * @file
 * Unit tests for util helpers (bitfield, strings) and the sim kernel
 * (logging, RNG).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "util/bitfield.hh"
#include "util/string_utils.hh"

namespace mssp
{
namespace
{

TEST(Bitfield, BitsExtract)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 0), 0xbeefu);
    EXPECT_EQ(bits(0xff, 3, 0), 0xfu);
    EXPECT_EQ(bits(0xffffffff, 31, 0), 0xffffffffu);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 15, 0, 0xbeef), 0xbeefu);
    EXPECT_EQ(insertBits(0xffffffff, 15, 8, 0), 0xffff00ffu);
    EXPECT_EQ(insertBits(0, 31, 26, 0x3f), 0xfc000000u);
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(sext(0xffff, 16), -1);
    EXPECT_EQ(sext(0x8000, 16), -32768);
    EXPECT_EQ(sext(0x7fff, 16), 32767);
    EXPECT_EQ(sext(0x1fffff, 21), -1);
    EXPECT_EQ(sext(5, 16), 5);
}

TEST(Bitfield, Fits)
{
    EXPECT_TRUE(fitsSigned(32767, 16));
    EXPECT_FALSE(fitsSigned(32768, 16));
    EXPECT_TRUE(fitsSigned(-32768, 16));
    EXPECT_FALSE(fitsSigned(-32769, 16));
    EXPECT_TRUE(fitsUnsigned(65535, 16));
    EXPECT_FALSE(fitsUnsigned(65536, 16));
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("a"), "a");
}

TEST(StringUtils, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StringUtils, SplitWs)
{
    auto parts = splitWs("  add   t0,  t1 ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "add");
    EXPECT_EQ(parts[1], "t0,");
    EXPECT_EQ(parts[2], "t1");
}

TEST(StringUtils, ParseInt)
{
    int64_t v;
    EXPECT_TRUE(parseInt("123", v));
    EXPECT_EQ(v, 123);
    EXPECT_TRUE(parseInt("-5", v));
    EXPECT_EQ(v, -5);
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(parseInt("0b101", v));
    EXPECT_EQ(v, 5);
    EXPECT_TRUE(parseInt("'A'", v));
    EXPECT_EQ(v, 65);
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("abc", v));
    EXPECT_FALSE(parseInt("12x", v));
    EXPECT_FALSE(parseInt("0x", v));
}

TEST(StringUtils, ParseNumberUnsigned)
{
    EXPECT_EQ(parseNumber<unsigned>("8", 1, 1024), 8u);
    EXPECT_EQ(parseNumber<unsigned>("1024", 1, 1024), 1024u);
    EXPECT_EQ(parseNumber<uint64_t>("18446744073709551615", 0, UINT64_MAX),
              UINT64_MAX);
    // Empty, junk, a suffix, a sign or spaces.
    for (const char *bad : {"", "abc", "12x", "0x10", " 5", "5 ", "+5",
                            "-1", "-5", "1.5"}) {
        EXPECT_FALSE(parseNumber<uint64_t>(bad, 0, UINT64_MAX)) << bad;
    }
    // Overflow of the type, and values outside the range.
    EXPECT_FALSE(parseNumber<uint64_t>("18446744073709551616", 0,
                                       UINT64_MAX));
    EXPECT_FALSE(parseNumber<unsigned>("4294967296", 0, UINT32_MAX));
    EXPECT_FALSE(parseNumber<unsigned>("0", 1, 1024));
    EXPECT_FALSE(parseNumber<unsigned>("1025", 1, 1024));
}

TEST(StringUtils, ParseNumberReal)
{
    EXPECT_EQ(parseNumber<double>("0.05", 1e-3, 1e3), 0.05);
    EXPECT_EQ(parseNumber<double>("1e1", 0, 1e6), 10.0);
    EXPECT_EQ(parseNumber<double>("0", 0, 1), 0.0);
    for (const char *bad : {"", "abc", "1.0x", " 1", "nan", "inf",
                            "-0.5", "1e400"}) {
        EXPECT_FALSE(parseNumber<double>(bad, 0, 1e6)) << bad;
    }
    EXPECT_FALSE(parseNumber<double>("0", 1e-3, 1e3));
}

TEST(StringUtils, FlagNumberExitsTwoNamingTheFlag)
{
    EXPECT_EQ(flagNumber<unsigned>("tool", "--slaves", "4", 1, 1024), 4u);
    EXPECT_EXIT(flagNumber<unsigned>("tool", "--slaves", "-1", 1, 1024),
                testing::ExitedWithCode(2),
                "tool: bad value '-1' for --slaves \\(expected a "
                "number in \\[1, 1024\\]\\)");
    EXPECT_EXIT(flagNumber<double>("tool", "--scale", "abc", 1e-3, 1e3),
                testing::ExitedWithCode(2), "--scale");
}

TEST(StringUtils, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain text"), "plain text");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\u000ab");
    EXPECT_EQ(jsonEscape("a\x01" "b"), "a\\u0001b");
    EXPECT_EQ(jsonEscape("\t\r\x1f"), "\\u0009\\u000d\\u001f");
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Logging, StrFmt)
{
    EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(strfmt("%08x", 0xbeef), "0000beef");
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad thing %d", 7), FatalError);
    try {
        fatal("bad thing %d", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad thing 7");
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.range(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SkipEqualsDrawing)
{
    for (uint64_t n : {0ull, 1ull, 7ull, 1000000ull}) {
        SCOPED_TRACE(n);
        Rng drawn(42), skipped(42);
        for (uint64_t i = 0; i < n; ++i)
            drawn.next();
        skipped.skip(n);
        EXPECT_EQ(skipped.position(), drawn.position());
        EXPECT_EQ(Rng::drawsBetween(Rng(42).position(), drawn.position()),
                  n);
        EXPECT_EQ(skipped.next(), drawn.next());
    }
}

TEST(Rng, PeekDoesNotConsume)
{
    Rng rng(5);
    uint64_t third = rng.peek(3);
    uint64_t first = rng.peek(1);
    EXPECT_EQ(rng.next(), first);
    rng.next();
    EXPECT_EQ(rng.next(), third);
}

} // anonymous namespace
} // namespace mssp
