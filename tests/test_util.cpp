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

} // anonymous namespace
} // namespace mssp
