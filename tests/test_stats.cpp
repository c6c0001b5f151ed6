/**
 * @file
 * Unit tests for the histogram package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"

namespace mssp::stats
{
namespace
{

TEST(Stats, DistributionBuckets)
{
    Group root("root");
    Distribution d(&root, "size", "task size", 0, 100, 10);
    d.sample(5);      // bucket 0
    d.sample(15);     // bucket 1
    d.sample(15);     // bucket 1
    d.sample(-1);     // underflow
    d.sample(100);    // overflow (hi is exclusive)
    d.sample(99.5);   // bucket 9
    EXPECT_EQ(d.count(), 6u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
    EXPECT_EQ(d.bucketCount(9), 1u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
}

TEST(Stats, GroupDumpContainsDottedPaths)
{
    Group root("machine");
    Distribution d(&root, "taskSize", "task size (insts)", 0, 100, 10);
    d.sample(7);
    d.sample(-3);
    std::ostringstream os;
    root.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("machine.taskSize "), std::string::npos);
    EXPECT_NE(text.find("mean=2.00 n=2"), std::string::npos);
    EXPECT_NE(text.find("machine.taskSize::[0,10)"), std::string::npos);
    EXPECT_NE(text.find("machine.taskSize::underflow"), std::string::npos);
    EXPECT_NE(text.find("# task size (insts)"), std::string::npos);
}

} // anonymous namespace
} // namespace mssp::stats
