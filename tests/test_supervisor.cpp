/**
 * @file
 * Tests for sweep quarantine (sim/supervisor.hh): every throwing job
 * is reported, every healthy result merges in canonical order, each
 * job runs exactly once, and the report bytes do not depend on the
 * shard count.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/supervisor.hh"

namespace mssp
{
namespace
{

std::vector<std::function<int()>>
brokenBatch()
{
    // Jobs 1 and 3 throw std::runtime_error (job 3's message needs
    // JSON escaping) and job 4 something that is not a
    // std::exception at all.
    std::vector<std::function<int()>> work;
    for (size_t i = 0; i < 6; ++i) {
        work.push_back([i]() -> int {
            if (i == 1)
                throw std::runtime_error("job one is broken");
            if (i == 3)
                throw std::runtime_error("job \"three\"\n");
            if (i == 4)
                throw 4;
            return static_cast<int>(i * 10);
        });
    }
    return work;
}

TEST(Quarantine, CollectsEveryFailure)
{
    std::vector<std::string> labels{"a", "b", "c", "d"};
    SupervisedResult<int> sharded =
        runSupervised<int>(4, brokenBatch(), labels);
    SupervisedResult<int> serial =
        runSupervised<int>(1, brokenBatch(), labels);

    for (const SupervisedResult<int> *r : {&sharded, &serial}) {
        EXPECT_EQ(r->healthy, (std::vector<int>{0, 20, 50}));

        // ALL failures surface, not just the lowest-indexed one.
        ASSERT_EQ(r->quarantine.size(), 3u);
        const std::vector<QuarantineEntry> &q = r->quarantine.entries;
        EXPECT_EQ(q[0].jobIndex, 1u);
        EXPECT_EQ(q[0].label, "b");
        EXPECT_EQ(q[0].message, "job one is broken");
        EXPECT_EQ(q[1].label, "d");
        EXPECT_EQ(q[1].message, "job \"three\"\n");
        EXPECT_EQ(q[2].label, "job 4");   // past the label list
        EXPECT_EQ(q[2].message, "unknown exception");
    }

    // The byte-determinism contract: --jobs N == --jobs 1.
    EXPECT_EQ(sharded.quarantine.toJson(), serial.quarantine.toJson());
    EXPECT_EQ(serial.quarantine.toJson(),
              "[{\"index\": 1, \"label\": \"b\", \"status\": "
              "\"job-failed\", \"message\": \"job one is broken\"}, "
              "{\"index\": 3, \"label\": \"d\", \"status\": "
              "\"job-failed\", \"message\": "
              "\"job \\\"three\\\"\\u000a\"}, "
              "{\"index\": 4, \"label\": \"job 4\", \"status\": "
              "\"job-failed\", \"message\": \"unknown exception\"}]");
    EXPECT_NE(serial.quarantine.summary().find(
                  "job-failed: job one is broken"),
              std::string::npos);
}

TEST(Quarantine, EachJobRunsOnceAcrossShardCounts)
{
    constexpr size_t kJobs = 8;
    using Counts = std::array<std::atomic<int>, kJobs>;
    auto sweep = [](unsigned jobs, Counts &runs) {
        std::vector<std::function<int()>> work;
        for (size_t i = 0; i < kJobs; ++i) {
            work.push_back([i, &runs]() -> int {
                runs[i].fetch_add(1);
                if (i == 2)
                    throw std::runtime_error("job two");
                if (i == 5)
                    throw std::runtime_error("job five");
                return static_cast<int>(i * i);
            });
        }
        return runSupervised<int>(jobs, std::move(work));
    };

    Counts runs1{}, runs4{};
    SupervisedResult<int> serial = sweep(1, runs1);
    SupervisedResult<int> sharded = sweep(4, runs4);

    for (size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(runs1[i].load(), 1) << "job " << i;
        EXPECT_EQ(runs4[i].load(), 1) << "job " << i;
    }
    EXPECT_EQ(serial.healthy, (std::vector<int>{0, 1, 9, 16, 36, 49}));
    EXPECT_EQ(sharded.healthy, serial.healthy);
    ASSERT_EQ(serial.quarantine.size(), 2u);
    EXPECT_EQ(serial.quarantine.entries[0].jobIndex, 2u);
    EXPECT_EQ(serial.quarantine.entries[1].jobIndex, 5u);
    EXPECT_EQ(sharded.quarantine.toJson(), serial.quarantine.toJson());
}

} // anonymous namespace
} // namespace mssp
