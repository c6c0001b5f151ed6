/**
 * @file
 * Host-parallel execution tests (sim/parallel.hh): runSharded runs
 * every job exactly once and returns results in canonical order,
 * exceptions propagate deterministically (lowest job index wins,
 * after every job has run), and the repo's flagship determinism
 * contract holds in-process — a sharded fault campaign's JSON report
 * is byte-identical to the serial one. The TSan build
 * (MSSP_SANITIZE=thread) runs this test for data races.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

using namespace mssp;

namespace
{

TEST(Parallel, DefaultJobsAtLeastOne)
{
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Parallel, SerialJobCountsRunInOrder)
{
    // jobs 0 and 1 both run on the calling thread, in index order.
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned jobs : {0u, 1u}) {
        std::vector<size_t> order;
        std::vector<std::function<size_t()>> work;
        for (size_t i = 0; i < 16; ++i) {
            work.push_back([&order, caller, i] {
                EXPECT_EQ(std::this_thread::get_id(), caller);
                order.push_back(i);
                return i * i;
            });
        }
        std::vector<size_t> got = runSharded<size_t>(jobs, std::move(work));
        ASSERT_EQ(got.size(), 16u) << "jobs " << jobs;
        ASSERT_EQ(order.size(), 16u) << "jobs " << jobs;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(order[i], i) << "jobs " << jobs;
            EXPECT_EQ(got[i], i * i) << "jobs " << jobs;
        }
    }
}

TEST(Parallel, ClaimOrderSchedulesButKeepsJobIndices)
{
    // A claim order changes only which job runs when: on one thread
    // the jobs run exactly in that order, and every error stays at
    // its job's index.
    const std::vector<size_t> claim = {3, 0, 4, 1, 2};
    std::vector<size_t> ran;
    std::vector<std::exception_ptr> errors = forEachIndex(
        1, claim.size(),
        [&ran](size_t i) {
            ran.push_back(i);
            if (i == 4)
                throw std::runtime_error("four");
        },
        claim);
    EXPECT_EQ(ran, claim);
    ASSERT_EQ(errors.size(), claim.size());
    for (size_t i = 0; i < errors.size(); ++i)
        EXPECT_EQ(errors[i] != nullptr, i == 4) << i;
}

TEST(Parallel, ManyMoreJobsThanThreads)
{
    // 1000 jobs on 4 threads: every index is claimed exactly once
    // (the shared counter loses or duplicates nothing) and results
    // land in canonical slots.
    const size_t n = 1000;
    std::vector<std::atomic<int>> runs(n);
    std::vector<std::function<uint64_t()>> work;
    work.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        work.push_back([&runs, i] {
            runs[i].fetch_add(1);
            return Rng::mix(42, i);
        });
    }

    std::vector<uint64_t> got = runSharded<uint64_t>(4, std::move(work));
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "job " << i;
        EXPECT_EQ(got[i], Rng::mix(42, i)) << "slot " << i;
    }
}

TEST(Parallel, JobsActuallyRunConcurrently)
{
    // Eight jobs rendezvous at a barrier: this only completes if
    // eight jobs really are in flight at once (a serial or lossy
    // fan-out would time out at the wait below, not deadlock).
    const unsigned n = 8;
    std::mutex m;
    std::condition_variable cv;
    unsigned arrived = 0;
    bool all_arrived = false;

    std::vector<std::function<bool()>> work;
    for (unsigned i = 0; i < n; ++i) {
        work.push_back([&] {
            std::unique_lock<std::mutex> lock(m);
            if (++arrived == n) {
                all_arrived = true;
                cv.notify_all();
            } else {
                cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return all_arrived; });
            }
            return all_arrived;
        });
    }
    std::vector<bool> met = runSharded<bool>(n, std::move(work));
    EXPECT_EQ(arrived, n);
    EXPECT_EQ(met, std::vector<bool>(n, true));
}

TEST(Parallel, LowestIndexExceptionWins)
{
    // Sharded, job 2 throws only after job 9 has thrown (or after a
    // timeout). The rethrown exception is always job 2's, serial or
    // sharded, and every job runs before it is rethrown.
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<bool> nine_thrown{false};
        std::atomic<int> ran{0};
        std::vector<std::function<int()>> work;
        for (int i = 0; i < 12; ++i) {
            work.push_back([i, jobs, &nine_thrown, &ran]() -> int {
                ++ran;
                if (i == 9) {
                    nine_thrown = true;
                    throw std::runtime_error("job 9");
                }
                if (i == 2) {
                    for (int spin = 0;
                         jobs > 1 && spin < 2000 && !nine_thrown; ++spin)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    throw std::runtime_error("job 2");
                }
                return i;
            });
        }
        try {
            runSharded<int>(jobs, std::move(work));
            ADD_FAILURE() << "jobs " << jobs << ": no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 2") << "jobs " << jobs;
        }
        EXPECT_EQ(ran.load(), 12) << "jobs " << jobs;
    }
}

TEST(Parallel, ShardedMatchesSerial)
{
    auto sweep = [](unsigned jobs) {
        std::vector<std::function<uint64_t()>> work;
        for (size_t i = 0; i < 100; ++i) {
            work.push_back([i] {
                uint64_t h = Rng::mix(7, i);
                for (int k = 0; k < 50; ++k)
                    h = Rng::mix(h, k);
                return h;
            });
        }
        return runSharded<uint64_t>(jobs, std::move(work));
    };
    EXPECT_EQ(sweep(1), sweep(8));
}

// The flagship contract, in-process: a sharded fault campaign's JSON
// report is byte-identical to the serial one (what CI checks with
// `mssp-faultcamp --jobs N` / `--jobs 1` at full scale).
TEST(Parallel, FaultCampaignShardedByteIdentical)
{
    CampaignOptions opts;
    opts.workloads = {"gzip", "mcf"};
    opts.scale = 0.05;
    opts.seed = 12345;
    opts.intensities = {1.0, 10.0};

    opts.jobs = 1;
    std::string serial = runFaultCampaign(opts).toJson();

    opts.jobs = 8;
    std::string sharded = runFaultCampaign(opts).toJson();

    EXPECT_EQ(serial, sharded);
}

} // anonymous namespace
