/**
 * @file
 * Tests for the job supervision runtime (sim/supervisor.hh): budget
 * trips on every execution tier, state-clean cancellation and resume,
 * exact instruction caps, deterministic retry backoff, quarantine
 * collection, and host-chaos determinism (fault/hostchaos.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "exec/seq_machine.hh"
#include "fault/hostchaos.hh"
#include "helpers.hh"
#include "mssp/machine.hh"
#include "sim/supervisor.hh"

namespace mssp
{
namespace
{

/** A program that never halts (budget trips must stop it). */
const char *kSpinSource =
    "    li s0, 0\n"
    "loop:\n"
    "    addi s0, s0, 1\n"
    "    j loop\n";

constexpr BackendKind kTiers[] = {BackendKind::Ref,
                                  BackendKind::BlockJit};

TEST(Supervision, DeadlineTripsMidRunOnEveryTier)
{
    Program prog = assemble(kSpinSource);
    for (BackendKind tier : kTiers) {
        SeqMachine machine(prog);
        machine.setBackend(tier);
        JobBudget budget;
        budget.timeoutMs = 30;
        Supervision sup(budget);
        SupervisionScope scope(&sup);
        try {
            machine.run(1ull << 40);
            FAIL() << "deadline never tripped on tier "
                   << static_cast<int>(tier);
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::DeadlineExceeded);
        }
        // The trip is between slices: the machine made progress but
        // is architecturally consistent (neither halted nor faulted).
        EXPECT_GT(sup.executed(), 0u);
        EXPECT_FALSE(machine.halted());
        EXPECT_FALSE(machine.faulted());
    }
}

TEST(Supervision, InstCapIsExactAndMachineResumes)
{
    std::string src = test::biasedSumSource(1000, 5);
    Program prog = assemble(src);

    // Unsupervised truth.
    SeqMachine truth(prog);
    SeqRunResult full = truth.run(100000000ull);
    ASSERT_TRUE(full.halted);
    ASSERT_GT(full.instCount, 1000u);

    // Capped run trips with exactly the budgeted instructions done
    // (the slice loop clamps to instsRemaining — never overshoots).
    SeqMachine machine(prog);
    JobBudget budget;
    budget.maxInsts = 1000;
    Supervision sup(budget);
    {
        SupervisionScope scope(&sup);
        EXPECT_THROW(machine.run(1ull << 40), StatusError);
    }
    EXPECT_EQ(sup.status().code(), StatusCode::InstLimitExceeded);
    EXPECT_EQ(sup.executed(), 1000u);
    EXPECT_FALSE(machine.halted());

    // The trip left the machine state-clean: resuming (unsupervised)
    // completes with identical architectural results.
    SeqRunResult rest = machine.run(100000000ull);
    EXPECT_TRUE(rest.halted);
    EXPECT_EQ(1000u + rest.instCount, full.instCount);
    EXPECT_EQ(machine.outputs(), truth.outputs());
    EXPECT_EQ(machine.state().regs(), truth.state().regs());
}

TEST(Supervision, PreCancelledTokenStopsBeforeAnyWork)
{
    Program prog = assemble(test::biasedSumSource(64, 7));
    SeqMachine machine(prog);
    CancelToken token;
    token.cancel();
    Supervision sup(JobBudget{}, &token);
    {
        SupervisionScope scope(&sup);
        try {
            machine.run(100000000ull);
            FAIL() << "cancel never observed";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::Cancelled);
        }
    }
    EXPECT_EQ(sup.executed(), 0u);

    // reset() re-arms the token; a fresh supervision completes.
    token.reset();
    Supervision sup2(JobBudget{}, &token);
    SupervisionScope scope(&sup2);
    SeqRunResult r = machine.run(100000000ull);
    EXPECT_TRUE(r.halted);
}

TEST(Supervision, MsspMachineBudgetTripsAndResumes)
{
    PreparedWorkload w =
        prepare(test::biasedSumSource(2000, 3),
                test::biasedSumSource(2000, 4));
    SeqMachine oracle(w.orig);
    ASSERT_TRUE(oracle.run(100000000ull).halted);

    MsspMachine machine(w.orig, w.dist, MsspConfig{});
    JobBudget budget;
    budget.maxInsts = 2000;
    Supervision sup(budget);
    {
        SupervisionScope scope(&sup);
        try {
            machine.run(200000000ull);
            FAIL() << "inst cap never tripped";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(),
                      StatusCode::InstLimitExceeded);
        }
    }
    EXPECT_GT(sup.executed(), 2000u - 1);

    // Trips land between machine cycles: the run resumes and still
    // produces SEQ-equivalent results.
    MsspResult r = machine.run(200000000ull);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(machine.outputs(), oracle.outputs());
    EXPECT_EQ(machine.arch().instret(), oracle.instCount());
}

TEST(Supervision, RetryDelayIsDeterministicAndBounded)
{
    RetryPolicy policy;
    policy.backoffBaseUs = 500;
    policy.backoffMaxUs = 50000;
    for (unsigned attempt = 2; attempt <= 9; ++attempt) {
        uint64_t a = retryDelayUs(policy, 42, 3, attempt);
        uint64_t b = retryDelayUs(policy, 42, 3, attempt);
        EXPECT_EQ(a, b) << "jitter must be a pure function";
        uint64_t base = std::min<uint64_t>(
            policy.backoffMaxUs, policy.backoffBaseUs
                                     << std::min(attempt - 2, 20u));
        EXPECT_GE(a, base / 2);
        EXPECT_LT(a, base);
    }
    // Different (seed, job, attempt) keys draw different streams
    // (equality would mean the key is being ignored).
    EXPECT_NE(retryDelayUs(policy, 42, 3, 4),
              retryDelayUs(policy, 43, 3, 4));
}

std::vector<std::function<int(const JobContext &)>>
flakyBatch()
{
    // Job 1 always throws a plain exception; job 3 always throws a
    // structured one; job 2 fails only on its first attempt.
    std::vector<std::function<int(const JobContext &)>> work;
    for (size_t i = 0; i < 5; ++i) {
        work.push_back([i](const JobContext &ctx) -> int {
            if (i == 1)
                throw std::runtime_error("job one is broken");
            if (i == 3) {
                throw StatusError(Status(StatusCode::JobFailed,
                                         "job three is broken"));
            }
            if (i == 2 && ctx.attempt == 1)
                throw std::runtime_error("transient");
            return static_cast<int>(i * 10);
        });
    }
    return work;
}

TEST(Supervision, QuarantineCollectsEveryFailure)
{
    SupervisorOptions opts;
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseUs = 1;   // keep the test fast
    opts.retry.backoffMaxUs = 2;
    std::vector<std::string> labels{"a", "b", "c", "d", "e"};

    SupervisedResult<int> sharded =
        runSupervised<int>(4, flakyBatch(), opts, labels);
    SupervisedResult<int> serial =
        runSupervised<int>(1, flakyBatch(), opts, labels);

    for (const SupervisedResult<int> *r : {&sharded, &serial}) {
        ASSERT_EQ(r->outcomes.size(), 5u);
        EXPECT_EQ(*r->outcomes[0].value, 0);
        EXPECT_FALSE(r->outcomes[1].ok());
        EXPECT_TRUE(r->outcomes[2].ok());   // recovered on retry
        EXPECT_EQ(r->outcomes[2].attempts, 2u);
        EXPECT_FALSE(r->outcomes[3].ok());
        EXPECT_EQ(*r->outcomes[4].value, 40);

        // ALL failures surface, not just the lowest-indexed one.
        ASSERT_EQ(r->quarantine.size(), 2u);
        EXPECT_EQ(r->quarantine.entries[0].label, "b");
        EXPECT_EQ(r->quarantine.entries[0].attempts, 2u);
        EXPECT_EQ(r->quarantine.entries[0].status.code(),
                  StatusCode::JobFailed);
        EXPECT_EQ(r->quarantine.entries[1].label, "d");
    }

    // The byte-determinism contract: --jobs N == --jobs 1.
    EXPECT_EQ(sharded.quarantine.toJson(), serial.quarantine.toJson());
}

TEST(Supervision, RethrowFirstFailureCompatMode)
{
    SupervisorOptions opts;
    opts.retry.backoffBaseUs = 1;
    opts.retry.backoffMaxUs = 2;
    opts.rethrowFirstFailure = true;
    try {
        runSupervised<int>(4, flakyBatch(), opts);
        FAIL() << "compat mode must rethrow";
    } catch (const StatusError &e) {
        // The lowest-indexed failure (job 1), like the historical
        // ThreadPool::run contract.
        EXPECT_NE(std::string(e.what()).find("job one"),
                  std::string::npos);
    }
}

TEST(HostChaos, DeterministicAcrossShardCounts)
{
    HostChaosPlan plan = HostChaosPlan::preset(9);
    SupervisorOptions opts;
    opts.retry.maxAttempts = 1;   // every injected failure quarantines
    opts.seed = 9;

    auto batch = [] {
        std::vector<std::function<int(const JobContext &)>> work;
        for (size_t i = 0; i < 24; ++i) {
            work.push_back([](const JobContext &ctx) -> int {
                // Poll once so injected cancellations are observed.
                ctx.supervision->checkOrThrow();
                return 1;
            });
        }
        return work;
    };

    HostChaos chaos4(plan), chaos1(plan);
    opts.chaos = &chaos4;
    SupervisedResult<int> sharded = runSupervised<int>(4, batch(), opts);
    opts.chaos = &chaos1;
    SupervisedResult<int> serial = runSupervised<int>(1, batch(), opts);

    // Injection draws key on (seed, job, attempt) only, so sharding
    // cannot change who gets hit or why.
    EXPECT_EQ(sharded.quarantine.toJson(), serial.quarantine.toJson());
    EXPECT_EQ(chaos4.throws(), chaos1.throws());
    EXPECT_EQ(chaos4.cancels(), chaos1.cancels());
    // The preset rates over 24 jobs make a zero-injection run
    // astronomically unlikely — and the draw is deterministic.
    EXPECT_GT(chaos4.throws() + chaos4.cancels(), 0u);

    // Retries redraw: with three strikes most victims recover.
    opts.retry.maxAttempts = 3;
    opts.retry.backoffBaseUs = 1;
    opts.retry.backoffMaxUs = 2;
    HostChaos chaosRetry(plan);
    opts.chaos = &chaosRetry;
    SupervisedResult<int> retried = runSupervised<int>(4, batch(), opts);
    EXPECT_LE(retried.quarantine.size(), serial.quarantine.size());
}

} // anonymous namespace
} // namespace mssp
