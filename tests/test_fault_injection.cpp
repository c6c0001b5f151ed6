/**
 * @file
 * Fault-injection layer tests: every fault type fires and is survived
 * (output equivalence + forward progress + clean architected state),
 * injection is deterministic and capped, and campaigns reproduce
 * byte-identical reports. This is the executable form of the paper's
 * claim that the distilled program is only a performance hint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "helpers.hh"

using namespace mssp;
using namespace mssp::test;

namespace
{

/** Aggressive per-type rates (roughly campaign intensity 10). */
double
testRate(FaultType t)
{
    return std::min(1.0, faultBaseRate(t) * 10.0);
}

struct FaultRun
{
    MsspResult result;
    FaultCounters counters;   ///< the injector's
    MsspCounters mssp;        ///< the machine's
    std::string stats;
};

/** Run the biased-sum workload with one fault plan armed. */
FaultRun
runWithPlan(const PreparedWorkload &w, const FaultPlan &plan,
            uint64_t max_cycles = 20000000ull)
{
    FaultInjector injector(plan.seed, {plan});
    MsspMachine machine(w.orig, w.dist, campaignConfig());
    machine.setFaultInjector(&injector);
    // Sharp invariant: every committed task's live-ins must match
    // architected state (verified from outside the machine).
    machine.setCommitHook([](const Task &t, const ArchState &arch) {
        ASSERT_EQ(arch.countMismatches(t.liveIn), 0u)
            << "commit with unverified live-ins";
    });
    FaultRun out;
    out.result = machine.run(max_cycles);
    out.counters = injector.counters();
    out.mssp = machine.counters();
    std::ostringstream os;
    machine.dumpStats(os);
    out.stats = os.str();
    return out;
}

class FaultInjectionTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = new PreparedWorkload(
            prepare(biasedSumSource(3000, 1), biasedSumSource(3000, 2)));
        SeqMachine seq(workload_->orig);
        seq.run(100000000ull);
        ASSERT_TRUE(seq.halted());
        oracle_outputs_ = new OutputStream(seq.outputs());
        oracle_regs_ = new std::array<uint32_t, NumRegs>(
            seq.state().regs());
    }

    static void
    TearDownTestSuite()
    {
        delete workload_;
        delete oracle_outputs_;
        delete oracle_regs_;
    }

    /** The three campaign invariants. */
    static void
    expectInvariants(const FaultRun &run)
    {
        ASSERT_TRUE(run.result.halted)
            << "no forward progress (cycles=" << run.result.cycles
            << ")";
        EXPECT_EQ(run.result.stopReason, StopReason::Halted);
        EXPECT_EQ(run.result.outputs, *oracle_outputs_);
    }

    static PreparedWorkload *workload_;
    static OutputStream *oracle_outputs_;
    static std::array<uint32_t, NumRegs> *oracle_regs_;
};

PreparedWorkload *FaultInjectionTest::workload_ = nullptr;
OutputStream *FaultInjectionTest::oracle_outputs_ = nullptr;
std::array<uint32_t, NumRegs> *FaultInjectionTest::oracle_regs_ =
    nullptr;

} // anonymous namespace

TEST_F(FaultInjectionTest, EveryTypeFiresAndIsSurvived)
{
    for (FaultType type : allFaultTypes()) {
        SCOPED_TRACE(toString(type));
        FaultPlan plan;
        plan.type = type;
        plan.rate = testRate(type);
        plan.seed = 7;
        FaultRun run = runWithPlan(*workload_, plan);
        expectInvariants(run);
        EXPECT_GT(run.counters.count(type), 0u)
            << "fault type never injected";
    }
}

TEST_F(FaultInjectionTest, SameSeedSameRun)
{
    FaultPlan plan;
    plan.type = FaultType::CheckpointCorrupt;
    plan.rate = 0.3;
    plan.seed = 42;
    FaultRun a = runWithPlan(*workload_, plan);
    FaultRun b = runWithPlan(*workload_, plan);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.outputs, b.result.outputs);
    EXPECT_EQ(a.counters.injected, b.counters.injected);
    EXPECT_EQ(a.mssp, b.mssp);

    plan.seed = 43;
    FaultRun c = runWithPlan(*workload_, plan);
    // Different seed, different injection pattern (cycles may or may
    // not coincide; the counters are the reliable discriminator).
    EXPECT_TRUE(a.counters.injected != c.counters.injected ||
                a.result.cycles != c.result.cycles);
}

TEST_F(FaultInjectionTest, ZeroRateMatchesNoInjector)
{
    MsspMachine clean(workload_->orig, workload_->dist,
                      campaignConfig());
    MsspResult clean_result = clean.run(20000000ull);

    FaultPlan plan;
    plan.type = FaultType::LiveInFlip;
    plan.rate = 0.0;
    FaultRun zero = runWithPlan(*workload_, plan);

    EXPECT_EQ(zero.counters.total(), 0u);
    // A zero-rate injector never draws, so timing is bit-identical
    // to the detached machine.
    EXPECT_EQ(zero.result.cycles, clean_result.cycles);
    EXPECT_EQ(zero.result.outputs, clean_result.outputs);
}

TEST_F(FaultInjectionTest, MaxInjectionsCapsTheCampaign)
{
    FaultPlan plan;
    plan.type = FaultType::SpuriousSquash;
    plan.rate = 1.0;   // every commit attempt...
    plan.maxInjections = 3;   // ...but only thrice
    plan.seed = 5;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_EQ(run.counters.count(FaultType::SpuriousSquash), 3u);
    EXPECT_EQ(run.mssp.tasksSquashedSpurious, 3u);
}

TEST_F(FaultInjectionTest, DroppingEverySpawnStillCompletes)
{
    // The hardest livelock probe: every forked task is lost in
    // transit, so speculation can never commit anything. The watchdog
    // plus backoff escalation must push the machine into sequential
    // mode and the program must still finish, output-identical.
    FaultPlan plan;
    plan.type = FaultType::SpawnDrop;
    plan.rate = 1.0;
    plan.seed = 3;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_GT(run.mssp.watchdogSquashes, 0u);
    EXPECT_GT(run.mssp.seqBackoffEvents, 0u);
    EXPECT_GT(run.mssp.seqModeInsts, 0u);
}

TEST_F(FaultInjectionTest, SlaveTargetRestrictsInjection)
{
    // Kill only slave 0; the others keep executing. The run must
    // still complete (watchdog recovers the killed tasks).
    FaultPlan plan;
    plan.type = FaultType::SlaveKill;
    plan.rate = 0.01;
    plan.target = 0;
    plan.seed = 11;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_GT(run.counters.count(FaultType::SlaveKill), 0u);
}

TEST_F(FaultInjectionTest, StatsContainFaultAndRecoveryRows)
{
    FaultPlan plan;
    plan.type = FaultType::MasterRegFlip;
    plan.rate = 0.01;
    plan.seed = 9;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_NE(run.stats.find("fault.master-reg-flip"),
              std::string::npos);
    EXPECT_NE(run.stats.find("masterDeadRestarts"),
              std::string::npos);
    EXPECT_NE(run.stats.find("watchdogEscalations"),
              std::string::npos);
}

TEST(FaultPlanTest, NamesRoundTrip)
{
    for (FaultType t : allFaultTypes()) {
        EXPECT_EQ(faultTypeFromString(toString(t)), t);
        EXPECT_GT(faultBaseRate(t), 0.0);
    }
    EXPECT_EQ(faultTypeFromString("no-such-fault"), FaultType::None);
    FaultPlan plan;
    plan.type = FaultType::SpawnDelay;
    plan.rate = 0.25;
    EXPECT_FALSE(plan.toString().empty());
}

TEST(FaultCampaignTest, SmokeSweepPassesAndReproduces)
{
    CampaignOptions opts;
    opts.workloads = {"gzip"};
    opts.types = {FaultType::CheckpointCorrupt, FaultType::SpawnDrop,
                  FaultType::SpuriousSquash};
    opts.intensities = {10.0};
    opts.scale = 0.02;
    opts.seed = 12345;
    CampaignReport a = runFaultCampaign(opts);
    EXPECT_EQ(a.runs.size(), 3u);
    EXPECT_EQ(a.failures(), 0u);
    EXPECT_TRUE(a.allTypesFired());
    for (const CampaignRun &r : a.runs) {
        EXPECT_TRUE(r.ok()) << r.workload << " / " << toString(r.type);
        EXPECT_GT(r.injections, 0u);
    }

    CampaignReport b = runFaultCampaign(opts);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_FALSE(a.summary().empty());
}
