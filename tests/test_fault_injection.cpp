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
#include <map>
#include <sstream>
#include <string>

#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "helpers.hh"
#include "workloads/workloads.hh"

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
        ASSERT_EQ(t.liveInMismatches(arch), 0u)
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

/** Misses before the next hit of a lone @p t plan, found by drawing
 *  on a copy of the injector (at most @p cap draws). */
uint64_t
missesByDrawing(FaultInjector copy, FaultType t, uint64_t cap = 1u << 20)
{
    uint64_t misses = 0;
    while (misses < cap && !copy.fire(t))
        ++misses;
    return misses;
}

TEST(FaultHorizonTest, MissesBeforeHitMatchesDrawing)
{
    for (FaultType t : {FaultType::MasterRegFlip, FaultType::SlaveStall,
                        FaultType::ImagePatch}) {
        for (uint64_t seed : {1ull, 2ull, 99ull}) {
            SCOPED_TRACE(std::string(toString(t)) + " seed " +
                         std::to_string(seed));
            FaultPlan plan;
            plan.type = t;
            plan.rate = faultBaseRate(t) * 10.0;
            FaultInjector inj(seed, {plan});
            for (int hit = 0; hit < 20; ++hit) {
                uint64_t want = missesByDrawing(inj, t);
                ASSERT_EQ(inj.missesBeforeHit(t), want);
                // Cached answer, stepped miss by stepped miss.
                for (uint64_t i = 0; i < std::min<uint64_t>(want, 3); ++i) {
                    ASSERT_FALSE(inj.fire(t));
                    ASSERT_EQ(inj.missesBeforeHit(t), want - i - 1);
                }
                inj.skip(inj.missesBeforeHit(t));
                ASSERT_EQ(inj.missesBeforeHit(t), 0u);
                ASSERT_TRUE(inj.fire(t));
            }
        }
    }
}

TEST(FaultHorizonTest, ForeignDrawsBeforeTheHitKeepTheCache)
{
    FaultPlan flip;
    flip.type = FaultType::MasterRegFlip;
    flip.rate = 0.01;
    FaultPlan drop;
    drop.type = FaultType::SpawnDrop;
    drop.rate = 0.5;
    FaultInjector inj(3, {flip, drop});
    for (int round = 0; round < 50; ++round) {
        uint64_t misses = inj.missesBeforeHit(FaultType::MasterRegFlip);
        if (misses >= 3) {
            // Two foreign draws land before the hit: two fewer misses.
            inj.pick(7);
            inj.dropSpawn();
            ASSERT_EQ(inj.missesBeforeHit(FaultType::MasterRegFlip),
                      misses - 2);
            ASSERT_EQ(inj.missesBeforeHit(FaultType::MasterRegFlip),
                      missesByDrawing(inj, FaultType::MasterRegFlip));
            inj.skip(misses - 2);
        } else {
            inj.skip(misses);
        }
        // A foreign draw consumes the hit position itself: rescan.
        inj.word();
        ASSERT_EQ(inj.missesBeforeHit(FaultType::MasterRegFlip),
                  missesByDrawing(inj, FaultType::MasterRegFlip));
    }
}

TEST(FaultHorizonTest, ScanCapIsAHorizonThatMisses)
{
    FaultPlan plan;
    plan.type = FaultType::ImagePatch;
    plan.rate = 1e-12;   // never hits within the cap
    FaultInjector inj(8, {plan});
    uint64_t misses = inj.missesBeforeHit(FaultType::ImagePatch);
    EXPECT_EQ(misses, FaultInjector::MaxHitScan);
    inj.skip(misses);
    EXPECT_EQ(inj.missesBeforeHit(FaultType::ImagePatch), 0u);
    EXPECT_FALSE(inj.fire(FaultType::ImagePatch));
    EXPECT_EQ(inj.missesBeforeHit(FaultType::ImagePatch),
              FaultInjector::MaxHitScan);
}

TEST(FaultHorizonTest, CappedPlanDisarmsAfterItsLastHit)
{
    FaultPlan plan;
    plan.type = FaultType::SlaveKill;
    plan.rate = 0.05;
    plan.maxInjections = 3;
    FaultInjector inj(4, {plan});
    for (int hit = 0; hit < 3; ++hit) {
        ASSERT_TRUE(inj.armed(FaultType::SlaveKill));
        uint64_t misses = inj.missesBeforeHit(FaultType::SlaveKill);
        ASSERT_EQ(misses, missesByDrawing(inj, FaultType::SlaveKill));
        inj.skip(misses);
        ASSERT_TRUE(inj.fire(FaultType::SlaveKill));
    }
    EXPECT_FALSE(inj.armed(FaultType::SlaveKill));
    EXPECT_FALSE(inj.fire(FaultType::SlaveKill));
    EXPECT_EQ(inj.counters().count(FaultType::SlaveKill), 3u);
}

/** Draws taken between injector states @p from and @p to (at most
 *  64 looked for): the n at which @p from, skipped n draws, yields
 *  the same next two words as @p to. */
uint64_t
drawsTaken(const FaultInjector &from, const FaultInjector &to)
{
    for (uint64_t n = 0; n < 64; ++n) {
        FaultInjector a = from;
        FaultInjector b = to;
        a.skip(n);
        if (a.word() == b.word() && a.word() == b.word())
            return n;
    }
    return UINT64_MAX;
}

TEST(FaultHorizonTest, ForkDrawBoundHolds)
{
    // Every fork-time plan at rate 1, over checkpoints of 0-3 cells:
    // no fork takes more draws than forkDrawBound().
    std::vector<FaultPlan> plans;
    for (FaultType t : {FaultType::CheckpointCorrupt, FaultType::LiveInFlip,
                        FaultType::SpawnDrop, FaultType::SpawnDelay}) {
        FaultPlan p;
        p.type = t;
        p.rate = 1.0;
        plans.push_back(p);
    }
    FaultInjector inj(6, plans);
    EXPECT_EQ(inj.forkDrawBound(), 10u);
    uint64_t most = 0;
    for (int fork = 0; fork < 400; ++fork) {
        Checkpoint ckpt;
        for (int c = 0; c < fork % 4; ++c)
            ckpt.set(makeRegCell(1 + c), 7);
        FaultInjector before = inj;
        inj.corruptCheckpoint(ckpt);
        inj.dropSpawn();
        inj.spawnDelay();
        most = std::max(most, drawsTaken(before, inj));
    }
    EXPECT_EQ(most, inj.forkDrawBound());
}

TEST(FaultCampaignTest, PrebuiltOraclesMatchBuiltOnes)
{
    // A campaign handed a pre-built oracle for one workload produces
    // the same bytes as one that builds every oracle itself; the
    // workload missing from the table is built by the warm phase.
    CampaignOptions opts;
    opts.workloads = {"gzip", "mcf"};
    opts.types = {FaultType::LiveInFlip, FaultType::MasterRegFlip};
    opts.intensities = {10.0};
    opts.scale = 0.02;
    opts.seed = 777;
    opts.jobs = 2;
    CampaignReport built = runFaultCampaign(opts);

    std::map<std::string, SeqOracle> oracles;
    oracles.emplace("gzip",
                    makeSeqOracle(workloadByName("gzip", opts.scale)));
    CampaignReport handed = runFaultCampaign(opts, nullptr,
                                             std::move(oracles));

    EXPECT_EQ(handed.toJson(), built.toJson());
    EXPECT_EQ(handed.epochStatsJson(), built.epochStatsJson());
    ASSERT_EQ(handed.runs.size(), 4u);
    EXPECT_EQ(handed.quarantined(), 0u);
    EXPECT_EQ(handed.runs[0].workload, "gzip");
    EXPECT_EQ(handed.runs[3].workload, "mcf");
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

    // The per-cell epoch statistics are deterministic too.
    EXPECT_EQ(a.epochStatsJson(), b.epochStatsJson());
    EXPECT_NE(a.epochStatsJson().find("\"mssp-epochstats-v1\""),
              std::string::npos);
    for (const CampaignRun &r : a.runs) {
        EXPECT_EQ(r.intensity, 10.0);
        EXPECT_GT(r.epochs.epochs, 0u);
        EXPECT_LE(r.epochs.batchedCycles, r.cycles);
    }
}
