/**
 * @file
 * Lockstep oracle for the epoch rule (DESIGN.md §8): MsspMachine::run()
 * advances every core in one slice between cross-core events, and must
 * be cycle-identical to runCycleStepped(), the one-cycle-at-a-time
 * reference semantics. Each input runs on both paths and the test
 * compares the result (cycles, stop reason, outputs, per-site stats),
 * every MSSP_COUNTERS field, the dumpStats text and the commit-hook
 * sequence of (task id, cycle).
 *
 * Inputs: the 12 analogues under the default and the campaign
 * configuration, every fault type at intensities 1 and 10, mixed
 * fault plans, the configuration sweep's timing corners, a split
 * run(k) + run(max), and random programs, every third one under a
 * per-cycle fault plan. The random-program count scales with
 * MSSP_FUZZ_ITERS (default 25); CI runs 500, nightly 5000:
 *
 *   MSSP_FUZZ_ITERS=500 ./test_machine_epochs
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "helpers.hh"
#include "profile/profiler.hh"
#include "workloads/micro.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

unsigned
fuzzIters()
{
    const char *env = std::getenv("MSSP_FUZZ_ITERS");
    if (env && *env) {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 25;
}

/** Everything observable about one run. */
struct Trace
{
    MsspResult result;
    MsspCounters counters;
    std::string stats;
    std::vector<std::pair<uint64_t, Cycle>> commits;
    EpochStats epochs;
};

/**
 * Run @p w on a fresh machine, batched or stepped. Each element of
 * @p legs is one run() call's cycle limit (several = a split run).
 * @p plans (seeded from the first) arm a fault injector.
 */
Trace
runOnce(const PreparedWorkload &w, const MsspConfig &cfg, bool stepped,
        const std::vector<uint64_t> &legs,
        const std::vector<FaultPlan> &plans = {})
{
    MsspMachine machine(w.orig, w.dist, cfg);
    std::unique_ptr<FaultInjector> injector;
    if (!plans.empty()) {
        injector = std::make_unique<FaultInjector>(plans.front().seed,
                                                   plans);
        machine.setFaultInjector(injector.get());
    }
    Trace t;
    machine.setCommitHook([&t, &machine](const Task &task,
                                         const ArchState &) {
        t.commits.emplace_back(task.id, machine.now());
    });
    for (uint64_t limit : legs) {
        t.result = stepped ? machine.runCycleStepped(limit)
                           : machine.run(limit);
    }
    t.counters = machine.counters();
    std::ostringstream os;
    machine.dumpStats(os);
    t.stats = os.str();
    t.epochs = machine.epochStats();
    return t;
}

void
expectSameSites(const std::map<uint32_t, ForkSiteStat> &a,
                const std::map<uint32_t, ForkSiteStat> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.forked, ib->second.forked);
        EXPECT_EQ(ia->second.committed, ib->second.committed);
        EXPECT_EQ(ia->second.squashedLiveIn, ib->second.squashedLiveIn);
        EXPECT_EQ(ia->second.squashedWrongPc, ib->second.squashedWrongPc);
        EXPECT_EQ(ia->second.squashedOther, ib->second.squashedOther);
    }
}

void
expectSame(const Trace &batched, const Trace &stepped)
{
    const MsspResult &a = batched.result;
    const MsspResult &b = stepped.result;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stopReason, b.stopReason);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.outputs, b.outputs);
    expectSameSites(a.siteStats, b.siteStats);
    forEachCounter(batched.counters, [&](const char *name, uint64_t v,
                                         const char *) {
        uint64_t want = 0;
        forEachCounter(stepped.counters,
                       [&](const char *n, uint64_t w, const char *) {
                           if (std::string(n) == name)
                               want = w;
                       });
        EXPECT_EQ(v, want) << "counter " << name;
    });
    EXPECT_EQ(batched.stats, stepped.stats);
    EXPECT_EQ(batched.commits, stepped.commits);
    // The stepped reference never batches.
    EXPECT_EQ(stepped.epochs.epochs, 0u);
}

/** Compare both paths on one input; returns the batched trace. */
Trace
lockstep(const PreparedWorkload &w, const MsspConfig &cfg,
         const std::vector<uint64_t> &legs,
         const std::vector<FaultPlan> &plans = {})
{
    Trace batched = runOnce(w, cfg, false, legs, plans);
    Trace stepped = runOnce(w, cfg, true, legs, plans);
    expectSame(batched, stepped);
    return batched;
}

constexpr uint64_t MaxCycles = 200000000ull;

const std::vector<PreparedWorkload> &
analogues()
{
    static const std::vector<PreparedWorkload> prepared = [] {
        std::vector<PreparedWorkload> v;
        for (const Workload &wl : specAnalogues(0.05))
            v.push_back(prepare(wl.refSource, wl.trainSource));
        return v;
    }();
    return prepared;
}

TEST(MachineEpochs, AnaloguesDefaultConfig)
{
    setQuiet(true);
    uint64_t batched = 0;
    uint64_t cycles = 0;
    for (const PreparedWorkload &w : analogues()) {
        Trace t = lockstep(w, MsspConfig{}, {MaxCycles});
        EXPECT_TRUE(t.result.halted);
        batched += t.epochs.batchedCycles;
        cycles += t.result.cycles;
    }
    // Non-vacuity: the fast path really carries the run.
    EXPECT_GT(batched * 2, cycles);
}

TEST(MachineEpochs, AnaloguesTinyWindow)
{
    // The master stalls on the full window while slaves catch up and
    // pause at fork sites: end conditions then arrive mid-epoch.
    setQuiet(true);
    MsspConfig cfg;
    cfg.maxInFlightTasks = 2;
    for (const PreparedWorkload &w : analogues())
        EXPECT_TRUE(lockstep(w, cfg, {MaxCycles}).result.halted);
}

TEST(MachineEpochs, AnaloguesCampaignConfig)
{
    setQuiet(true);
    for (const PreparedWorkload &w : analogues())
        EXPECT_TRUE(lockstep(w, campaignConfig(), {MaxCycles}).result.halted);
}

/** A campaign plan: @p type at @p intensity times its base rate. */
FaultPlan
campaignPlan(FaultType type, double intensity, uint64_t seed = 1)
{
    FaultPlan plan;
    plan.type = type;
    plan.rate = std::min(1.0, faultBaseRate(type) * intensity);
    plan.seed = seed;
    return plan;
}

/** Lockstep @p plans on analogue @p w under the campaign config and
 *  cycle budget. */
Trace
campaignLockstep(const PreparedWorkload &w,
                 const std::vector<FaultPlan> &plans)
{
    SeqMachine seq(w.orig);
    EXPECT_TRUE(seq.run(MaxCycles).halted);
    return lockstep(w, campaignConfig(),
                    {campaignBudget(CampaignOptions{}, seq.instCount())},
                    plans);
}

TEST(MachineEpochs, EveryFaultTypeAtIntensityOneAndTen)
{
    setQuiet(true);
    const std::vector<PreparedWorkload> &all = analogues();
    size_t pick = 0;
    for (FaultType type : allFaultTypes()) {
        for (double intensity : {1.0, 10.0}) {
            for (uint64_t seed : {11u, 12u}) {
                SCOPED_TRACE(std::string(toString(type)) + " x" +
                             std::to_string(intensity) + " seed " +
                             std::to_string(seed));
                campaignLockstep(all[pick++ % all.size()],
                                 {campaignPlan(type, intensity, seed)});
            }
        }
    }
}

TEST(MachineEpochs, MixedFaultPlans)
{
    setQuiet(true);
    const std::vector<PreparedWorkload> &all = analogues();
    // Spawn drops fork-time draws between a slave plan's cached hit
    // and the stream (BM_MsspMachine/faults); checkpoint corruption
    // does the same to a master plan; a master and a slave plan
    // together interleave per cycle and fall back.
    const std::vector<std::vector<FaultType>> mixes = {
        {FaultType::SpawnDrop, FaultType::SlaveStall},
        {FaultType::MasterRegFlip, FaultType::CheckpointCorrupt},
        {FaultType::MasterRegFlip, FaultType::SlaveKill},
    };
    size_t pick = 0;
    for (const std::vector<FaultType> &mix : mixes) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            std::vector<FaultPlan> plans;
            std::string name;
            for (FaultType t : mix) {
                plans.push_back(campaignPlan(t, 10.0, seed));
                name += std::string(toString(t)) + "+";
            }
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            Trace t = campaignLockstep(all[pick++ % all.size()], plans);
            if (mix.back() == FaultType::SlaveKill) {
                EXPECT_GT(t.epochs.fallback(EpochFallback::FaultDraws),
                          0u);
            }
        }
    }
    // A slave plan on one slave beside the heaviest fork draws: each
    // fork takes up to ten draws, so only the fork-draw bound keeps a
    // hit off a head task run ahead of the master's fork.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        std::vector<FaultPlan> plans;
        for (FaultType t : {FaultType::CheckpointCorrupt,
                            FaultType::LiveInFlip, FaultType::SpawnDelay,
                            FaultType::SpawnDrop}) {
            plans.push_back(campaignPlan(t, 10.0, seed));
            plans.back().rate = 0.5;
        }
        plans.push_back(campaignPlan(seed % 2 ? FaultType::SlaveStall
                                              : FaultType::SlaveKill,
                                     20.0, seed));
        plans.back().target = static_cast<int>(seed % 3);
        SCOPED_TRACE("fork draws + targeted slave plan, seed " +
                     std::to_string(seed));
        campaignLockstep(all[pick++ % all.size()], plans);
    }
}

TEST(MachineEpochs, LoneMasterPlanBatches)
{
    // Non-vacuity of the draw horizon: a master-reg-flip cell at
    // intensity 10 skips its misses instead of stepping them.
    setQuiet(true);
    uint64_t batched = 0;
    uint64_t cycles = 0;
    for (const PreparedWorkload &w : analogues()) {
        Trace t = campaignLockstep(
            w, {campaignPlan(FaultType::MasterRegFlip, 10.0)});
        batched += t.epochs.batchedCycles;
        cycles += t.result.cycles;
    }
    EXPECT_GE(batched * 2, cycles);
}

TEST(MachineEpochs, MasterSliceStopsInFrontOfEvents)
{
    // runToEvent must leave the master exactly as before the event
    // instruction: re-executing a JALR that links into its own
    // target register would otherwise jump somewhere else.
    auto check = [](const char *src, uint32_t ra, MasterStep event) {
        Program prog = assemble(src);
        DistilledProgram dist =
            distill(prog, profileProgram(prog, 1000), DistillerOptions{});
        ArchState arch;
        arch.loadProgram(prog);
        arch.writeReg(reg::Ra, ra);
        MasterCore master(dist, arch);
        ASSERT_TRUE(master.restart(prog.entry()));
        MasterCore::ForkInfo fork;
        // The machine's step runs the spawning FORKs.
        for (;;) {
            EXPECT_LT(master.runToEvent(100), 100u);
            if (!master.atFork())
                break;
            master.step(&fork);
        }
        EXPECT_TRUE(master.running());
        EXPECT_EQ(master.readReg(reg::Ra), ra);
        EXPECT_EQ(master.step(&fork), event);
    };
    // 0x7777: original code with no distilled counterpart.
    check("    addi t0, t0, 1\n"
          "    jalr ra, ra, 0\n"
          "    halt\n",
          0x7777, MasterStep::Faulted);
    check("    addi t0, t0, 1\n"
          "    out t0, 1\n"
          "    halt\n",
          0, MasterStep::Halted);
}

TEST(MachineEpochs, MasterFaultsPastTheirCap)
{
    // A capped master-fault plan disarms after its last injection and
    // leaves a corrupted master or image behind: epochs then run a
    // master that hits illegal words, untranslatable JALRs and the
    // runaway kill-switch.
    setQuiet(true);
    const std::vector<PreparedWorkload> &all = analogues();
    for (FaultType type : {FaultType::MasterRegFlip,
                           FaultType::MasterPcCorrupt,
                           FaultType::ImagePatch}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            FaultPlan plan;
            plan.type = type;
            plan.rate = 0.01;
            plan.seed = seed;
            plan.maxInjections = seed * 3;
            SCOPED_TRACE(std::string(toString(type)) + " seed " +
                         std::to_string(seed));
            lockstep(all[seed % all.size()], campaignConfig(), {MaxCycles},
                     {plan});
        }
    }
}

/** The configuration sweep's timing corners (test_config_sweep),
 *  plus a master runaway cap small enough to trip routinely. */
std::vector<std::pair<const char *, MsspConfig>>
sweepConfigs()
{
    std::vector<std::pair<const char *, MsspConfig>> pts;
    MsspConfig c;
    c.numSlaves = 1;
    c.maxInFlightTasks = 2;
    pts.emplace_back("one_slave_tiny_window", c);
    c = {};
    c.forkLatency = 0;
    c.commitLatency = 0;
    c.squashPenalty = 0;
    c.archReadLatency = 0;
    pts.emplace_back("zero_latency", c);
    c = {};
    c.forkLatency = 200;
    c.commitLatency = 150;
    c.squashPenalty = 500;
    c.archReadLatency = 40;
    pts.emplace_back("huge_latency", c);
    c = {};
    c.masterIpc = 4.0;
    c.slaveIpc = 0.5;
    pts.emplace_back("fast_master_slow_slaves", c);
    c = {};
    c.maxTaskInsts = 64;
    c.watchdogCycles = 2000;
    pts.emplace_back("tiny_runaway_cap", c);
    c = {};
    c.forkInterval = 7;
    pts.emplace_back("fork_interval_7", c);
    c = {};
    c.maxEngageFailures = 0;
    c.seqBackoffInsts = 16;
    pts.emplace_back("hair_trigger_backoff", c);
    c = {};
    c.masterRunawayInsts = 40;
    c.forkLatency = 200;   // the kill trips while a task is in transit
    pts.emplace_back("tiny_master_runaway", c);
    return pts;
}

TEST(MachineEpochs, ConfigSweepCorners)
{
    setQuiet(true);
    PreparedWorkload sum = prepare(test::biasedSumSource(250, 71),
                                   test::biasedSumSource(150, 72),
                                   DistillerOptions::paperPreset());
    Workload q = microQsort(80);
    PreparedWorkload qsort = prepare(q.refSource, q.trainSource,
                                     DistillerOptions::paperPreset());
    for (const auto &[name, cfg] : sweepConfigs()) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(lockstep(sum, cfg, {MaxCycles}).result.halted);
        EXPECT_TRUE(lockstep(qsort, cfg, {MaxCycles}).result.halted);
    }
}

TEST(MachineEpochs, SplitRunMatchesOneShot)
{
    setQuiet(true);
    const PreparedWorkload &w = analogues().front();
    Trace whole = runOnce(w, MsspConfig{}, true, {MaxCycles});
    for (uint64_t k : {1ull, 977ull, 4099ull}) {
        SCOPED_TRACE(k);
        Trace split = lockstep(w, MsspConfig{}, {k, MaxCycles});
        expectSame(split, whole);
    }
}

TEST(MachineEpochs, RandomPrograms)
{
    setQuiet(true);
    unsigned iters = fuzzIters();
    for (unsigned i = 0; i < iters; ++i) {
        uint64_t seed = 7000 + i;
        RandomProgramOptions opts;
        opts.allowMmio = i % 4 == 3;
        std::string src = randomProgramSource(seed, opts);
        std::string train = randomProgramSource(seed, opts);
        PreparedWorkload w = prepare(src, train);
        SCOPED_TRACE(seed);
        MsspConfig cfg = i % 2 ? campaignConfig() : MsspConfig{};
        if (i % 5 == 4)
            cfg.maxInFlightTasks = 2;   // window-full stalls
        std::vector<FaultPlan> plans;
        if (i % 3 == 2) {
            // Rotate the five per-cycle plans, at intensity 10.
            static const FaultType per_cycle[] = {
                FaultType::MasterRegFlip, FaultType::MasterPcCorrupt,
                FaultType::ImagePatch, FaultType::SlaveStall,
                FaultType::SlaveKill};
            plans.push_back(campaignPlan(per_cycle[(i / 3) % 5], 10.0,
                                         seed));
        }
        lockstep(w, cfg, {2000000ull}, plans);
    }
}

TEST(MachineEpochs, EveryFallbackReasonFires)
{
    setQuiet(true);
    PreparedWorkload w = prepare(test::biasedSumSource(250, 71),
                                 test::biasedSumSource(150, 72),
                                 DistillerOptions::paperPreset());
    EpochStats total;
    auto add = [&total](const Trace &t) {
        for (size_t i = 0; i < NumEpochFallbacks; ++i)
            total.fallbacks[i] += t.epochs.fallbacks[i];
    };
    // Ipc (fast_master_slow_slaves), Undelivered (one slave, so
    // spawned tasks queue) and OpenHead (every config).
    for (const auto &[name, cfg] : sweepConfigs()) {
        SCOPED_TRACE(name);
        add(lockstep(w, cfg, {MaxCycles}));
    }
    // FaultDraws: a master and a slave plan draw on the same cycles.
    add(lockstep(w, campaignConfig(), {MaxCycles},
                 {campaignPlan(FaultType::MasterRegFlip, 10.0),
                  campaignPlan(FaultType::SlaveKill, 10.0)}));
    EXPECT_GT(total.fallback(EpochFallback::Ipc), 0u);
    EXPECT_GT(total.fallback(EpochFallback::FaultDraws), 0u);
    EXPECT_GT(total.fallback(EpochFallback::Undelivered), 0u);
    EXPECT_GT(total.fallback(EpochFallback::OpenHead), 0u);
}

} // anonymous namespace
} // namespace mssp
