/**
 * @file
 * Integration tests of the full MSSP machine: equivalence with SEQ
 * across configurations, misspeculation recovery, dual-mode fallback,
 * timing sanity and statistics plumbing.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "helpers.hh"

namespace mssp
{
namespace
{

using test::biasedSumSource;
using test::callLoopSource;
using test::expectEquivalent;
using test::runAndCheck;

TEST(MsspMachine, EquivalentOnBiasedLoop)
{
    MsspConfig cfg;
    auto r = runAndCheck(biasedSumSource(400, 11),
                         biasedSumSource(256, 99), cfg);
    EXPECT_GT(r.committedInsts, 3000u);
}

TEST(MsspMachine, EquivalentWithSingleSlave)
{
    MsspConfig cfg;
    cfg.numSlaves = 1;
    runAndCheck(biasedSumSource(200, 3), biasedSumSource(128, 4), cfg);
}

TEST(MsspMachine, EquivalentWithManySlaves)
{
    MsspConfig cfg;
    cfg.numSlaves = 16;
    cfg.maxInFlightTasks = 32;
    runAndCheck(biasedSumSource(300, 5), biasedSumSource(128, 6), cfg);
}

TEST(MsspMachine, EquivalentWithForkInterval)
{
    for (unsigned k : {2u, 4u, 8u}) {
        MsspConfig cfg;
        cfg.forkInterval = k;
        runAndCheck(biasedSumSource(300, 7), biasedSumSource(128, 8),
                    cfg);
    }
}

TEST(MsspMachine, EquivalentWithHighLatencies)
{
    MsspConfig cfg;
    cfg.forkLatency = 64;
    cfg.commitLatency = 64;
    cfg.squashPenalty = 128;
    cfg.archReadLatency = 16;
    runAndCheck(biasedSumSource(200, 9), biasedSumSource(128, 10),
                cfg);
}

TEST(MsspMachine, EquivalentOnCallLoop)
{
    MsspConfig cfg;
    runAndCheck(callLoopSource(300, 21), callLoopSource(200, 22), cfg);
}

TEST(MsspMachine, CommitsTasksAndMakesProgress)
{
    MsspConfig cfg;
    PreparedWorkload w = prepare(biasedSumSource(400, 31),
                                 biasedSumSource(256, 32));
    MsspMachine machine(w.orig, w.dist, cfg);
    MsspResult r = machine.run(10000000);
    expectEquivalent(w.orig, r);
    const MsspCounters &c = machine.counters();
    EXPECT_GT(c.tasksCommitted, 10u);
    EXPECT_GT(c.masterInsts, 0u);
    EXPECT_GT(c.slaveInsts, 0u);
    // This program has no distillable fat and its rare path fires in
    // training, so the default (never-taken-only) pruning leaves the
    // master path essentially the original length; it must not be
    // meaningfully longer. The strict shorter-path property is
    // covered by Distill.DistilledDynamicPathIsShorter.
    EXPECT_LE(c.masterInsts, r.committedInsts + 100);
}

TEST(MsspMachine, MisspeculationIsRecovered)
{
    // Train on data with *no* rare-path hits, so the distiller prunes
    // the rare branch; ref data hits the rare path, forcing live-in
    // (or wrong-path) squashes which recovery must absorb.
    std::string train = biasedSumSource(256, 201);
    std::string ref = strfmt(
        "    .equ N, 300\n"
        "    li s0, 0\n"
        "    la s2, data\n"
        "    li s3, 0\n"
        "loop:\n"
        "    add t0, s2, s0\n"
        "    lw t1, 0(t0)\n"
        "    add s3, s3, t1\n"
        "    andi t2, t1, 63\n"
        "    bnez t2, skip\n"
        "    addi s3, s3, 100\n"
        "    out s3, 7\n"
        "skip:\n"
        "    addi s0, s0, 1\n"
        "    li t3, 300\n"
        "    blt s0, t3, loop\n"
        "    out s3, 1\n"
        "    halt\n"
        ".org 0x8000\n"
        "data:\n");
    // Every 16th element is a multiple of 64 -> rare path fires.
    for (int i = 0; i < 300; ++i)
        ref += strfmt(".word %d\n", (i % 16 == 15) ? 128 : 3 + i);

    MsspConfig cfg;
    DistillerOptions dopts;
    dopts.biasThreshold = 0.95;
    PreparedWorkload w = prepare(ref, train, dopts);
    // The distiller must actually have pruned something for this test
    // to be meaningful.
    ASSERT_GT(w.dist.report.branchesToJump +
              w.dist.report.branchesToFall, 0u);
    MsspMachine machine(w.orig, w.dist, cfg);
    MsspResult r = machine.run(10000000);
    expectEquivalent(w.orig, r);
    EXPECT_GT(machine.counters().squashEvents, 0u);
    EXPECT_GT(machine.counters().tasksCommitted, 0u);
}

TEST(MsspMachine, StraightLineProgramFallsBackGracefully)
{
    // No loops: fork sites degenerate; whatever the distiller does,
    // output equivalence must hold.
    std::string src =
        "li t0, 1\n"
        "li t1, 2\n"
        "add t2, t0, t1\n"
        "out t2, 0\n"
        "halt\n";
    MsspConfig cfg;
    runAndCheck(src, src, cfg);
}

TEST(MsspMachine, ImmediateHalt)
{
    std::string src = "halt\n";
    MsspConfig cfg;
    auto r = runAndCheck(src, src, cfg);
    EXPECT_EQ(r.committedInsts, 1u);
}

TEST(MsspMachine, GenuineFaultIsReported)
{
    // Jump into unmapped memory: the program itself faults; MSSP must
    // report a fault, not hang or "fix" it.
    std::string src =
        "    li t0, 5\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    j nowhere\n"
        "nowhere:\n";
    PreparedWorkload w = prepare(src, src);
    MsspMachine machine(w.orig, w.dist, MsspConfig{});
    MsspResult r = machine.run(10000000);
    EXPECT_EQ(r.stopReason, StopReason::Faulted);
    EXPECT_FALSE(r.halted);

    SeqMachine seq(w.orig);
    seq.run(1000000);
    EXPECT_TRUE(seq.faulted());
}

TEST(MsspMachine, InstretMatchesSeqExactly)
{
    MsspConfig cfg;
    cfg.numSlaves = 4;
    PreparedWorkload w = prepare(biasedSumSource(350, 41),
                                 biasedSumSource(256, 42));
    MsspMachine machine(w.orig, w.dist, cfg);
    MsspResult r = machine.run(10000000);
    SeqMachine seq(w.orig);
    seq.run(100000000);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.committedInsts, seq.instCount());
}

TEST(MsspMachine, StatsDumpIsWellFormed)
{
    MsspConfig cfg;
    PreparedWorkload w = prepare(biasedSumSource(100, 51),
                                 biasedSumSource(64, 52));
    MsspMachine machine(w.orig, w.dist, cfg);
    machine.run(10000000);
    std::ostringstream os;
    machine.dumpStats(os);
    std::string text = os.str();
    // One row per registry counter, then the histograms.
    forEachCounter(machine.counters(), [&](const char *name, uint64_t v,
                                           const char *desc) {
        EXPECT_NE(text.find(strfmt("mssp.%-28s %12llu  # %s\n", name,
                                   static_cast<unsigned long long>(v),
                                   desc)),
                  std::string::npos) << name;
    });
    EXPECT_NE(text.find("mssp.slaveIdleCycles"), std::string::npos);
    EXPECT_NE(text.find("taskSize"), std::string::npos);
}

TEST(MsspMachine, ResumedRunCountsLikeOneRun)
{
    // run() stops at an absolute cycle; calling it again continues.
    // A run split at a cycle cap must be indistinguishable from one
    // uninterrupted run in every counter, the slave sums included.
    PreparedWorkload w = prepare(biasedSumSource(400, 91),
                                 biasedSumSource(256, 92));
    MsspConfig cfg;
    MsspMachine whole(w.orig, w.dist, cfg);
    MsspResult a = whole.run(10000000);
    ASSERT_TRUE(a.halted);

    MsspMachine split(w.orig, w.dist, cfg);
    MsspResult first = split.run(a.cycles / 2);
    EXPECT_EQ(first.stopReason, StopReason::TimedOut);
    EXPECT_FALSE(first.halted);
    MsspResult b = split.run(10000000);
    ASSERT_TRUE(b.halted);
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(b.outputs, a.outputs);

    EXPECT_GT(whole.counters().slaveIdleCycles, 0u);
    std::vector<uint64_t> got;
    forEachCounter(split.counters(),
                   [&](const char *, uint64_t v, const char *) {
                       got.push_back(v);
                   });
    size_t i = 0;
    forEachCounter(whole.counters(),
                   [&](const char *name, uint64_t want, const char *) {
                       EXPECT_EQ(got.at(i++), want) << name;
                   });
}

TEST(MsspMachine, CommitHookObservesTaskSafety)
{
    // Every committed task must satisfy the formal task-safety check:
    // its live-ins are consistent with pre-commit architected state.
    MsspConfig cfg;
    PreparedWorkload w = prepare(biasedSumSource(200, 61),
                                 biasedSumSource(128, 62));
    MsspMachine machine(w.orig, w.dist, cfg);
    uint64_t checked = 0;
    machine.setCommitHook([&](const Task &t, const ArchState &arch) {
        ++checked;
        EXPECT_EQ(t.liveInMismatches(arch), 0u);
        EXPECT_EQ(t.startPc, arch.pc());
    });
    MsspResult r = machine.run(10000000);
    expectEquivalent(w.orig, r);
    EXPECT_GT(checked, 0u);
}

/** The one instruction word of @p line ("li s1, 7"). */
uint32_t
encode(const std::string &line)
{
    Program p = assemble(line + "\n");
    return p.word(p.entry());
}

/**
 * Prepare @p src with a fork site at label "loop" and no optimizing
 * pass, so the master runs the original code word for word; then
 * rewrite each (from, to) instruction of the distilled code. The
 * master then predicts wrong values exactly where the test says.
 */
PreparedWorkload
prepareMispredicting(
    const std::string &src,
    const std::vector<std::pair<std::string, std::string>> &patches)
{
    Program prog = assemble(src);
    uint32_t loop_pc = 0;
    EXPECT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistillerOptions opts;
    opts.enableBranchPrune = false;
    opts.enableConstFold = false;
    opts.enableDce = false;
    opts.explicitForkSites = {loop_pc};
    PreparedWorkload w = prepare(prog, prog, opts);
    for (const auto &[from, to] : patches) {
        uint32_t want = encode(from);
        unsigned hits = 0;
        for (const auto &[addr, word] : w.dist.prog.image()) {
            if (addr >= DistilledCodeBase && word == want) {
                w.dist.prog.setWord(addr, encode(to));
                ++hits;
            }
        }
        EXPECT_EQ(hits, 1u) << from;
    }
    return w;
}

TEST(MsspMachine, WrongRegisterLiveInSquashes)
{
    // The master predicts s1 = 8 where the program has 7. The first
    // task from "loop" reads s1 from its checkpoint before writing
    // it, so s1 is its only wrong live-in; the restarted master then
    // seeds s1 from architected state and every later task verifies.
    PreparedWorkload w = prepareMispredicting(
        "    li s1, 7\n"
        "    li t0, 4\n"
        "    li s0, 0\n"
        "loop:\n"
        "    add s0, s0, s1\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out s0, 1\n"
        "    halt\n",
        {{"li s1, 7", "li s1, 8"}});
    MsspMachine machine(w.orig, w.dist, MsspConfig{});
    MsspResult r = machine.run(1000000);
    expectEquivalent(w.orig, r);
    const MsspCounters &c = machine.counters();
    EXPECT_EQ(c.tasksSquashedLiveIn, 1u);
    EXPECT_EQ(c.liveInCellsMismatched, 1u);
    EXPECT_EQ(c.squashEvents, 1u);
}

TEST(MsspMachine, FaultedTaskWithWrongRegisterSquashes)
{
    // The master predicts s1 = 1, so the task from "loop" (like the
    // master itself) branches to "bad" and faults. Its live-ins do
    // not verify, so the fault is misspeculation, not the program's:
    // the head squashes and the run halts like SEQ.
    PreparedWorkload w = prepareMispredicting(
        "    li s1, 0\n"
        "    li t0, 4\n"
        "    li s0, 0\n"
        "loop:\n"
        "    bnez s1, bad\n"
        "    add s0, s0, t0\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out s0, 1\n"
        "    halt\n"
        "bad:\n"
        "    j nowhere\n"
        "nowhere:\n",
        {{"li s1, 0", "li s1, 1"}});
    MsspMachine machine(w.orig, w.dist, MsspConfig{});
    MsspResult r = machine.run(1000000);
    EXPECT_EQ(r.stopReason, StopReason::Halted);
    expectEquivalent(w.orig, r);
    EXPECT_EQ(machine.counters().tasksSquashedLiveIn, 1u);
}

TEST(MsspMachine, StopReasonReportsHowTheRunEnded)
{
    PreparedWorkload w = prepare(biasedSumSource(200, 61),
                                 biasedSumSource(128, 62));
    MsspConfig cfg;
    MsspMachine machine(w.orig, w.dist, cfg);
    MsspResult r = machine.run(10000000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.stopReason, StopReason::Halted);
    EXPECT_STREQ(toString(r.stopReason), "halted");

    MsspMachine starved(w.orig, w.dist, cfg);
    MsspResult t = starved.run(10);   // nowhere near enough cycles
    EXPECT_FALSE(t.halted);
    EXPECT_EQ(t.stopReason, StopReason::TimedOut);
}

TEST(MsspMachine, DeadDistilledProgramStillCompletesViaSeq)
{
    // Zero every distilled-code word: the master faults on its first
    // fetch after every engagement (decode(0) is Illegal), forever.
    // The machine must notice the dead master without burning a full
    // watchdog interval per attempt, escalate into sequential
    // backoff, and finish the program output-equivalent to SEQ well
    // within a budget a livelock would blow through.
    PreparedWorkload w = prepare(biasedSumSource(400, 71),
                                 biasedSumSource(256, 72));
    for (const auto &[addr, word] : w.dist.prog.image()) {
        (void)word;
        if (addr >= DistilledCodeBase)
            w.dist.prog.setWord(addr, 0);
    }
    SeqMachine oracle(w.orig);
    oracle.run(100000000ull);
    ASSERT_TRUE(oracle.halted());

    MsspConfig cfg;
    cfg.watchdogCycles = 2000;
    // Budget: sequential execution plus generous recovery slack. A
    // restart/fault livelock would never halt at all.
    uint64_t budget = 20 * oracle.instCount() + 100000;
    MsspMachine machine(w.orig, w.dist, cfg);
    MsspResult r = machine.run(budget);
    ASSERT_TRUE(r.halted) << "livelocked on a dead master";
    EXPECT_EQ(r.outputs, oracle.outputs());
    EXPECT_EQ(r.committedInsts, oracle.instCount());

    const MsspCounters &c = machine.counters();
    EXPECT_GT(c.masterDeadRestarts, 0u);
    EXPECT_GT(c.seqBackoffEvents, 0u);
    EXPECT_GT(c.seqModeInsts, 0u);
}

TEST(MsspMachine, SeqBackoffFullyDecaysAfterRecovery)
{
    // Engage backoff early — drop the machine's first spawns so the
    // watchdog squashes — then run the long clean remainder. Commits
    // must decay the backoff all the way to zero (the old
    // seq_backoff_ /= 2 could never get below seqBackoffInsts once
    // the max(2x, floor) doubling engaged: re-speculation stayed
    // penalized forever after one bad patch).
    PreparedWorkload w = prepare(biasedSumSource(800, 41),
                                 biasedSumSource(512, 42));
    FaultPlan plan;
    plan.type = FaultType::SpawnDrop;
    plan.rate = 1.0;
    plan.maxInjections = 8;   // only the early forks are lost
    plan.seed = 23;
    FaultInjector injector(plan.seed, {plan});

    MsspConfig cfg;
    cfg.maxEngageFailures = 0;   // first squash engages backoff
    cfg.seqBackoffInsts = 64;
    cfg.watchdogCycles = 1500;
    MsspMachine machine(w.orig, w.dist, cfg);
    machine.setFaultInjector(&injector);
    MsspResult r = machine.run(50000000);
    expectEquivalent(w.orig, r);
    const MsspCounters &c = machine.counters();
    ASSERT_GT(c.seqBackoffEvents, 0u);
    EXPECT_GT(c.seqBackoffDecays, 0u);
    EXPECT_GT(c.tasksCommitted, 20u);
    EXPECT_EQ(machine.currentSeqBackoff(), 0u)
        << "backoff pinned above zero after successful recovery";
}

TEST(MsspMachine, WatchdogEscalationBoundsSquashStorms)
{
    // Dead master again, but with the fast-restart path effectively
    // disabled by a spawned-but-undeliverable window: drop every
    // spawn via an injector so the watchdog (not the master-dead
    // path) must do the recovering, and verify the escalation
    // counter advances and the storm ends in sequential mode.
    PreparedWorkload w = prepare(biasedSumSource(400, 81),
                                 biasedSumSource(256, 82));
    FaultPlan plan;
    plan.type = FaultType::SpawnDrop;
    plan.rate = 1.0;
    plan.seed = 17;
    FaultInjector injector(plan.seed, {plan});

    MsspConfig cfg;
    cfg.watchdogCycles = 1500;
    cfg.watchdogEscalateAfter = 2;
    MsspMachine machine(w.orig, w.dist, cfg);
    machine.setFaultInjector(&injector);
    MsspResult r = machine.run(50000000);
    expectEquivalent(w.orig, r);
    const MsspCounters &c = machine.counters();
    EXPECT_GT(c.watchdogSquashes, 2u);
    EXPECT_GT(c.watchdogEscalations, 0u);
    EXPECT_GT(c.seqModeInsts, 0u);
}

} // anonymous namespace
} // namespace mssp
