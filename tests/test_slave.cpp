/**
 * @file
 * Unit tests for SlaveCore and TaskContext: live-in recording
 * priority, checkpoint consumption, the task register file, fork-site pauses, end-visit
 * counting, runaway caps, output buffering and timing stalls.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "asm/assembler.hh"
#include "exec/decode_cache.hh"
#include "mssp/slave.hh"

namespace mssp
{
namespace
{

struct SlaveFixture : public ::testing::Test
{
    ArchState arch;
    MsspConfig cfg;
    std::vector<uint32_t> fork_sites;

    void
    loadSource(const std::string &src)
    {
        prog = assemble(src);
        arch.loadProgram(prog);
    }

    /** Build a slave over the loaded program; the fork-site set and
     *  decode cache it references live in the fixture (deques keep
     *  earlier slaves' references valid). */
    SlaveCore
    makeSlave(ArchState &a, const MsspConfig &c)
    {
        sites_.emplace_back(fork_sites);
        decodes_.emplace_back(prog);
        return SlaveCore(0, a, c, sites_.back(), decodes_.back());
    }

    Task
    makeTask(uint32_t start_pc)
    {
        Task t;
        t.startPc = start_pc;
        return t;
    }

    /** Tick @p slave until the task is done or @p max ticks. */
    void
    runSlave(SlaveCore &slave, Task &task, unsigned max = 100000)
    {
        slave.assign(&task);
        for (unsigned i = 0; i < max && !task.done(); ++i)
            slave.tick();
    }

    Program prog;
    std::deque<ForkSiteSet> sites_;
    std::deque<DecodeCache> decodes_;
};

TEST_F(SlaveFixture, ReadPriorityLocalThenCheckpointThenArch)
{
    loadSource("halt\n");
    arch.writeMem(0x100, 1);

    Task t = makeTask(0);
    t.checkpoint.set(makeMemCell(0x100), 2);

    TaskContext ctx(t, arch);
    // Checkpoint wins over arch.
    EXPECT_EQ(ctx.readMem(0x100), 2u);
    // First read was recorded as a live-in with the checkpoint value.
    EXPECT_EQ(t.memIn.get(makeMemCell(0x100)).value(), 2u);
    // A local write wins over everything afterwards.
    ctx.writeMem(0x100, 3);
    EXPECT_EQ(ctx.readMem(0x100), 3u);
    // The live-in stays at the first-read value.
    EXPECT_EQ(t.memIn.get(makeMemCell(0x100)).value(), 2u);
    // Reads not covered by the checkpoint go to arch and count.
    EXPECT_EQ(ctx.readMem(0x101), 0u);
    EXPECT_EQ(t.archReads, 1u);
}

TEST_F(SlaveFixture, LiveInRecordsFirstValueOnly)
{
    loadSource("halt\n");
    arch.writeMem(0x200, 7);
    Task t = makeTask(0);
    TaskContext ctx(t, arch);
    EXPECT_EQ(ctx.readMem(0x200), 7u);
    // Arch changes afterwards (an older task committed): the task
    // keeps its recorded value — verification will compare later.
    arch.writeMem(0x200, 8);
    EXPECT_EQ(ctx.readMem(0x200), 7u);
    EXPECT_EQ(t.memIn.get(makeMemCell(0x200)).value(), 7u);
}

/** Every (cell, value) of @p t's live-ins or live-outs, in walk
 *  order. */
std::vector<StateDelta::value_type>
liveIns(const Task &t)
{
    std::vector<StateDelta::value_type> v;
    t.forEachLiveIn([&](CellId c, uint32_t x) { v.emplace_back(c, x); });
    return v;
}

std::vector<StateDelta::value_type>
liveOuts(const Task &t)
{
    std::vector<StateDelta::value_type> v;
    t.forEachLiveOut([&](CellId c, uint32_t x) { v.emplace_back(c, x); });
    return v;
}

TEST_F(SlaveFixture, FirstRegisterReadGoesCheckpointThenArch)
{
    // t1 comes from the checkpoint; t2 reads through to arch, which
    // counts an arch read and stalls the slave even with the L1 on
    // (it filters memory lines only).
    loadSource("add t0, t1, t2\nhalt\n");
    arch.writeReg(reg::T1, 5);
    arch.writeReg(reg::T2, 6);
    cfg.archReadLatency = 4;
    cfg.useSlaveL1 = true;
    Task t = makeTask(prog.entry());
    t.runToHalt = true;
    t.checkpoint.set(makeRegCell(reg::T1), 9);
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Halted);
    EXPECT_EQ(t.archReads, 1u);
    EXPECT_EQ(slave.archStallCycles(), 4u);
    EXPECT_EQ(t.liveInCells(), 2u);
    EXPECT_EQ(liveIns(t),
              (std::vector<StateDelta::value_type>{
                  {makeRegCell(reg::T1), 9}, {makeRegCell(reg::T2), 6}}));
    EXPECT_EQ(liveOuts(t),
              (std::vector<StateDelta::value_type>{
                  {makeRegCell(reg::T0), 15}}));

    // A repeat read stays in the register file: no arch read, no
    // stall, no second capture.
    TaskContext ctx(t, arch);
    ctx.beginStep();
    EXPECT_EQ(ctx.readReg(reg::T2), 6u);
    EXPECT_EQ(ctx.archReadsLastStep, 0u);
    EXPECT_EQ(t.archReads, 1u);
    EXPECT_EQ(t.liveInCells(), 2u);
}

TEST_F(SlaveFixture, RegisterWriteAfterReadKeepsTheLiveIn)
{
    loadSource("halt\n");
    arch.writeReg(reg::T0, 5);
    Task t = makeTask(0);
    TaskContext ctx(t, arch);
    EXPECT_EQ(ctx.readReg(reg::T0), 5u);
    ctx.writeReg(reg::T0, 7);
    EXPECT_EQ(ctx.readReg(reg::T0), 7u);
    // Verification still compares the value first read.
    EXPECT_EQ(liveIns(t), (std::vector<StateDelta::value_type>{
                              {makeRegCell(reg::T0), 5}}));
    EXPECT_EQ(liveOuts(t), (std::vector<StateDelta::value_type>{
                               {makeRegCell(reg::T0), 7}}));
}

TEST_F(SlaveFixture, RegisterReadAfterWriteRecordsNothing)
{
    loadSource("halt\n");
    arch.writeReg(reg::T0, 5);
    Task t = makeTask(0);
    TaskContext ctx(t, arch);
    ctx.writeReg(reg::T0, 7);
    EXPECT_EQ(ctx.readReg(reg::T0), 7u);
    EXPECT_EQ(t.liveInCells(), 0u);
    EXPECT_TRUE(liveIns(t).empty());
    EXPECT_EQ(t.archReads, 0u);
}

TEST_F(SlaveFixture, MmioDiscardedStepKeepsItsCaptureButNotItsWrite)
{
    // The load reads t1 (a live-in), touches device space and is
    // discarded: its write of t0 must not become a live-out.
    loadSource("lw t0, 0(t1)\nhalt\n");
    arch.writeReg(reg::T1, MmioBase);
    Task t = makeTask(prog.entry());
    t.runToHalt = true;
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::MmioStop);
    EXPECT_EQ(t.instCount, 0u);
    EXPECT_EQ(t.pc, prog.entry());
    EXPECT_TRUE(liveOuts(t).empty());
    EXPECT_EQ(liveIns(t), (std::vector<StateDelta::value_type>{
                              {makeRegCell(reg::T1), MmioBase}}));
}

TEST_F(SlaveFixture, VerifyAndApplyCoverRegistersAndMemory)
{
    loadSource("halt\n");
    arch.writeReg(reg::T0, 10);
    arch.writeMem(0x100, 20);
    Task t = makeTask(0);
    TaskContext ctx(t, arch);
    ctx.readReg(reg::T0);
    ctx.readMem(0x100);
    ctx.writeReg(reg::T1, 222);
    ctx.writeMem(0x104, 5);
    EXPECT_EQ(t.liveInMismatches(arch), 0u);

    // Each half of the live-in set is verified.
    ArchState other = arch;
    other.writeReg(reg::T0, 11);
    EXPECT_EQ(t.liveInMismatches(other), 1u);
    other.writeMem(0x100, 21);
    EXPECT_EQ(t.liveInMismatches(other), 2u);

    // Commit superimposes both halves of the live-out set.
    t.applyLiveOut(arch);
    EXPECT_EQ(arch.readReg(reg::T1), 222u);
    EXPECT_EQ(arch.readMem(0x104), 5u);
    EXPECT_EQ(arch.readReg(reg::T0), 10u);
}

TEST_F(SlaveFixture, FetchIsNotALiveIn)
{
    loadSource("addi t0, zero, 4\nhalt\n");
    Task t = makeTask(prog.entry());
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Halted);
    EXPECT_TRUE(t.memIn.empty())
        << "instruction fetches must not be recorded";
}

TEST_F(SlaveFixture, RunsToHaltAndCountsInstructions)
{
    loadSource(
        "    li t0, 10\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out t0, 5\n"
        "    halt\n");
    Task t = makeTask(prog.entry());
    t.runToHalt = true;
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Halted);
    EXPECT_EQ(t.instCount, 1 + 20 + 1 + 1u);
    ASSERT_EQ(t.outputs.size(), 1u);
    EXPECT_EQ(t.outputs[0].port, 5);
    EXPECT_TRUE(t.regDirty >> reg::T0 & 1u);
}

TEST_F(SlaveFixture, PausesAtForkSiteUntilEndKnown)
{
    loadSource(
        "head:\n"
        "    addi t0, t0, 1\n"
        "    j head\n");
    uint32_t head = 0;
    ASSERT_TRUE(prog.lookupSymbol("head", head));
    fork_sites.push_back(head);

    Task t = makeTask(head);
    SlaveCore slave = makeSlave(arch, cfg);
    slave.assign(&t);
    for (int i = 0; i < 50; ++i)
        slave.tick();
    // Looped back to head once, then paused awaiting its end info.
    EXPECT_TRUE(t.pausedAtForkSite);
    EXPECT_EQ(t.instCount, 2u);
    EXPECT_GT(slave.pauseCycles(), 0u);

    // End condition arrives: end at 'head' on the 2nd arrival.
    t.endKnown = true;
    t.endPc = head;
    t.endVisits = 2;
    for (int i = 0; i < 50 && !t.done(); ++i)
        slave.tick();
    EXPECT_EQ(t.end, TaskEnd::ReachedEnd);
    EXPECT_EQ(t.visits, 2u);
    EXPECT_EQ(t.instCount, 4u);
    EXPECT_EQ(t.pc, head);
}

TEST_F(SlaveFixture, EndVisitCountingWithKnownEnd)
{
    loadSource(
        "head:\n"
        "    addi t0, t0, 1\n"
        "    j head\n");
    uint32_t head = 0;
    ASSERT_TRUE(prog.lookupSymbol("head", head));
    fork_sites.push_back(head);

    Task t = makeTask(head);
    t.endKnown = true;
    t.endPc = head;
    t.endVisits = 3;
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::ReachedEnd);
    EXPECT_EQ(t.instCount, 6u);   // 3 iterations of 2 insts
}

TEST_F(SlaveFixture, RunToHaltIgnoresForkSites)
{
    loadSource(
        "head:\n"
        "    addi t0, t0, 1\n"
        "    li t1, 3\n"
        "    blt t0, t1, head\n"
        "    halt\n");
    uint32_t head = 0;
    ASSERT_TRUE(prog.lookupSymbol("head", head));
    fork_sites.push_back(head);

    Task t = makeTask(head);
    t.runToHalt = true;
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Halted);
}

TEST_F(SlaveFixture, OverrunCapFires)
{
    loadSource("spin: j spin\n");
    cfg.maxTaskInsts = 100;
    Task t = makeTask(prog.entry());
    t.runToHalt = true;
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Overrun);
    EXPECT_EQ(t.instCount, 100u);
}

TEST_F(SlaveFixture, IllegalInstructionFaultsTask)
{
    loadSource("j nowhere\nnowhere:\n");
    Task t = makeTask(prog.entry());
    t.runToHalt = true;
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Faulted);
    EXPECT_EQ(t.instCount, 1u);   // the jump executed; the fault not
}

TEST_F(SlaveFixture, ArchReadsStallTheSlave)
{
    // Ten loads from arch with latency 4: the slave must take
    // noticeably longer than the instruction count.
    loadSource(
        "    li t0, 0\n"
        "    la t1, data\n"
        "loop:\n"
        "    add t2, t1, t0\n"
        "    lw t3, 0(t2)\n"
        "    addi t0, t0, 1\n"
        "    li t4, 10\n"
        "    blt t0, t4, loop\n"
        "    halt\n"
        ".org 0x4000\n"
        "data: .word 1,2,3,4,5,6,7,8,9,10\n");
    cfg.archReadLatency = 4;
    cfg.useSlaveL1 = false;   // measure raw read-through charging
    Task t = makeTask(prog.entry());
    t.runToHalt = true;
    SlaveCore slave = makeSlave(arch, cfg);
    slave.assign(&t);
    unsigned ticks = 0;
    while (!t.done() && ticks < 10000) {
        slave.tick();
        ++ticks;
    }
    EXPECT_EQ(t.end, TaskEnd::Halted);
    EXPECT_GE(ticks, t.instCount + 10 * 4);
    EXPECT_GT(slave.archStallCycles(), 0u);

    // With the L1 enabled, the ten sequential loads share lines and
    // the run takes strictly fewer cycles.
    MsspConfig cached = cfg;
    cached.useSlaveL1 = true;
    ArchState arch2;
    arch2.loadProgram(prog);
    Task t2 = makeTask(prog.entry());
    t2.runToHalt = true;
    SlaveCore slave2 = makeSlave(arch2, cached);
    slave2.assign(&t2);
    unsigned ticks2 = 0;
    while (!t2.done() && ticks2 < 10000) {
        slave2.tick();
        ++ticks2;
    }
    EXPECT_EQ(t2.end, TaskEnd::Halted);
    EXPECT_LT(ticks2, ticks);
    ASSERT_NE(slave2.l1(), nullptr);
    EXPECT_GT(slave2.l1()->hits(), 0u);
}

TEST_F(SlaveFixture, IdleSlaveCountsIdleCycles)
{
    loadSource("halt\n");
    SlaveCore slave = makeSlave(arch, cfg);
    EXPECT_TRUE(slave.idle());
    slave.tick();
    slave.tick();
    EXPECT_EQ(slave.idleCycles(), 2u);
}

} // anonymous namespace
} // namespace mssp
