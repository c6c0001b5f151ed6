/**
 * @file
 * Unit tests for SlaveCore and TaskContext: live-in recording
 * priority, checkpoint consumption, fork-site pauses, end-visit
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
    EXPECT_EQ(t.liveIn.get(makeMemCell(0x100)).value(), 2u);
    // A local write wins over everything afterwards.
    ctx.writeMem(0x100, 3);
    EXPECT_EQ(ctx.readMem(0x100), 3u);
    // The live-in stays at the first-read value.
    EXPECT_EQ(t.liveIn.get(makeMemCell(0x100)).value(), 2u);
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
    EXPECT_EQ(t.liveIn.get(makeMemCell(0x200)).value(), 7u);
}

TEST_F(SlaveFixture, FetchIsNotALiveIn)
{
    loadSource("addi t0, zero, 4\nhalt\n");
    Task t = makeTask(prog.entry());
    SlaveCore slave = makeSlave(arch, cfg);
    runSlave(slave, t);
    EXPECT_EQ(t.end, TaskEnd::Halted);
    for (const auto &[cell, value] : t.liveIn)
        EXPECT_NE(cellKind(cell), CellKind::Mem)
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
    EXPECT_TRUE(t.liveOut.contains(makeRegCell(reg::T0)));
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
