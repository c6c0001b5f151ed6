/**
 * @file
 * Unit tests for the MasterCore: restart semantics, write-delta
 * tracking, checkpoint snapshots, fork-interval policy, indirect-
 * target translation and the delta sweep.
 */

#include <gtest/gtest.h>

#include <map>

#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "mssp/master.hh"
#include "profile/profiler.hh"

namespace mssp
{
namespace
{

/** Build a distilled program with explicit fork sites. */
DistilledProgram
distillWith(const Program &prog, std::vector<uint32_t> sites,
            DistillerOptions opts = {})
{
    ProfileData prof = profileProgram(prog, 1000000);
    opts.explicitForkSites = std::move(sites);
    return distill(prog, prof, opts);
}

const char *kLoop =
    "    li t0, 50\n"
    "    li s0, 0\n"
    "loop:\n"
    "    add s0, s0, t0\n"
    "    addi t0, t0, -1\n"
    "    bnez t0, loop\n"
    "    out s0, 1\n"
    "    halt\n";

TEST(Master, RestartOnlyAtEntryMapPcs)
{
    Program prog = assemble(kLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);

    EXPECT_FALSE(master.running());
    EXPECT_TRUE(master.restart(prog.entry()));
    EXPECT_TRUE(master.running());
    EXPECT_TRUE(master.restart(loop_pc));
    EXPECT_FALSE(master.restart(loop_pc + 1));   // not a restart point
}

TEST(Master, RestartSeedsRegistersFromArch)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    arch.writeReg(reg::S5, 777);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    EXPECT_EQ(master.readReg(reg::S5), 777u);
    EXPECT_EQ(master.deltaSize(), 0u);
}

TEST(Master, FirstForkSpawnsAtRestartPc)
{
    Program prog = assemble(kLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    // The restart point is the block's FORK; it must spawn at once.
    EXPECT_TRUE(master.nextForkWouldSpawn());
    MasterCore::ForkInfo fi;
    EXPECT_EQ(master.step(&fi), MasterStep::WantsFork);
    EXPECT_EQ(fi.origPc, prog.entry());
    EXPECT_TRUE(fi.checkpoint.empty());   // no writes yet
}

TEST(Master, WritesAccumulateInDelta)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    MasterCore::ForkInfo fi;
    master.step(&fi);   // entry FORK
    // Execute a few instructions; registers t0/s0 get written.
    for (int i = 0; i < 5; ++i)
        master.step(&fi);
    EXPECT_GT(master.deltaSize(), 0u);
    EXPECT_TRUE(master.readMem(0x12345) == arch.readMem(0x12345))
        << "unwritten memory reads through to arch";
}

TEST(Master, CheckpointIsSnapshotNotAlias)
{
    Program prog = assemble(
        "    li t0, 3\n"
        "    li s1, 0x9000\n"
        "loop:\n"
        "    addi s0, s0, 5\n"
        "    sw s0, 0(s1)\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    lw a0, 0(s1)\n"
        "    out a0, 1\n"
        "    out s0, 1\n"      // keep s0 live so DCE preserves it
        "    halt\n");
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    // Collect every checkpoint the master produces.
    std::vector<Checkpoint> checkpoints;
    MasterCore::ForkInfo fi;
    while (master.running()) {
        if (master.step(&fi) == MasterStep::WantsFork)
            checkpoints.push_back(fi.checkpoint);
    }
    // Entry fork + one fork per loop iteration.
    ASSERT_GE(checkpoints.size(), 3u);

    // Successive snapshots must hold *different* s0 values, in the
    // register and in the memory word it is stored to: each is the
    // state at fork time, not an alias of the live write buffer.
    const Checkpoint &a = checkpoints[checkpoints.size() - 2];
    const Checkpoint &b = checkpoints.back();
    for (CellId cell : {makeRegCell(reg::S0), makeMemCell(0x9000)}) {
        auto va = a.get(cell);
        auto vb = b.get(cell);
        ASSERT_TRUE(va.has_value()) << cellToString(cell);
        ASSERT_TRUE(vb.has_value()) << cellToString(cell);
        EXPECT_NE(*va, *vb) << cellToString(cell);
        EXPECT_EQ(*vb - *va, 5u) << cellToString(cell);
    }
    // The entry fork precedes the first store.
    EXPECT_FALSE(checkpoints.front().get(makeMemCell(0x9000)));
}

/** Store-heavy loop: every iteration stores a new word buf[i] and
 *  rewrites acc and buf[i & 7], so the master's journal piles up
 *  dead versions and must compact. */
const char *kStoreLoop =
    "    li s0, 0\n"
    "    li s1, 0x9000\n"   // buf
    "    li s2, 0x8000\n"   // acc
    "    li s3, 300\n"
    "loop:\n"
    "    add t0, s1, s0\n"
    "    sw s0, 0(t0)\n"
    "    lw t1, 0(s2)\n"
    "    add t1, t1, s0\n"
    "    sw t1, 0(s2)\n"
    "    andi t2, s0, 7\n"
    "    add t2, s1, t2\n"
    "    sw t1, 0(t2)\n"
    "    addi s0, s0, 1\n"
    "    blt s0, s3, loop\n"
    "    lw a0, 0(s2)\n"
    "    out a0, 1\n"
    "    halt\n";

/** A checkpoint and the deep copy of its bindings taken at its fork. */
struct HeldCheckpoint
{
    Checkpoint ckpt;
    std::vector<StateDelta::value_type> atFork;
};

/** Every lookup a slave could make must still see the fork's state. */
void
expectMatchesFork(const HeldCheckpoint &h, const char *when)
{
    SCOPED_TRACE(when);
    EXPECT_EQ(h.ckpt.size(), h.atFork.size());
    EXPECT_EQ(h.ckpt.flatten(), h.atFork);
    StateDelta at_fork;
    for (const auto &[cell, value] : h.atFork)
        at_fork.set(cell, value);
    // Every cell of the union of all checkpoints (the buffer held at
    // most buf[0..299], acc and the registers) plus absent probes.
    std::vector<CellId> probes = {makeMemCell(0x12345), PcCell,
                                  makeMemCell(0x9000 + 300)};
    for (uint32_t i = 0; i < 300; ++i)
        probes.push_back(makeMemCell(0x9000 + i));
    probes.push_back(makeMemCell(0x8000));
    for (unsigned r = 0; r < NumRegs; ++r)
        probes.push_back(makeRegCell(r));
    for (CellId cell : probes)
        EXPECT_EQ(h.ckpt.get(cell), at_fork.get(cell))
            << cellToString(cell);
}

TEST(Master, CheckpointsSurviveCompactionSweepAndRestart)
{
    Program prog = assemble(kStoreLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    std::vector<HeldCheckpoint> held;
    std::vector<const WriteJournal *> journals;
    MasterCore::ForkInfo fi;
    while (master.running()) {
        if (master.step(&fi) != MasterStep::WantsFork)
            continue;
        // The deep copy must be the master's own view at the fork.
        std::vector<StateDelta::value_type> flat = fi.checkpoint.flatten();
        EXPECT_EQ(flat.size(), master.deltaSize());
        for (const auto &[cell, value] : flat) {
            EXPECT_EQ(cellKind(cell) == CellKind::Reg
                          ? master.readReg(cellIndex(cell))
                          : master.readMem(cellIndex(cell)),
                      value);
        }
        if (journals.empty() || journals.back() != fi.checkpoint.journal())
            journals.push_back(fi.checkpoint.journal());
        held.push_back({fi.checkpoint, std::move(flat)});
    }
    ASSERT_TRUE(master.halted());
    ASSERT_GE(held.size(), 200u);
    // Stored words buf[0..299] plus acc all stay buffered.
    EXPECT_GE(master.deltaSize(), 301u);
    ASSERT_GE(journals.size(), 2u) << "the loop must force a compaction";
    for (const HeldCheckpoint &h : held)
        expectMatchesFork(h, "after the run");

    // Arch catches up on some words: the sweep drops them into a
    // fresh journal and the held checkpoints keep the old ones.
    std::vector<uint32_t> words;
    for (uint32_t i = 0; i < 300; ++i)
        words.push_back(master.readMem(0x9000 + i));
    for (uint32_t i = 100; i < 200; ++i)
        arch.writeMem(0x9000 + i, words[i]);
    const WriteJournal *before = master.journal();
    size_t cells = master.deltaSize();
    master.sweepDeltaAgainstArch(0);
    EXPECT_NE(master.journal(), before);
    EXPECT_LE(master.deltaSize(), cells - 100);
    for (uint32_t i = 0; i < 300; ++i)
        EXPECT_EQ(master.readMem(0x9000 + i), words[i]);
    for (const HeldCheckpoint &h : held)
        expectMatchesFork(h, "after the sweep");

    // A restart while checkpoints still view the journal must not
    // reuse its storage; running again writes a fresh journal.
    ASSERT_TRUE(master.restart(prog.entry()));
    EXPECT_EQ(master.deltaSize(), 0u);
    for (const HeldCheckpoint &h : held)
        expectMatchesFork(h, "after the restart");
    for (int i = 0; i < 500 && master.running(); ++i)
        master.step(&fi);
    EXPECT_GT(master.deltaSize(), 0u);
    for (const HeldCheckpoint &h : held)
        expectMatchesFork(h, "after running on");
}

TEST(Master, CheckpointEditsStayInTheCopy)
{
    // The fault injector corrupts a task's copy of a fork checkpoint
    // with set()/erase(); the master and other copies must not see it.
    Program prog = assemble(kStoreLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    MasterCore::ForkInfo fi;
    unsigned forks = 0;
    while (forks < 5) {
        if (master.step(&fi) == MasterStep::WantsFork)
            ++forks;
    }
    const Checkpoint &orig = fi.checkpoint;
    std::vector<StateDelta::value_type> before = orig.flatten();
    ASSERT_GE(before.size(), 5u);
    const CellId buf0 = makeMemCell(0x9000);
    const CellId fresh = makeMemCell(0x7777);
    ASSERT_TRUE(orig.get(buf0));
    ASSERT_TRUE(orig.get(makeRegCell(reg::S0)));

    Checkpoint copy = orig;
    copy.set(fresh, 1);                       // insert
    copy.set(buf0, *orig.get(buf0) ^ 4);      // flip
    copy.erase(makeRegCell(reg::S0));         // drop a register
    copy.set(makeRegCell(reg::T6), 9);        // insert a register
    copy.erase(makeMemCell(0x8000));          // drop acc
    copy.erase(makeMemCell(0x12345));         // absent: no-op
    EXPECT_EQ(copy.size(), before.size());   // two inserts, two drops
    EXPECT_EQ(copy.get(fresh), 1u);
    EXPECT_EQ(copy.get(buf0), *orig.get(buf0) ^ 4);
    EXPECT_FALSE(copy.get(makeRegCell(reg::S0)));
    EXPECT_EQ(copy.get(makeRegCell(reg::T6)), 9u);
    EXPECT_FALSE(copy.get(makeMemCell(0x8000)));

    // flatten() and nth() agree with a model edited the same way.
    std::map<CellId, uint32_t> model(before.begin(), before.end());
    model[fresh] = 1;
    model[buf0] = *orig.get(buf0) ^ 4;
    model.erase(makeRegCell(reg::S0));
    model[makeRegCell(reg::T6)] = 9;
    model.erase(makeMemCell(0x8000));
    std::vector<StateDelta::value_type> want(model.begin(), model.end());
    EXPECT_EQ(copy.flatten(), want);
    for (size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(copy.nth(k), want[k]) << k;

    // The original and the master are untouched.
    EXPECT_EQ(orig.flatten(), before);
    EXPECT_FALSE(orig.get(fresh));
    EXPECT_EQ(master.readMem(0x7777), arch.readMem(0x7777));
    EXPECT_EQ(master.readMem(0x9000), *orig.get(buf0));
    EXPECT_EQ(master.readReg(reg::S0), *orig.get(makeRegCell(reg::S0)));

    Checkpoint empty;
    EXPECT_TRUE(empty.empty());
    empty.set(fresh, 3);
    EXPECT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty.get(fresh), 3u);
    empty.erase(fresh);
    EXPECT_TRUE(empty.empty());
    EXPECT_FALSE(empty.get(fresh));
}

TEST(Master, RestartReusesJournalOnlyWhenUnshared)
{
    Program prog = assemble(kStoreLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    master.writeMem(0x9000, 1);
    const WriteJournal *journal = master.journal();
    ASSERT_TRUE(master.restart(prog.entry()));
    EXPECT_EQ(master.journal(), journal);
    EXPECT_EQ(master.readMem(0x9000), arch.readMem(0x9000));

    // Hold the entry fork's checkpoint across the next restart.
    MasterCore::ForkInfo fi;
    ASSERT_EQ(master.step(&fi), MasterStep::WantsFork);
    Checkpoint held = std::move(fi.checkpoint);
    ASSERT_EQ(held.journal(), journal);
    master.writeMem(0x9000, 2);
    ASSERT_TRUE(master.restart(prog.entry()));
    EXPECT_NE(master.journal(), journal);
    EXPECT_EQ(held.journal(), journal);
    EXPECT_FALSE(held.get(makeMemCell(0x9000)));
}

TEST(Master, ForkIntervalMergesTasks)
{
    Program prog = assemble(kLoop);
    uint32_t loop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", loop_pc));
    DistilledProgram dist = distillWith(prog, {loop_pc});

    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    master.setForkInterval(3);
    ASSERT_TRUE(master.restart(prog.entry()));

    // Count spawns until the master halts.
    unsigned spawns = 0;
    MasterCore::ForkInfo fi;
    std::vector<uint32_t> end_visits;
    while (master.running()) {
        if (master.step(&fi) == MasterStep::WantsFork) {
            ++spawns;
            end_visits.push_back(fi.endVisitsForPrev);
        }
    }
    EXPECT_TRUE(master.halted());
    // 50 loop-header visits at interval 3 plus the entry fork.
    EXPECT_NEAR(static_cast<double>(spawns), 1.0 + 50.0 / 3.0, 2.0);
    // Steady-state spawns report 3 end-visits for their predecessor.
    ASSERT_GT(end_visits.size(), 3u);
    EXPECT_EQ(end_visits[2], 3u);
}

TEST(Master, JalrThroughOriginalAddressTranslates)
{
    // A function whose return address is *seeded from architected
    // state* (restart inside the callee): ret must translate.
    Program prog = assemble(
        "    li s0, 5\n"
        "loop:\n"
        "    call fn\n"
        "    addi s0, s0, -1\n"
        "    bnez s0, loop\n"
        "    out a0, 1\n"
        "    halt\n"
        "fn:\n"
        "    addi a0, a0, 1\n"
        "    ret\n");
    uint32_t fnloop_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("fn", fnloop_pc));
    DistilledProgram dist = distillWith(prog, {fnloop_pc});
    ASSERT_NE(dist.distilledPcFor(fnloop_pc), UINT32_MAX);

    ArchState arch;
    arch.loadProgram(prog);
    // Simulate a commit that left pc at fnloop with the *original*
    // return address in ra.
    uint32_t ret_pc = 0;
    ASSERT_TRUE(prog.lookupSymbol("loop", ret_pc));
    arch.writeReg(reg::Ra, ret_pc + 1);   // original return point
    arch.writeReg(reg::S0, 3);
    arch.setPc(fnloop_pc);

    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(fnloop_pc));
    // Run; the master must survive the ret (translated) and halt.
    MasterCore::ForkInfo fi;
    for (int i = 0; i < 200 && master.running(); ++i)
        master.step(&fi);
    EXPECT_TRUE(master.halted());
    EXPECT_FALSE(master.faulted());
}

TEST(Master, JalrToUnmappedAddressFaults)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    arch.writeReg(reg::Ra, 0xdead);   // not a block leader
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    // Inject a ret at the master's pc by corrupting the image.
    DistilledProgram corrupt = dist;
    corrupt.prog.setWord(dist.prog.entry(),
                         encode(makeI(Opcode::Jalr, 0, reg::Ra, 0)));
    MasterCore master2(corrupt, arch);
    ASSERT_TRUE(master2.restart(prog.entry()));
    MasterCore::ForkInfo fi;
    EXPECT_EQ(master2.step(&fi), MasterStep::Faulted);
    EXPECT_TRUE(master2.faulted());
}

TEST(Master, SweepDropsArchEqualCells)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    master.writeMem(0x9000, 42);
    master.writeMem(0x9001, 43);
    EXPECT_EQ(master.deltaSize(), 2u);

    // Arch catches up on one cell.
    arch.writeMem(0x9000, 42);
    master.sweepDeltaAgainstArch(0);   // force a sweep
    EXPECT_EQ(master.deltaSize(), 1u);
    EXPECT_EQ(master.readMem(0x9001), 43u);
}

TEST(Master, SweepKeepsJournalWhenNothingDrops)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(dist, arch);
    ASSERT_TRUE(master.restart(prog.entry()));

    for (uint32_t i = 0; i < 100; ++i)
        master.writeMem(0x9000 + i, 1000 + i);
    // No cell equals architected state: a sweep must not rebuild (it
    // runs after every commit once the buffer is large).
    const WriteJournal *journal = master.journal();
    master.sweepDeltaAgainstArch(0);
    EXPECT_EQ(master.journal(), journal);
    EXPECT_EQ(master.deltaSize(), 100u);
    // Below the threshold it does not even scan.
    arch.writeMem(0x9000, 1000);
    master.sweepDeltaAgainstArch(100);
    EXPECT_EQ(master.journal(), journal);
    EXPECT_EQ(master.deltaSize(), 100u);
    // One drop rebuilds.
    master.sweepDeltaAgainstArch(0);
    EXPECT_NE(master.journal(), journal);
    EXPECT_EQ(master.deltaSize(), 99u);
    EXPECT_EQ(master.readMem(0x9000), 1000u);
    EXPECT_EQ(master.readMem(0x9063), 1099u);
}

TEST(Master, CorruptForkIndexFaults)
{
    Program prog = assemble(kLoop);
    DistilledProgram dist = distillWith(prog, {});
    DistilledProgram corrupt = dist;
    corrupt.prog.setWord(dist.prog.entry(),
                         encode(makeJ(Opcode::Fork, 0, 999)));
    ArchState arch;
    arch.loadProgram(prog);
    MasterCore master(corrupt, arch);
    ASSERT_TRUE(master.restart(prog.entry()));
    MasterCore::ForkInfo fi;
    EXPECT_EQ(master.step(&fi), MasterStep::Faulted);
}

} // anonymous namespace
} // namespace mssp
