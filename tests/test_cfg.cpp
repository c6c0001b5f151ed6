/**
 * @file
 * Unit tests for CFG construction, loop-header detection and register
 * liveness.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cfg/cfg.hh"

namespace mssp
{
namespace
{

TEST(Cfg, SingleBlock)
{
    Program p = assemble(
        "add t0, t1, t2\n"
        "sub t3, t0, t1\n"
        "halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    ASSERT_EQ(cfg.blocks().size(), 1u);
    const BasicBlock &bb = cfg.blockAt(p.entry());
    EXPECT_EQ(bb.insts.size(), 3u);
    EXPECT_EQ(bb.term, TermKind::Halt);
    EXPECT_TRUE(bb.succs.empty());
    EXPECT_TRUE(cfg.loopHeaders().empty());
}

TEST(Cfg, LoopStructure)
{
    Program p = assemble(
        "    li t0, 5\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    uint32_t loop_pc = 0;
    ASSERT_TRUE(p.lookupSymbol("loop", loop_pc));
    ASSERT_EQ(cfg.blocks().size(), 3u);
    // Loop block: two insts, condbranch, succs = {loop, after}.
    const BasicBlock &loop = cfg.blockAt(loop_pc);
    EXPECT_EQ(loop.term, TermKind::CondBranch);
    EXPECT_EQ(loop.takenTarget, loop_pc);
    ASSERT_EQ(loop.succs.size(), 2u);
    // Header detection.
    EXPECT_EQ(cfg.loopHeaders().size(), 1u);
    EXPECT_TRUE(cfg.loopHeaders().count(loop_pc));
    // Preds: entry block and itself.
    EXPECT_EQ(cfg.preds(loop_pc).size(), 2u);
}

TEST(Cfg, DiamondBothArmsDiscovered)
{
    Program p = assemble(
        "    beqz a0, left\n"
        "    addi t0, zero, 1\n"
        "    j join\n"
        "left:\n"
        "    addi t0, zero, 2\n"
        "join:\n"
        "    out t0, 0\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    EXPECT_EQ(cfg.blocks().size(), 4u);
    uint32_t join_pc = 0;
    ASSERT_TRUE(p.lookupSymbol("join", join_pc));
    EXPECT_EQ(cfg.preds(join_pc).size(), 2u);
    EXPECT_TRUE(cfg.loopHeaders().empty());
}

TEST(Cfg, CallReturnDiscovery)
{
    Program p = assemble(
        "    call fn\n"
        "    out a0, 0\n"
        "    halt\n"
        "fn:\n"
        "    addi a0, zero, 9\n"
        "    ret\n");
    Cfg cfg = Cfg::build(p, p.entry());
    // Blocks: entry(call), return-point, fn.
    ASSERT_EQ(cfg.blocks().size(), 3u);
    const BasicBlock &entry = cfg.blockAt(p.entry());
    EXPECT_EQ(entry.term, TermKind::Jump);
    EXPECT_TRUE(entry.isCall);
    uint32_t fn_pc = 0;
    ASSERT_TRUE(p.lookupSymbol("fn", fn_pc));
    const BasicBlock &fn = cfg.blockAt(fn_pc);
    EXPECT_EQ(fn.term, TermKind::IndirectJump);
    // The return point (entry+1) must have been discovered.
    EXPECT_TRUE(cfg.hasBlock(p.entry() + 1));
}

TEST(Cfg, FallthroughIntoLabel)
{
    Program p = assemble(
        "    addi t0, zero, 1\n"
        "tgt:\n"
        "    addi t0, t0, 1\n"
        "    beqz t0, tgt\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    const BasicBlock &first = cfg.blockAt(p.entry());
    EXPECT_EQ(first.term, TermKind::FallThrough);
    EXPECT_EQ(first.insts.size(), 1u);
}

TEST(Cfg, NumInstsCountsEverything)
{
    Program p = assemble(
        "    li t0, 5\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    EXPECT_EQ(cfg.numInsts(), 4u);
}

TEST(Liveness, DefKillsUse)
{
    Program p = assemble(
        "    add t0, a0, a1\n"    // uses a0,a1
        "    add t1, t0, t0\n"
        "    out t1, 0\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    auto live = computeLiveness(cfg);
    RegMask in = live.at(p.entry()).liveIn;
    EXPECT_TRUE(in & (1u << reg::A0));
    EXPECT_TRUE(in & (1u << reg::A1));
    EXPECT_FALSE(in & (1u << reg::T0));   // defined before use
    EXPECT_FALSE(in & (1u << reg::T1));
}

TEST(Liveness, LoopCarriedValueStaysLive)
{
    Program p = assemble(
        "loop:\n"
        "    add s0, s0, s1\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out s0, 0\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    auto live = computeLiveness(cfg);
    RegMask in = live.at(p.entry()).liveIn;
    EXPECT_TRUE(in & (1u << reg::S0));
    EXPECT_TRUE(in & (1u << reg::S1));
    EXPECT_TRUE(in & (1u << reg::T0));
}

TEST(Liveness, HaltKillsEverything)
{
    Program p = assemble(
        "    add t0, a0, a1\n"    // dead: never observed
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    auto live = computeLiveness(cfg);
    EXPECT_EQ(live.at(p.entry()).liveOut, 0u);
}

TEST(Liveness, IndirectJumpKeepsAllLive)
{
    Program p = assemble(
        "    add t0, a0, a1\n"
        "    jalr zero, ra, 0\n");
    Cfg cfg = Cfg::build(p, p.entry());
    auto live = computeLiveness(cfg);
    EXPECT_EQ(live.at(p.entry()).liveOut, 0xfffffffeu);
}

TEST(Liveness, TransferFunction)
{
    // t0 = a1 + a2 : kills t0, gens a1,a2 (the def/use masks every
    // in-block backward walk applies as (after & ~def) | use)
    RegMask def, use;
    instDefUse(makeR(Opcode::Add, reg::T0, reg::A1, reg::A2), def, use);
    EXPECT_EQ(def, 1u << reg::T0);
    EXPECT_EQ(use, (1u << reg::A1) | (1u << reg::A2));

    // A branch reads both operands and defines nothing; r0 is neither
    // defined nor used.
    instDefUse(makeB(Opcode::Beq, reg::A0, reg::T1, 4), def, use);
    EXPECT_EQ(def, 0u);
    EXPECT_EQ(use, (1u << reg::A0) | (1u << reg::T1));
    instDefUse(makeR(Opcode::Add, reg::Zero, reg::Zero, reg::A0), def,
               use);
    EXPECT_EQ(def, 0u);
    EXPECT_EQ(use, 1u << reg::A0);
}

} // anonymous namespace
} // namespace mssp
