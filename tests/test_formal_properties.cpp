/**
 * @file
 * Property tests for the formal MSSP model (the companion paper's
 * definitions, made executable):
 *
 *  - superimposition laws: associativity, containment, idempotency
 *    (Definition 8);
 *  - determinism of instruction execution: consistent states step to
 *    consistent states (Section 6.2);
 *  - task safety at every commit: seq(S, #t) == S <- live_out(t)
 *    whenever live_in(t) is consistent with S (Theorem 2);
 *  - jumping refinement: the architected-state trajectory sampled at
 *    commits is a subsequence of the SEQ trajectory (Definition 1).
 */

#include <gtest/gtest.h>

#include "core/mssp_api.hh"
#include "helpers.hh"
#include "sim/rng.hh"

namespace mssp
{
namespace
{

/** Build a random StateDelta over a small cell universe. */
StateDelta
randomDelta(Rng &rng, unsigned max_cells = 24)
{
    StateDelta d;
    unsigned n = static_cast<unsigned>(rng.below(max_cells));
    for (unsigned i = 0; i < n; ++i) {
        CellId cell;
        switch (rng.below(3)) {
          case 0:
            cell = makeRegCell(static_cast<unsigned>(
                rng.range(1, 31)));
            break;
          case 1:
            cell = makeMemCell(static_cast<uint32_t>(
                rng.below(16)) * 4);
            break;
          default:
            cell = PcCell;
            break;
        }
        d.set(cell, static_cast<uint32_t>(rng.below(8)));
    }
    return d;
}

/** Extend @p base with extra cells so the result contains it. */
StateDelta
randomSuperset(Rng &rng, const StateDelta &base)
{
    StateDelta big = randomDelta(rng);
    big.superimpose(base);   // base's bindings win: base ⊑ big
    return big;
}

class SuperimposeLaws : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SuperimposeLaws, Associativity)
{
    Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        StateDelta a = randomDelta(rng);
        StateDelta b = randomDelta(rng);
        StateDelta c = randomDelta(rng);
        StateDelta left = StateDelta::superimposed(
            StateDelta::superimposed(a, b), c);
        StateDelta right = StateDelta::superimposed(
            a, StateDelta::superimposed(b, c));
        EXPECT_EQ(left, right);
    }
}

TEST_P(SuperimposeLaws, Containment)
{
    // S1 ⊑ S2 implies (S1 <- S3) ⊑ (S2 <- S3).
    Rng rng(GetParam() ^ 0x1111);
    for (int i = 0; i < 50; ++i) {
        StateDelta s1 = randomDelta(rng);
        StateDelta s2 = randomSuperset(rng, s1);
        ASSERT_TRUE(s1.consistentWith(s2));
        StateDelta s3 = randomDelta(rng);
        StateDelta left = StateDelta::superimposed(s1, s3);
        StateDelta right = StateDelta::superimposed(s2, s3);
        EXPECT_TRUE(left.consistentWith(right));
    }
}

TEST_P(SuperimposeLaws, Idempotency)
{
    // S2 ⊑ S1 implies S1 <- S2 == S1.
    Rng rng(GetParam() ^ 0x2222);
    for (int i = 0; i < 50; ++i) {
        StateDelta s2 = randomDelta(rng);
        StateDelta s1 = randomSuperset(rng, s2);
        ASSERT_TRUE(s2.consistentWith(s1));
        EXPECT_EQ(StateDelta::superimposed(s1, s2), s1);
    }
}

TEST_P(SuperimposeLaws, EmptyIsRightIdentity)
{
    Rng rng(GetParam() ^ 0x3333);
    StateDelta a = randomDelta(rng);
    EXPECT_EQ(StateDelta::superimposed(a, StateDelta{}), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperimposeLaws,
                         ::testing::Values(1, 2, 3, 7, 42, 1234,
                                           0xdeadbeef));

/** A delta-backed ExecContext used for determinism checks. */
class DeltaContext final : public ExecContext
{
  public:
    explicit DeltaContext(StateDelta state) : state_(std::move(state))
    {}

    StateDelta state_;
    OutputStream outs;

    uint32_t
    readReg(unsigned r) override
    {
        return state_.get(makeRegCell(r)).value_or(0);
    }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        state_.set(makeRegCell(r), v);
    }
    uint32_t
    readMem(uint32_t a) override
    {
        return state_.get(makeMemCell(a)).value_or(0);
    }
    void
    writeMem(uint32_t a, uint32_t v) override
    {
        state_.set(makeMemCell(a), v);
    }
    uint32_t fetch(uint32_t) override { return 0; }
    void
    output(uint16_t p, uint32_t v) override
    {
        outs.push_back({p, v});
    }
};

class Determinism : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(Determinism, ConsistentStatesStepConsistently)
{
    // For random ALU/memory instructions executed on a state S1 and a
    // superset S2 covering all cells the instruction touches, the
    // write sets are identical (delta(S1) == delta(S2)).
    Rng rng(GetParam());
    for (int iter = 0; iter < 200; ++iter) {
        // Draw a random non-control instruction.
        Opcode op;
        do {
            op = static_cast<Opcode>(
                rng.range(1,
                          static_cast<int64_t>(Opcode::NumOpcodes) -
                              1));
        } while (isControl(op) || op == Opcode::Halt ||
                 op == Opcode::Fork || op == Opcode::Illegal);
        Instruction inst;
        switch (formatOf(op)) {
          case Format::R:
            inst = makeR(op, static_cast<uint8_t>(rng.range(0, 31)),
                         static_cast<uint8_t>(rng.range(0, 7)),
                         static_cast<uint8_t>(rng.range(0, 7)));
            break;
          case Format::I:
            inst = makeI(op, static_cast<uint8_t>(rng.range(0, 31)),
                         static_cast<uint8_t>(rng.range(0, 7)),
                         static_cast<int32_t>(rng.range(-8, 8)));
            break;
          case Format::B:
            inst = makeB(op, static_cast<uint8_t>(rng.range(0, 7)),
                         static_cast<uint8_t>(rng.range(0, 7)),
                         static_cast<int32_t>(rng.range(-4, 4)));
            break;
          default:
            inst = makeN(op);
            break;
        }

        // S1: bind exactly the cells the instruction can read.
        StateDelta s1;
        for (unsigned r = 0; r < 8; ++r)
            s1.set(makeRegCell(r), static_cast<uint32_t>(rng.below(64)));
        for (uint32_t a = 0; a < 80; ++a)
            s1.set(makeMemCell(a), static_cast<uint32_t>(rng.below(64)));
        StateDelta s2 = randomSuperset(rng, s1);

        DeltaContext c1(s1), c2(s2);
        StepResult r1 = executeDecoded(100, inst, c1);
        StepResult r2 = executeDecoded(100, inst, c2);

        EXPECT_EQ(r1.status, r2.status);
        EXPECT_EQ(r1.nextPc, r2.nextPc);
        EXPECT_EQ(r1.branchTaken, r2.branchTaken);
        EXPECT_EQ(c1.outs, c2.outs);
        // delta(S1) == delta(S2): S2's result restricted to S1's
        // domain plus writes must contain S1's result.
        EXPECT_TRUE(c1.state_.consistentWith(c2.state_));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(TaskSafety, EveryCommitSatisfiesTheorem2)
{
    // At every commit, replay SEQ from a snapshot of the pre-commit
    // architected state for #t instructions; the result must equal
    // the snapshot superimposed with the task's live-outs — exactly
    // seq(S, #t) == S <- live_out(t).
    PreparedWorkload w = prepare(test::biasedSumSource(300, 77),
                                 test::biasedSumSource(200, 78));
    MsspConfig cfg;
    cfg.numSlaves = 4;
    MsspMachine machine(w.orig, w.dist, cfg);

    uint64_t commits_checked = 0;
    machine.setCommitHook([&](const Task &t, const ArchState &arch) {
        // Safety precondition (live-ins consistent with S).
        ASSERT_EQ(t.liveInMismatches(arch), 0u);

        // Replay: S' = seq(S, #t).
        ArchState replay(arch);   // deep copy
        {
            struct Ctx : ExecContext
            {
                ArchState &s;
                explicit Ctx(ArchState &s) : s(s) {}
                uint32_t readReg(unsigned r) override
                {
                    return s.readReg(r);
                }
                void writeReg(unsigned r, uint32_t v) override
                {
                    s.writeReg(r, v);
                }
                uint32_t readMem(uint32_t a) override
                {
                    return s.readMem(a);
                }
                void writeMem(uint32_t a, uint32_t v) override
                {
                    s.writeMem(a, v);
                }
                uint32_t fetch(uint32_t pc) override
                {
                    return s.readMem(pc);
                }
                void output(uint16_t, uint32_t) override {}
            } ctx(replay);
            for (uint64_t i = 0; i < t.instCount; ++i) {
                StepResult res = stepAt(replay.pc(), ctx);
                ASSERT_NE(res.status, StepStatus::Illegal);
                if (res.status == StepStatus::Halted)
                    break;
                replay.setPc(res.nextPc);
            }
        }

        // S <- live_out(t).
        ArchState superimposed(arch);
        t.applyLiveOut(superimposed);

        // Compare: registers, and every cell in the live-out set (the
        // only memory cells the task may change).
        for (unsigned r = 0; r < NumRegs; ++r)
            EXPECT_EQ(superimposed.readReg(r), replay.readReg(r));
        t.forEachLiveOut([&](CellId cell, uint32_t) {
            EXPECT_EQ(superimposed.readCell(cell),
                      replay.readCell(cell))
                << cellToString(cell);
        });
        ++commits_checked;
    });

    MsspResult r = machine.run(10000000);
    test::expectEquivalent(w.orig, r);
    EXPECT_GT(commits_checked, 5u);
}

TEST(JumpingRefinement, CommitTrajectoryIsSeqSubsequence)
{
    // Maintain a SEQ oracle; at each commit, advance it to the same
    // retired-instruction count and compare full architected state.
    PreparedWorkload w = prepare(test::biasedSumSource(250, 91),
                                 test::biasedSumSource(128, 92));
    MsspConfig cfg;
    MsspMachine machine(w.orig, w.dist, cfg);

    SeqMachine oracle(w.orig);
    uint64_t commits = 0;
    machine.setCommitHook([&](const Task &t, const ArchState &arch) {
        // Pre-commit state corresponds to instret() retired insts.
        ASSERT_EQ(oracle.instCount(), arch.instret())
            << "oracle out of sync";
        // Advance oracle across this task.
        oracle.run(t.instCount);
        // After commit the architected state must equal the oracle;
        // we verify the *pre*-commit part here: live-ins consistent.
        EXPECT_EQ(t.liveInMismatches(arch), 0u);
        // And the task's live-outs must match the oracle's state.
        t.forEachLiveOut([&](CellId cell, uint32_t value) {
            EXPECT_EQ(value, oracle.state().readCell(cell))
                << cellToString(cell);
        });
        ++commits;
    });

    MsspResult r = machine.run(10000000);
    test::expectEquivalent(w.orig, r);
    EXPECT_GT(commits, 5u);
    // Final states agree (ψ of the final MSSP state equals SEQ's).
    oracle.run(100000000);
    EXPECT_EQ(machine.arch().pc(), oracle.state().pc());
    for (unsigned reg = 0; reg < NumRegs; ++reg) {
        EXPECT_EQ(machine.arch().readReg(reg),
                  oracle.state().readReg(reg));
    }
    EXPECT_EQ(machine.arch().mem().nonzeroWords(),
              oracle.state().mem().nonzeroWords());
}

} // anonymous namespace
} // namespace mssp
