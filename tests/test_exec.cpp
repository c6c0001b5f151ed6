/**
 * @file
 * Unit tests for instruction semantics (the executor) and the SEQ
 * reference machine.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "exec/blockjit.hh"
#include "exec/executor.hh"
#include "exec/seq_machine.hh"

namespace mssp
{
namespace
{

/** Run a source program on SEQ and return the machine. */
SeqMachine
runSeq(const std::string &src, uint64_t max_insts = 100000)
{
    Program prog = assemble(src);
    SeqMachine m(prog);   // copies the image; prog may die
    m.run(max_insts);
    return m;
}

TEST(Exec, ArithmeticBasics)
{
    auto m = runSeq(
        "li t0, 7\n"
        "li t1, 3\n"
        "add t2, t0, t1\n"
        "sub t3, t0, t1\n"
        "mul t4, t0, t1\n"
        "div t5, t0, t1\n"
        "rem t6, t0, t1\n"
        "out t2, 0\nout t3, 0\nout t4, 0\nout t5, 0\nout t6, 0\n"
        "halt\n");
    ASSERT_TRUE(m.halted());
    ASSERT_EQ(m.outputs().size(), 5u);
    EXPECT_EQ(m.outputs()[0].value, 10u);
    EXPECT_EQ(m.outputs()[1].value, 4u);
    EXPECT_EQ(m.outputs()[2].value, 21u);
    EXPECT_EQ(m.outputs()[3].value, 2u);
    EXPECT_EQ(m.outputs()[4].value, 1u);
}

TEST(Exec, SignedDivisionEdgeCases)
{
    auto m = runSeq(
        "li t0, -7\n"
        "li t1, 3\n"
        "div t2, t0, t1\n"       // -2 (trunc toward zero)
        "rem t3, t0, t1\n"       // -1
        "li t4, 5\n"
        "div t5, t4, zero\n"     // div by zero -> all ones
        "rem t6, t4, zero\n"     // rem by zero -> dividend
        "li s0, 0x80000000\n"
        "li s1, -1\n"
        "div s2, s0, s1\n"       // INT_MIN / -1 -> INT_MIN
        "rem s3, s0, s1\n"       // INT_MIN % -1 -> 0
        "out t2, 0\nout t3, 0\nout t5, 0\nout t6, 0\n"
        "out s2, 0\nout s3, 0\n"
        "halt\n");
    ASSERT_EQ(m.outputs().size(), 6u);
    EXPECT_EQ(m.outputs()[0].value, static_cast<uint32_t>(-2));
    EXPECT_EQ(m.outputs()[1].value, static_cast<uint32_t>(-1));
    EXPECT_EQ(m.outputs()[2].value, 0xffffffffu);
    EXPECT_EQ(m.outputs()[3].value, 5u);
    EXPECT_EQ(m.outputs()[4].value, 0x80000000u);
    EXPECT_EQ(m.outputs()[5].value, 0u);
}

TEST(Exec, LogicalImmediatesZeroExtend)
{
    auto m = runSeq(
        "li t0, 0xf0f0\n"
        "ori t1, zero, 0xffff\n"   // 0x0000ffff, NOT sign-extended
        "andi t2, t0, 0xff00\n"
        "xori t3, t0, 0xffff\n"
        "out t1, 0\nout t2, 0\nout t3, 0\n"
        "halt\n");
    EXPECT_EQ(m.outputs()[0].value, 0xffffu);
    EXPECT_EQ(m.outputs()[1].value, 0xf000u);
    EXPECT_EQ(m.outputs()[2].value, 0x0f0fu);
}

TEST(Exec, ArithImmediatesSignExtend)
{
    auto m = runSeq(
        "addi t0, zero, -1\n"
        "slti t1, t0, 0\n"        // -1 < 0 signed -> 1
        "sltiu t2, t0, 0\n"       // 0xffffffff < 0 unsigned -> 0
        "sltiu t3, zero, -1\n"    // 0 < 0xffffffff -> 1
        "out t0, 0\nout t1, 0\nout t2, 0\nout t3, 0\n"
        "halt\n");
    EXPECT_EQ(m.outputs()[0].value, 0xffffffffu);
    EXPECT_EQ(m.outputs()[1].value, 1u);
    EXPECT_EQ(m.outputs()[2].value, 0u);
    EXPECT_EQ(m.outputs()[3].value, 1u);
}

TEST(Exec, Shifts)
{
    auto m = runSeq(
        "li t0, 0x80000000\n"
        "srl t1, t0, zero\n"      // shift by 0
        "li t2, 4\n"
        "srl t3, t0, t2\n"
        "sra t4, t0, t2\n"
        "li t5, 1\n"
        "sll t6, t5, t2\n"
        "li s0, 36\n"             // shift amounts mask to 5 bits
        "sll s1, t5, s0\n"        // 1 << (36 & 31) = 16
        "out t1, 0\nout t3, 0\nout t4, 0\nout t6, 0\nout s1, 0\n"
        "halt\n");
    EXPECT_EQ(m.outputs()[0].value, 0x80000000u);
    EXPECT_EQ(m.outputs()[1].value, 0x08000000u);
    EXPECT_EQ(m.outputs()[2].value, 0xf8000000u);
    EXPECT_EQ(m.outputs()[3].value, 16u);
    EXPECT_EQ(m.outputs()[4].value, 16u);
}

TEST(Exec, MemoryRoundTrip)
{
    auto m = runSeq(
        "li t0, 0x2000\n"
        "li t1, 1234\n"
        "sw t1, 4(t0)\n"
        "lw t2, 4(t0)\n"
        "lw t3, 8(t0)\n"        // never written -> 0
        "out t2, 0\nout t3, 0\n"
        "halt\n");
    EXPECT_EQ(m.outputs()[0].value, 1234u);
    EXPECT_EQ(m.outputs()[1].value, 0u);
}

TEST(Exec, BranchesAndLoop)
{
    auto m = runSeq(
        "    li t0, 5\n"
        "    li t1, 0\n"
        "loop:\n"
        "    add t1, t1, t0\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out t1, 0\n"
        "    halt\n");
    EXPECT_EQ(m.outputs()[0].value, 15u);   // 5+4+3+2+1
}

TEST(Exec, CallAndReturn)
{
    auto m = runSeq(
        "    li a0, 10\n"
        "    call double_it\n"
        "    out a0, 0\n"
        "    halt\n"
        "double_it:\n"
        "    add a0, a0, a0\n"
        "    ret\n");
    EXPECT_EQ(m.outputs()[0].value, 20u);
}

TEST(Exec, JalrComputedTarget)
{
    auto m = runSeq(
        "    la t0, tgt\n"
        "    jalr ra, t0, 0\n"
        "    halt\n"
        "tgt:\n"
        "    out t0, 0\n"
        "    halt\n");
    ASSERT_EQ(m.outputs().size(), 1u);
}

TEST(Exec, RegisterZeroStaysZero)
{
    auto m = runSeq(
        "addi zero, zero, 5\n"
        "out zero, 0\n"
        "halt\n");
    EXPECT_EQ(m.outputs()[0].value, 0u);
}

TEST(Exec, ForkIsNopOutsideMaster)
{
    auto m = runSeq(
        "fork 3\n"
        "li t0, 1\n"
        "out t0, 0\n"
        "halt\n");
    ASSERT_TRUE(m.halted());
    EXPECT_EQ(m.outputs()[0].value, 1u);
}

TEST(Exec, IllegalInstructionFaults)
{
    // Jump into unmapped memory: fetch returns 0, which is illegal.
    Program p = assemble("j nowhere\nnowhere:\n");
    // Overwrite target with a zero word by jumping past end of code.
    SeqMachine m(p);
    m.run(10);
    EXPECT_TRUE(m.faulted());
    EXPECT_FALSE(m.halted());
}

TEST(Exec, HaltCountsAsInstruction)
{
    auto m = runSeq("halt\n");
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(m.instCount(), 1u);
    EXPECT_EQ(m.state().instret(), 1u);
}

TEST(Exec, RunRespectsMaxInsts)
{
    Program p = assemble(
        "loop: j loop\n");
    SeqMachine m(p);
    auto r = m.run(100);
    EXPECT_FALSE(r.halted);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.instCount, 100u);
    // Continuing works.
    auto r2 = m.run(50);
    EXPECT_EQ(r2.instCount, 50u);
    EXPECT_EQ(m.instCount(), 150u);
}

TEST(Exec, ObserverSeesEveryStep)
{
    struct Counter : SeqMachine::Observer
    {
        uint64_t steps = 0;
        uint64_t branches_taken = 0;
        void
        onStep(uint32_t, const StepResult &res) override
        {
            ++steps;
            if (isCondBranch(res.inst.op) && res.branchTaken)
                ++branches_taken;
        }
    };
    Program p = assemble(
        "    li t0, 3\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    halt\n");
    SeqMachine m(p);
    Counter c;
    m.setObserver(&c);
    m.run(1000);
    EXPECT_EQ(c.steps, m.instCount());
    EXPECT_EQ(c.branches_taken, 2u);
}

TEST(Exec, EvalAluHelper)
{
    uint32_t out = 0;
    EXPECT_TRUE(evalAlu(Opcode::Add, 2, 3, out));
    EXPECT_EQ(out, 5u);
    EXPECT_TRUE(evalAlu(Opcode::Lui, 0, 0x12, out));
    EXPECT_EQ(out, 0x120000u);
    EXPECT_FALSE(evalAlu(Opcode::Lw, 0, 0, out));
    EXPECT_FALSE(evalAlu(Opcode::Beq, 0, 0, out));
    EXPECT_FALSE(evalAlu(Opcode::Jal, 0, 0, out));
}

// ---------------------------------------------------------------------
// Tiered execution backends (exec/backend.hh)
// ---------------------------------------------------------------------

constexpr BackendKind kAllTiers[] = {BackendKind::Ref,
                                     BackendKind::BlockJit};

TEST(Backend, NamesRoundTrip)
{
    for (BackendKind kind : kAllTiers) {
        auto parsed = backendFromName(backendName(kind));
        ASSERT_TRUE(parsed.has_value()) << backendName(kind);
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(backendFromName("jit").has_value());
    EXPECT_FALSE(backendFromName("").has_value());
    EXPECT_FALSE(backendFromName("REF").has_value());
    EXPECT_FALSE(backendFromName("threaded").has_value());
}

TEST(Backend, RunRespectsMaxInstsOnEveryTier)
{
    Program p = assemble("loop: j loop\n");
    for (BackendKind kind : kAllTiers) {
        SCOPED_TRACE(backendName(kind));
        SeqMachine m(p);
        m.setBackend(kind);
        auto r = m.run(100);
        EXPECT_FALSE(r.halted);
        EXPECT_FALSE(r.faulted);
        EXPECT_EQ(r.instCount, 100u);
        auto r2 = m.run(50);
        EXPECT_EQ(r2.instCount, 50u);
        EXPECT_EQ(m.instCount(), 150u);
    }
}

TEST(Backend, TiersAgreeOnFaultingProgram)
{
    // The fault pc and retire count must be pinned identically; the
    // blockjit tier must deopt rather than retire past the fault.
    const std::string src =
        "    li t0, 20\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    j nowhere\n"       // falls into unmapped zero words
        "nowhere:\n";
    Program p = assemble(src);
    SeqMachine ref(p);
    ref.setBackend(BackendKind::Ref);
    ref.run(100000);
    ASSERT_TRUE(ref.faulted());
    for (BackendKind kind : kAllTiers) {
        SCOPED_TRACE(backendName(kind));
        SeqMachine m(p);
        m.setBackend(kind);
        m.run(100000);
        EXPECT_TRUE(m.faulted());
        EXPECT_EQ(m.state().pc(), ref.state().pc());
        EXPECT_EQ(m.instCount(), ref.instCount());
        EXPECT_EQ(m.state().instret(), ref.state().instret());
    }
}

TEST(Backend, TiersAgreeOnMmio)
{
    // The MMIO counter is non-idempotent and MMIO writes emit
    // outputs: any replayed or skipped device access diverges.
    const std::string src =
        "    li t0, 0xffff0000\n"
        "    li t2, 5\n"
        "loop:\n"
        "    lw t1, 0(t0)\n"      // counter: 0,1,2,...
        "    sw t1, 4(t0)\n"      // MMIO write -> output
        "    addi t2, t2, -1\n"
        "    bnez t2, loop\n"
        "    halt\n";
    Program p = assemble(src);
    SeqMachine ref(p);
    ref.setBackend(BackendKind::Ref);
    ref.run(100000);
    ASSERT_TRUE(ref.halted());
    ASSERT_EQ(ref.outputs().size(), 5u);
    for (BackendKind kind : kAllTiers) {
        SCOPED_TRACE(backendName(kind));
        SeqMachine m(p);
        m.setBackend(kind);
        m.run(100000);
        EXPECT_TRUE(m.halted());
        EXPECT_EQ(m.outputs(), ref.outputs());
        EXPECT_EQ(m.instCount(), ref.instCount());
    }
}

TEST(Backend, BlockJitCompilesHotLoops)
{
    // 200 iterations of a 3-instruction loop is far past the heat
    // threshold: the tier must actually enter compiled blocks (the
    // whole point of blockjit), not silently single-step everything.
    Program p = assemble(
        "    li t0, 200\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    halt\n");
    SeqMachine m(p);
    m.setBackend(BackendKind::BlockJit);
    m.run(100000);
    ASSERT_TRUE(m.halted());
    ASSERT_NE(m.blockJit(), nullptr);
    EXPECT_GT(m.blockJit()->numBlocks(), 0u);
    EXPECT_GT(m.blockJit()->blocksEntered(), 0u);
    EXPECT_GT(m.blockJit()->instsInBlocks(), 0u);
}

/** Bare ExecContext for engine-level tests: registers + RAM + ports. */
class FlatCtx final : public ExecContext
{
  public:
    explicit FlatCtx(const Program &prog) { state_.loadProgram(prog); }

    uint32_t readReg(unsigned r) override { return state_.readReg(r); }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        state_.writeReg(r, v);
    }
    uint32_t readMem(uint32_t a) override { return state_.readMem(a); }
    void
    writeMem(uint32_t a, uint32_t v) override
    {
        state_.writeMem(a, v);
    }
    uint32_t fetch(uint32_t pc) override { return state_.readMem(pc); }
    void
    output(uint16_t port, uint32_t value) override
    {
        outputs.push_back({port, value});
    }

    OutputStream outputs;

  private:
    ArchState state_;
};

TEST(Backend, InvalidateFlushesCompiledBlocksOnEveryTier)
{
    // Runtime patching (the fault-injection surface): after
    // DecodeCache::invalidate, *every* tier must execute the patched
    // instruction — the blockjit tier through its version flush, not
    // a stale superop block. 100 iterations at +1, patch the body to
    // +2 mid-run, 100 more iterations: t0 must end at exactly 300.
    const std::string src_a =
        "    li t0, 0\n"          // entry+0
        "    li t1, 200\n"        // entry+1
        "loop:\n"
        "    addi t0, t0, 1\n"    // entry+2  <- patched to +2
        "    addi t1, t1, -1\n"   // entry+3
        "    bnez t1, loop\n"     // entry+4
        "    out t0, 0\n"         // entry+5
        "    halt\n";             // entry+6
    const std::string src_b =
        "    li t0, 0\n"
        "    li t1, 200\n"
        "loop:\n"
        "    addi t0, t0, 2\n"
        "    addi t1, t1, -1\n"
        "    bnez t1, loop\n"
        "    out t0, 0\n"
        "    halt\n";
    Program patched_word_src = assemble(src_b);

    for (BackendKind kind : kAllTiers) {
        SCOPED_TRACE(backendName(kind));
        Program prog = assemble(src_a);
        const uint32_t entry = prog.entry();
        DecodeCache dc(prog);
        FlatCtx ctx(prog);
        BlockJit jit(dc);
        auto runOn = [&](uint32_t pc, uint64_t max_steps) {
            return kind == BackendKind::BlockJit
                       ? jit.run(pc, max_steps, ctx)
                       : runRefEngine(dc, pc, max_steps, ctx);
        };

        // First half: exactly 100 iterations (2 setup + 3 per iter),
        // ending with the loop hot and (on blockjit) compiled.
        EngineResult er = runOn(entry, 2 + 3 * 100);
        ASSERT_EQ(er.status, StepStatus::Ok);
        ASSERT_EQ(er.retired, 2u + 3u * 100u);
        ASSERT_EQ(er.pc, entry + 2);   // back at the loop head
        if (kind == BackendKind::BlockJit) {
            ASSERT_GT(jit.blocksEntered(), 0u);
        }

        // Patch the loop body and invalidate its page.
        prog.setWord(entry + 2, patched_word_src.word(entry + 2));
        dc.invalidate(entry + 2);

        // Second half runs the *patched* semantics.
        er = runOn(er.pc, 1000000);
        EXPECT_EQ(er.status, StepStatus::Halted);
        ASSERT_EQ(ctx.outputs.size(), 1u);
        EXPECT_EQ(ctx.outputs[0].value, 100u + 2u * 100u);
    }
}

} // anonymous namespace
} // namespace mssp
