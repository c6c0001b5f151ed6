/**
 * @file
 * Shared helpers for the test suite: tiny workload programs and
 * SEQ-vs-MSSP equivalence checking.
 */

#ifndef MSSP_TESTS_HELPERS_HH
#define MSSP_TESTS_HELPERS_HH

#include <gtest/gtest.h>

#include <string>

#include "core/mssp_api.hh"
#include "sim/rng.hh"

namespace mssp::test
{

/**
 * A loop-heavy test program: sums an array with a heavily biased rare
 * branch (taken when element % 64 == 0) and a nested re-scan every
 * 16 elements. Data is seeded so that train/ref differ.
 */
inline std::string
biasedSumSource(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::string data;
    for (unsigned i = 0; i < n; ++i) {
        if (i > 0)
            data += (i % 8 == 0) ? "\n.word " : ", ";
        data += std::to_string(rng.range(1, 1 << 20));
    }
    return strfmt(
        "    .equ N, %u\n"
        "    li s0, 0\n"
        "    la s2, data\n"
        "    li s3, 0\n"
        "loop:\n"
        "    add t0, s2, s0\n"
        "    lw t1, 0(t0)\n"
        "    add s3, s3, t1\n"
        "    andi t2, t1, 63\n"
        "    bnez t2, skip\n"
        "    addi s3, s3, 100\n"     // rare path
        "    out s3, 7\n"
        "skip:\n"
        "    addi s0, s0, 1\n"
        "    li t3, N\n"
        "    blt s0, t3, loop\n"
        "    out s3, 1\n"
        "    halt\n"
        ".org 0x8000\n"
        "data: .word %s\n",
        n, data.c_str());
}

/** A program with a function call in the hot loop. */
inline std::string
callLoopSource(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::string data;
    for (unsigned i = 0; i < n; ++i) {
        data += std::to_string(rng.range(0, 255));
        if (i + 1 < n)
            data += ", ";
    }
    return strfmt(
        "    .equ N, %u\n"
        "    li s0, 0\n"
        "    li s1, 0\n"
        "loop:\n"
        "    la t0, data\n"
        "    add t0, t0, s0\n"
        "    lw a0, 0(t0)\n"
        "    call hashstep\n"
        "    add s1, s1, a0\n"
        "    addi s0, s0, 1\n"
        "    li t1, N\n"
        "    blt s0, t1, loop\n"
        "    out s1, 2\n"
        "    halt\n"
        "hashstep:\n"
        "    slli t2, a0, 3\n"
        "    xor a0, a0, t2\n"
        "    srli t2, a0, 5\n"
        "    add a0, a0, t2\n"
        "    andi a0, a0, 0xffff\n"
        "    ret\n"
        ".org 0x9000\n"
        "data: .word %s\n",
        n, data.c_str());
}

/** Assert an MSSP run is output- and instret-equivalent to SEQ. */
inline void
expectEquivalent(const Program &orig, const MsspResult &mssp_result)
{
    SeqMachine seq(orig);
    seq.run(100000000ull);
    ASSERT_TRUE(seq.halted()) << "SEQ oracle did not halt";
    ASSERT_TRUE(mssp_result.halted)
        << "MSSP did not halt (cycles=" << mssp_result.cycles << ")";
    EXPECT_EQ(mssp_result.outputs, seq.outputs());
    EXPECT_EQ(mssp_result.committedInsts, seq.instCount());
}

/** Prepare + run MSSP + check equivalence; returns the result. */
inline MsspResult
runAndCheck(const std::string &ref_src, const std::string &train_src,
            const MsspConfig &cfg, const DistillerOptions &dopts = {},
            uint64_t max_cycles = 200000000ull)
{
    PreparedWorkload w = prepare(ref_src, train_src, dopts);
    MsspMachine machine(w.orig, w.dist, cfg);
    MsspResult result = machine.run(max_cycles);
    expectEquivalent(w.orig, result);
    return result;
}

/**
 * Installing this on a SeqMachine moves it from its unobserved run
 * path (blockjit) to the observed one: step() per instruction, i.e.
 * executeDecodedOn, the reference semantics. Tests use the observed
 * path as the oracle for the unobserved one.
 */
struct NoopObserver final : SeqMachine::Observer
{
    void onStep(uint32_t, const StepResult &) override {}
};

} // namespace mssp::test

#endif // MSSP_TESTS_HELPERS_HH
