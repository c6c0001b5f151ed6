/**
 * @file
 * Differential fuzz gate for the tiered execution backends.
 *
 * Every random program family seed runs in lockstep on both tiers
 * (ref / blockjit); the final architectural state — halt/fault flags,
 * retire counts, outputs, pc, every register, instret and the full
 * nonzero memory image — must be byte-identical. ref is the semantic
 * oracle (exec/backend.hh); any divergence is a bug in blockjit, never
 * acceptable.
 *
 * Runs 25 seeds by default (fast enough for ctest); the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_backend_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "asm/assembler.hh"
#include "exec/seq_machine.hh"
#include "sim/logging.hh"
#include "workloads/random_program.hh"

namespace mssp
{
namespace
{

constexpr BackendKind kTiers[] = {BackendKind::Ref,
                                  BackendKind::BlockJit};

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

/** Everything a SEQ run architecturally produced. */
struct SeqFingerprint
{
    bool halted = false;
    bool faulted = false;
    uint64_t instCount = 0;
    uint64_t instret = 0;
    uint32_t pc = 0;
    std::vector<uint32_t> regs;
    OutputStream outputs;
    std::vector<std::pair<uint32_t, uint32_t>> mem;
};

SeqFingerprint
runSeqOn(const Program &prog, BackendKind tier, uint64_t max_insts)
{
    SeqMachine m(prog);
    m.setBackend(tier);
    m.run(max_insts);
    SeqFingerprint fp;
    fp.halted = m.halted();
    fp.faulted = m.faulted();
    fp.instCount = m.instCount();
    fp.instret = m.state().instret();
    fp.pc = m.state().pc();
    for (unsigned r = 0; r < NumRegs; ++r)
        fp.regs.push_back(m.state().readReg(r));
    fp.outputs = m.outputs();
    fp.mem = m.state().mem().nonzeroWords();
    return fp;
}

void
expectIdentical(const SeqFingerprint &ref, const SeqFingerprint &got,
                BackendKind tier)
{
    SCOPED_TRACE(strfmt("tier %s", backendName(tier)));
    EXPECT_EQ(ref.halted, got.halted);
    EXPECT_EQ(ref.faulted, got.faulted);
    EXPECT_EQ(ref.instCount, got.instCount);
    EXPECT_EQ(ref.instret, got.instret);
    EXPECT_EQ(ref.pc, got.pc);
    EXPECT_EQ(ref.regs, got.regs);
    EXPECT_EQ(ref.outputs, got.outputs);
    EXPECT_EQ(ref.mem, got.mem);
}

void
lockstepSeeds(const RandomProgramOptions &opts, uint64_t seed_base,
              unsigned iters)
{
    for (uint64_t seed = seed_base; seed < seed_base + iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed, opts));
        SeqFingerprint ref =
            runSeqOn(prog, BackendKind::Ref, 10000000);
        EXPECT_TRUE(ref.halted || ref.faulted);
        expectIdentical(
            ref, runSeqOn(prog, BackendKind::BlockJit, 10000000),
            BackendKind::BlockJit);
    }
}

} // anonymous namespace

TEST(BackendFuzz, TiersRetireIdenticalArchitecturalState)
{
    lockstepSeeds({}, 1, fuzzIters());
}

TEST(BackendFuzz, TiersAgreeOnMmioPrograms)
{
    // Non-idempotent device reads and MMIO-port writes: the blockjit
    // tier must not fuse, reorder or replay device accesses.
    RandomProgramOptions opts;
    opts.allowMmio = true;
    lockstepSeeds(opts, 1000, fuzzIters());
}

TEST(BackendFuzz, TiersAgreeUnderTightBudgets)
{
    // Re-running a machine in small budget slices forces the blockjit
    // tier through its deopt path (block longer than the remaining
    // budget) at every slice boundary; the retire counts must still
    // line up exactly with the oracle's.
    unsigned iters = std::min(fuzzIters(), 10u);
    for (uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        for (BackendKind tier : kTiers) {
            SCOPED_TRACE(backendName(tier));
            SeqMachine oracle(prog);
            oracle.setBackend(BackendKind::Ref);
            oracle.run(1000000);
            SeqMachine sliced(prog);
            sliced.setBackend(tier);
            uint64_t total = 0;
            while (!sliced.halted() && !sliced.faulted() &&
                   total < 1000000) {
                auto r = sliced.run(7);
                total += r.instCount;
            }
            EXPECT_EQ(oracle.halted(), sliced.halted());
            EXPECT_EQ(oracle.instCount(), sliced.instCount());
            EXPECT_EQ(oracle.outputs(), sliced.outputs());
            EXPECT_EQ(oracle.state().pc(), sliced.state().pc());
        }
    }
}

} // namespace mssp
