/**
 * @file
 * Differential fuzz gate for the tiered execution backends.
 *
 * Every random program family seed runs in lockstep on all three
 * tiers (ref / threaded / blockjit); the final architectural state —
 * halt/fault flags, retire counts, outputs, pc, every register,
 * instret and the full nonzero memory image — must be byte-identical.
 * T0 is the semantic oracle (exec/backend.hh); any divergence is a
 * bug in the faster tier, never acceptable.
 *
 * The same gate runs the full MSSP machine and the profiler per tier:
 * the backend is a pure execution-speed knob, so speedup results and
 * distillation profiles must not depend on it.
 *
 * Runs 25 seeds by default (fast enough for ctest); the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_backend_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "exec/seq_machine.hh"
#include "mssp/machine.hh"
#include "profile/profiler.hh"
#include "sim/logging.hh"
#include "workloads/random_program.hh"

namespace mssp
{
namespace
{

constexpr BackendKind kTiers[] = {
    BackendKind::Ref, BackendKind::Threaded, BackendKind::BlockJit};

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
            ref, runSeqOn(prog, BackendKind::Threaded, 10000000),
            BackendKind::Threaded);
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

TEST(BackendFuzz, MsspMachineIsBackendInvariant)
{
    // The full machine (master + slaves + SEQ fallback) must produce
    // the same committed results and the same *timing* on every tier:
    // the backend changes host speed, never simulated behavior.
    unsigned iters = std::min(fuzzIters(), 10u);
    for (uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());

        MsspConfig cfg;
        cfg.execBackend = BackendKind::Ref;
        MsspMachine refm(w.orig, w.dist, cfg);
        MsspResult ref = refm.run(10000000ull);

        for (BackendKind tier :
             {BackendKind::Threaded, BackendKind::BlockJit}) {
            SCOPED_TRACE(backendName(tier));
            MsspConfig tcfg;
            tcfg.execBackend = tier;
            MsspMachine m(w.orig, w.dist, tcfg);
            MsspResult got = m.run(10000000ull);
            EXPECT_EQ(ref.stopReason, got.stopReason);
            EXPECT_EQ(ref.cycles, got.cycles);
            EXPECT_EQ(ref.committedInsts, got.committedInsts);
            EXPECT_EQ(ref.outputs, got.outputs);
            EXPECT_EQ(refm.counters(), m.counters());
        }
    }
}

TEST(BackendFuzz, ProfilerIsBackendInvariant)
{
    unsigned iters = std::min(fuzzIters(), 10u);
    for (uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        ProfileData ref =
            profileProgram(prog, 10000000, BackendKind::Ref);
        for (BackendKind tier :
             {BackendKind::Threaded, BackendKind::BlockJit}) {
            SCOPED_TRACE(backendName(tier));
            ProfileData got = profileProgram(prog, 10000000, tier);
            EXPECT_EQ(ref.totalInsts, got.totalInsts);
            EXPECT_EQ(ref.ranToCompletion, got.ranToCompletion);
            EXPECT_EQ(ref.pcCount, got.pcCount);
            EXPECT_EQ(ref.writtenAddrs, got.writtenAddrs);
            ASSERT_EQ(ref.branches.size(), got.branches.size());
            for (const auto &[pc, bp] : ref.branches) {
                auto it = got.branches.find(pc);
                ASSERT_NE(it, got.branches.end());
                EXPECT_EQ(bp.taken, it->second.taken);
                EXPECT_EQ(bp.total, it->second.total);
            }
            ASSERT_EQ(ref.loads.size(), got.loads.size());
            for (const auto &[pc, lp] : ref.loads) {
                auto it = got.loads.find(pc);
                ASSERT_NE(it, got.loads.end());
                EXPECT_EQ(lp.count, it->second.count);
                EXPECT_EQ(lp.sameAsFirst, it->second.sameAsFirst);
                EXPECT_EQ(lp.sameAddr, it->second.sameAddr);
            }
            ASSERT_EQ(ref.stores.size(), got.stores.size());
            for (const auto &[pc, sp] : ref.stores) {
                auto it = got.stores.find(pc);
                ASSERT_NE(it, got.stores.end());
                EXPECT_EQ(sp.count, it->second.count);
                EXPECT_EQ(sp.silent, it->second.silent);
            }
        }
    }
}

} // namespace mssp
