/**
 * @file
 * Unit tests for the speculation-safety classifier
 * (analysis/specsafe.hh): the three-way load lattice, interval
 * overlap corner cases, fork-region reasoning, 100% coverage of
 * static loads, and the dynamic ProvablyInvariant value-change gate
 * (eval/crossval.hh validateSpecSafeDynamic).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/specsafe.hh"
#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "eval/crossval.hh"
#include "helpers.hh"
#include "profile/profiler.hh"

namespace mssp
{
namespace
{

using analysis::LoadClassification;
using analysis::MergedImageAnalysis;
using analysis::SpecSafeReport;
using analysis::analyzeSpecSafe;
using analysis::classifySpecLoads;

/** Distill with explicit fork sites and all approximating branch
 *  rewrites disabled (biasThreshold > 1 means no branch is ever
 *  biased enough), so the distilled code keeps the test's CFG. */
DistilledProgram
distillExact(const Program &prog, std::vector<uint32_t> sites = {})
{
    ProfileData prof = profileProgram(prog, 1000000);
    DistillerOptions opts;
    opts.biasThreshold = 2.0;
    opts.explicitForkSites = std::move(sites);
    return distill(prog, prof, opts);
}

/** classifySpecLoads over a fresh merged-image analysis of @p prog
 *  and @p dist. */
std::vector<LoadClassification>
classify(const Program &prog, const DistilledProgram &dist)
{
    Cfg cfg = Cfg::build(prog, prog.entry());
    analysis::AbsintResult ai = analysis::analyzeProgram(prog, cfg);
    return classifySpecLoads(MergedImageAnalysis(prog, cfg, ai, dist));
}

/** The classification of the (unique) load whose abstract address is
 *  the constant @p addr. */
const LoadClassification *
loadAt(const std::vector<LoadClassification> &loads, uint32_t addr)
{
    for (const LoadClassification &c : loads) {
        if (c.addr.isConst() && c.addr.cval() == addr)
            return &c;
    }
    return nullptr;
}

} // anonymous namespace

TEST(SpecSafe, LoadWithNoAliasingStoreIsProvablyInvariant)
{
    Program prog = assemble("    la t0, cell\n"
                            "    lw t1, 0(t0)\n"
                            "    out t1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "cell: .word 7\n");
    DistilledProgram dist = distillExact(prog);
    auto loads = classify(prog, dist);
    const LoadClassification *c = loadAt(loads, 0x2000);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->cls, LoadSpecClass::ProvablyInvariant);
    EXPECT_EQ(c->storePc, UINT32_MAX);
}

TEST(SpecSafe, KnownAliasingStoreInSharedRegionIsRisky)
{
    // The store and load sit in the same fork region and the store's
    // abstract address equals the load's: the classifier must flag
    // the load and name the interfering store.
    Program prog = assemble("    la t0, cell\n"
                            "    li t2, 9\n"
                            "    sw t2, 0(t0)\n"
                            "    lw t1, 0(t0)\n"
                            "    out t1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "cell: .word 7\n");
    DistilledProgram dist = distillExact(prog);
    auto loads = classify(prog, dist);
    const LoadClassification *c = loadAt(loads, 0x2000);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->cls, LoadSpecClass::Risky);
    // The counterexample names the store and its address interval.
    ASSERT_NE(c->storePc, UINT32_MAX);
    EXPECT_GE(c->storePc, DistilledCodeBase);
    EXPECT_TRUE(c->storeAddr.contains(0x2000)) << c->detail;
}

TEST(SpecSafe, OffByOneIntervalOverlap)
{
    // The store's abstract address joins to the interval
    // [data+1, data+2] (a3 is unknown at entry, so both branch arms
    // survive). The load at data is one word below the interval —
    // provably disjoint; the load at data+1 touches its low edge —
    // risky. An off-by-one in the overlap test flips one of them.
    Program prog = assemble("    la s0, data\n"
                            "    li t0, 2\n"
                            "    bnez a3, store\n"
                            "    li t0, 1\n"
                            "store:\n"
                            "    add t1, s0, t0\n"
                            "    li t2, 5\n"
                            "    sw t2, 0(t1)\n"
                            "    lw t3, 0(s0)\n"
                            "    lw t4, 1(s0)\n"
                            "    out t3, 1\n"
                            "    out t4, 2\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "data: .word 11, 22, 33, 44\n");
    DistilledProgram dist = distillExact(prog);
    auto loads = classify(prog, dist);

    const LoadClassification *below = loadAt(loads, 0x2000);
    ASSERT_NE(below, nullptr);
    EXPECT_EQ(below->cls, LoadSpecClass::ProvablyInvariant)
        << below->detail;

    const LoadClassification *edge = loadAt(loads, 0x2001);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->cls, LoadSpecClass::Risky) << edge->detail;
    ASSERT_NE(edge->storePc, UINT32_MAX);
    EXPECT_TRUE(edge->storeAddr.contains(0x2001));
}

TEST(SpecSafe, CrossForkStoreIsRegionInvariant)
{
    // The load runs in the first fork region, the store in the
    // second; they alias statically but can never share a dynamic
    // inter-fork span, so the load is region-invariant, not risky.
    Program prog = assemble("    li s0, 0\n"
                            "    li s1, 0\n"
                            "    la s2, data\n"
                            "loopA:\n"
                            "    lw t1, 0(s2)\n"
                            "    add s1, s1, t1\n"
                            "    addi s0, s0, 1\n"
                            "    li t3, 50\n"
                            "    blt s0, t3, loopA\n"
                            "    li s0, 0\n"
                            "loopB:\n"
                            "    li t2, 7\n"
                            "    sw t2, 0(s2)\n"
                            "    addi s0, s0, 1\n"
                            "    li t3, 50\n"
                            "    blt s0, t3, loopB\n"
                            "    out s1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "data: .word 5\n");
    uint32_t loop_b = 0;
    ASSERT_TRUE(prog.lookupSymbol("loopB", loop_b));
    DistilledProgram dist = distillExact(prog, {loop_b});
    auto loads = classify(prog, dist);
    const LoadClassification *c = loadAt(loads, 0x2000);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->cls, LoadSpecClass::RegionInvariant) << c->detail;
    ASSERT_NE(c->storePc, UINT32_MAX);
    EXPECT_TRUE(c->storeAddr.contains(0x2000));
}

TEST(SpecSafe, EveryStaticLoadIsClassified)
{
    // 100% coverage by construction: every Lw word in the distilled
    // image carries exactly one classification.
    Program prog = assemble(test::biasedSumSource(150, 3));
    PreparedWorkload w = prepare(prog, prog,
                                 DistillerOptions::paperPreset());
    auto loads = classify(w.orig, w.dist);
    size_t static_loads = 0;
    for (const auto &[addr, word] : w.dist.prog.image()) {
        if (!isLoad(decode(word).op))
            continue;
        ++static_loads;
        EXPECT_TRUE(std::any_of(loads.begin(), loads.end(),
                                [a = addr](const auto &c) {
                                    return c.pc == a;
                                }))
            << strfmt("load at 0x%x unclassified", addr);
    }
    EXPECT_EQ(loads.size(), static_loads);
    EXPECT_GT(static_loads, 0u);
}

TEST(SpecSafe, FreshDistillationValidatesClean)
{
    // A fresh image classifies on demand, with no findings (the
    // .mdo persists no classes to contradict).
    Program prog = assemble(test::biasedSumSource(150, 3));
    PreparedWorkload w = prepare(prog, prog,
                                 DistillerOptions::paperPreset());
    SpecSafeReport rep = analyzeSpecSafe(w.orig, w.dist);
    EXPECT_FALSE(rep.loads.empty());
    EXPECT_EQ(rep.lint.errors(), 0u) << rep.lint.toText();
}

TEST(SpecSafe, JsonReportIsDeterministicAndVersioned)
{
    Program prog = assemble(test::biasedSumSource(150, 3));
    PreparedWorkload w = prepare(prog, prog,
                                 DistillerOptions::paperPreset());
    SpecSafeReport rep = analyzeSpecSafe(w.orig, w.dist);
    std::string a = rep.toJson("x");
    std::string b = analyzeSpecSafe(w.orig, w.dist).toJson("x");
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"mssp-specsafe-v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"workload\": \"x\""), std::string::npos);
}

TEST(SpecSafeDynamic, ProvablyInvariantLoadsNeverChangeValue)
{
    Program prog = assemble(test::biasedSumSource(150, 3));
    PreparedWorkload w = prepare(prog, prog,
                                 DistillerOptions::paperPreset());
    auto loads = classify(w.orig, w.dist);
    SpecSafeDynamicResult dyn =
        validateSpecSafeDynamic(w.orig, w.dist, loads);
    EXPECT_EQ(dyn.valueChanges, 0u) << dyn.firstViolation;
}

TEST(SpecSafeDynamic, FalsePromotionIsCaughtAtRuntime)
{
    // A load that reads a counter its own loop increments is Risky;
    // hand-promote it to ProvablyInvariant and the dynamic gate must
    // observe the value changing.
    Program prog = assemble("    la s2, cell\n"
                            "    li s0, 0\n"
                            "loop:\n"
                            "    lw t1, 0(s2)\n"
                            "    addi t1, t1, 1\n"
                            "    sw t1, 0(s2)\n"
                            "    addi s0, s0, 1\n"
                            "    li t3, 10\n"
                            "    blt s0, t3, loop\n"
                            "    out t1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "cell: .word 0\n");
    DistilledProgram dist = distillExact(prog);
    auto loads = classify(prog, dist);
    LoadClassification *counter = nullptr;
    for (LoadClassification &c : loads) {
        if (c.addr.isConst() && c.addr.cval() == 0x2000)
            counter = &c;
    }
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->cls, LoadSpecClass::Risky);

    counter->cls = LoadSpecClass::ProvablyInvariant;  // the lie
    SpecSafeDynamicResult dyn =
        validateSpecSafeDynamic(prog, dist, loads);
    EXPECT_EQ(dyn.checkedLoads, 1u);
    EXPECT_GT(dyn.observations, 1u);
    EXPECT_GT(dyn.valueChanges, 0u);
    EXPECT_FALSE(dyn.firstViolation.empty());
}

} // namespace mssp
