/**
 * @file
 * Unit tests for the value-flow analysis (analysis/valueflow.hh) and
 * the speculation planner (analysis/specplan.hh): the forwarding
 * fact rules (invariant image word, flow-sensitive store-to-load
 * forwarding, feasible-set Likely demotion), plan ranking, JSON
 * determinism, and the
 * dynamic Proven prediction gate (eval/crossval.hh
 * validateSpecPlanDynamic).
 */

#include <gtest/gtest.h>


#include "analysis/specplan.hh"
#include "analysis/valueflow.hh"
#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "eval/crossval.hh"
#include "helpers.hh"
#include "profile/profiler.hh"

namespace mssp
{
namespace
{

using analysis::LoadValueFact;
using analysis::MergedImageAnalysis;
using analysis::SpecPlanCandidate;
using analysis::SpecPlanReport;
using analysis::ValueFlowResult;
using analysis::analyzeSpecPlan;
using analysis::analyzeValueFlow;
using analysis::classifySpecLoads;
using analysis::planSpeculation;

/** Distill with explicit fork sites and all approximating branch
 *  rewrites disabled, keeping the test's CFG (see test_specsafe). */
DistilledProgram
distillExact(const Program &prog, std::vector<uint32_t> sites = {})
{
    ProfileData prof = profileProgram(prog, 1000000);
    DistillerOptions opts;
    opts.biasThreshold = 2.0;
    opts.explicitForkSites = std::move(sites);
    return distill(prog, prof, opts);
}

ValueFlowResult
valueFlowOf(const Program &prog, const DistilledProgram &dist)
{
    Cfg cfg = Cfg::build(prog, prog.entry());
    analysis::AbsintResult ai = analysis::analyzeProgram(prog, cfg);
    MergedImageAnalysis mia(prog, cfg, ai, dist);
    return analyzeValueFlow(mia, classifySpecLoads(mia));
}

/** The fact for the (unique) load reading constant @p addr. */
const LoadValueFact *
factForAddr(const ValueFlowResult &vf, uint32_t addr)
{
    for (const LoadValueFact &f : vf.facts) {
        if (f.addr == addr)
            return &f;
    }
    return nullptr;
}

/** A one-store-then-loop program: the entry region rewrites the cell
 *  from its image word 5 to 7 before the fork region's load ever
 *  runs, so flow-sensitive forwarding must predict 7, not 5. */
Program
forwardedCellProgram()
{
    return assemble("    la s2, data\n"
                    "    li t2, 7\n"
                    "    sw t2, 0(s2)\n"
                    "    li s0, 0\n"
                    "    li s1, 0\n"
                    "loopB:\n"
                    "    lw t1, 0(s2)\n"
                    "    add s1, s1, t1\n"
                    "    addi s0, s0, 1\n"
                    "    li t3, 50\n"
                    "    blt s0, t3, loopB\n"
                    "    out s1, 1\n"
                    "    halt\n"
                    ".org 0x2000\n"
                    "data: .word 5\n");
}

DistilledProgram
distillAtLoopB(const Program &prog)
{
    uint32_t loop_b = 0;
    EXPECT_TRUE(prog.lookupSymbol("loopB", loop_b));
    return distillExact(prog, {loop_b});
}

} // anonymous namespace

TEST(ValueFlow, UntouchedWordForwardsTheImageConstant)
{
    // No store anywhere: the load must be a Proven fact predicting
    // the image word.
    Program prog = assemble("    la t0, cell\n"
                            "    lw t1, 0(t0)\n"
                            "    out t1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "cell: .word 7\n");
    DistilledProgram dist = distillExact(prog);
    ValueFlowResult vf = valueFlowOf(prog, dist);
    const LoadValueFact *f = factForAddr(vf, 0x2000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->proof, ValueProof::Proven);
    EXPECT_EQ(f->value, 7u);
    EXPECT_EQ(f->feasible, std::vector<uint32_t>{7u});
    EXPECT_EQ(f->storePc, UINT32_MAX);
}

TEST(ValueFlow, StoreToLoadForwardingBeatsTheImageWord)
{
    // The entry-region store rewrites the cell before the fork
    // region's load: a flow-insensitive analysis would predict the
    // image word 5; the flow-sensitive fact must say 7.
    Program prog = forwardedCellProgram();
    DistilledProgram dist = distillAtLoopB(prog);

    ValueFlowResult vf = valueFlowOf(prog, dist);
    const LoadValueFact *f = factForAddr(vf, 0x2000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->cls, LoadSpecClass::RegionInvariant);
    EXPECT_EQ(f->proof, ValueProof::Proven) << f->detail;
    EXPECT_EQ(f->value, 7u) << f->detail;
}

TEST(ValueFlow, ConditionalStoreDemotesToLikelyWithFeasibleSet)
{
    // The store only runs on one arm of a branch the analysis cannot
    // decide (a3 is unknown at entry): the cell holds 5 or 7 at the
    // load, so the fact demotes to Likely, carries both feasible
    // constants, predicts the image word, and names the store.
    Program prog = assemble("    la s2, data\n"
                            "    li t2, 7\n"
                            "    beqz a3, skip\n"
                            "    sw t2, 0(s2)\n"
                            "skip:\n"
                            "    li s0, 0\n"
                            "    li s1, 0\n"
                            "loopB:\n"
                            "    lw t1, 0(s2)\n"
                            "    add s1, s1, t1\n"
                            "    addi s0, s0, 1\n"
                            "    li t3, 50\n"
                            "    blt s0, t3, loopB\n"
                            "    out s1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "data: .word 5\n");
    DistilledProgram dist = distillAtLoopB(prog);
    ValueFlowResult vf = valueFlowOf(prog, dist);
    const LoadValueFact *f = factForAddr(vf, 0x2000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->proof, ValueProof::Likely) << f->detail;
    EXPECT_EQ(f->value, 5u);
    EXPECT_EQ(f->feasible, (std::vector<uint32_t>{5u, 7u}));
    EXPECT_NE(f->storePc, UINT32_MAX);
}

TEST(SpecPlan, ProvenOutranksLikelyAndOrderIsByBenefit)
{
    // Same program as the Likely test plus an untouched second cell:
    // the Proven candidate (certainty 1) must outrank the Likely one
    // (certainty 1/2), and the list must be benefit-descending.
    Program prog = assemble("    la s2, data\n"
                            "    la s3, other\n"
                            "    li t2, 7\n"
                            "    beqz a3, skip\n"
                            "    sw t2, 0(s2)\n"
                            "skip:\n"
                            "    li s0, 0\n"
                            "    li s1, 0\n"
                            "loopB:\n"
                            "    lw t1, 0(s2)\n"
                            "    lw t4, 0(s3)\n"
                            "    add s1, s1, t1\n"
                            "    add s1, s1, t4\n"
                            "    addi s0, s0, 1\n"
                            "    li t3, 50\n"
                            "    blt s0, t3, loopB\n"
                            "    out s1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "data: .word 5\n"
                            ".org 0x2100\n"
                            "other: .word 9\n");
    DistilledProgram dist = distillAtLoopB(prog);
    std::vector<SpecPlanCandidate> plan =
        planSpeculation(dist, valueFlowOf(prog, dist));
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].proof, ValueProof::Proven);
    EXPECT_EQ(plan[0].addr, 0x2100u);
    EXPECT_EQ(plan[1].proof, ValueProof::Likely);
    EXPECT_EQ(plan[1].addr, 0x2000u);
    EXPECT_GT(plan[0].benefitMicro, plan[1].benefitMicro);
}

TEST(SpecPlan, FreshDistillationValidatesClean)
{
    Program prog = forwardedCellProgram();
    DistilledProgram dist = distillAtLoopB(prog);
    SpecPlanReport rep = analyzeSpecPlan(prog, dist);
    ASSERT_FALSE(rep.candidates.empty());
    EXPECT_EQ(rep.lint.errors(), 0u) << rep.lint.toText();
    EXPECT_GE(rep.proven(), 1u);
}

TEST(SpecPlan, JsonReportIsDeterministicAndVersioned)
{
    Program prog = forwardedCellProgram();
    DistilledProgram dist = distillAtLoopB(prog);
    SpecPlanReport rep = analyzeSpecPlan(prog, dist);
    std::string a = rep.toJson("x");
    std::string b = analyzeSpecPlan(prog, dist).toJson("x");
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"mssp-specplan-v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"workload\": \"x\""), std::string::npos);
    // The embedded lint object names its own schema (docs/SCHEMAS.md).
    EXPECT_NE(a.find("\"schema\": \"mssp-lint-v1\""),
              std::string::npos);
}

TEST(SpecPlanDynamic, ProvenPredictionsMatchTheReplay)
{
    Program prog = forwardedCellProgram();
    DistilledProgram dist = distillAtLoopB(prog);
    std::vector<SpecPlanCandidate> plan =
        planSpeculation(dist, valueFlowOf(prog, dist));
    ASSERT_FALSE(plan.empty());
    SpecPlanDynamicResult dyn =
        validateSpecPlanDynamic(prog, dist, plan);
    EXPECT_EQ(dyn.provenMismatches, 0u) << dyn.firstViolation;
    uint64_t observations = 0;
    for (const SpecPlanCandidateDyn &c : dyn.candidates)
        observations += c.observations;
    EXPECT_GT(observations, 0u);
}

TEST(SpecPlanDynamic, FalsePredictionIsCaughtAtRuntime)
{
    Program prog = forwardedCellProgram();
    DistilledProgram dist = distillAtLoopB(prog);
    std::vector<SpecPlanCandidate> plan =
        planSpeculation(dist, valueFlowOf(prog, dist));
    ASSERT_FALSE(plan.empty());
    ASSERT_EQ(plan[0].proof, ValueProof::Proven);
    plan[0].value ^= 1;  // the lie
    SpecPlanDynamicResult dyn =
        validateSpecPlanDynamic(prog, dist, plan);
    EXPECT_GT(dyn.provenMismatches, 0u);
    EXPECT_FALSE(dyn.firstViolation.empty());
}

TEST(SpecPlanDynamic, LikelyCandidatesAccumulateHitRates)
{
    // At runtime a3 is 0, the conditional store never runs, and the
    // Likely candidate's image-word prediction hits every time.
    Program prog = assemble("    la s2, data\n"
                            "    li t2, 7\n"
                            "    beqz a3, skip\n"
                            "    sw t2, 0(s2)\n"
                            "skip:\n"
                            "    li s0, 0\n"
                            "    li s1, 0\n"
                            "loopB:\n"
                            "    lw t1, 0(s2)\n"
                            "    add s1, s1, t1\n"
                            "    addi s0, s0, 1\n"
                            "    li t3, 50\n"
                            "    blt s0, t3, loopB\n"
                            "    out s1, 1\n"
                            "    halt\n"
                            ".org 0x2000\n"
                            "data: .word 5\n");
    DistilledProgram dist = distillAtLoopB(prog);
    std::vector<SpecPlanCandidate> plan =
        planSpeculation(dist, valueFlowOf(prog, dist));
    ASSERT_FALSE(plan.empty());
    ASSERT_EQ(plan[0].proof, ValueProof::Likely);
    SpecPlanDynamicResult dyn =
        validateSpecPlanDynamic(prog, dist, plan);
    EXPECT_GT(dyn.likelyObservations, 0u);
    EXPECT_EQ(dyn.likelyHits, dyn.likelyObservations);
    EXPECT_EQ(dyn.provenMismatches, 0u);
}

} // namespace mssp
