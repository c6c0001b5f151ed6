/**
 * @file
 * Static-risk vs. dynamic-misspeculation cross-validation gate, run
 * on runSuite (eval/suite.hh), the path mssp-suite and perfbench
 * take: over every registry workload, a distillation whose edits are
 * all Proven must produce zero divergence squashes on the full MSSP
 * machine, no ProvablyInvariant load may change value and no Proven
 * plan candidate may miss its prediction in the SEQ replays
 * (eval/crossval.hh). The same run also holds the suite to its
 * sharding contract: the JSON report is byte-identical at --jobs 1
 * and --jobs 4.
 */

#include <gtest/gtest.h>

#include "eval/suite.hh"
#include "helpers.hh"

namespace mssp
{

namespace
{

SuiteReport
crossvalSuite(unsigned jobs)
{
    SuiteOptions opts;
    opts.scale = 0.15;
    opts.runMaxCycles = 80'000'000;
    opts.jobs = jobs;
    return runSuite(opts);
}

} // anonymous namespace

TEST(CrossVal, StaticRiskConsistentWithDynamicSquashes)
{
    setQuiet(true);
    SuiteReport rep = crossvalSuite(4);

    EXPECT_TRUE(rep.evalQuarantine.empty()) << rep.summary();
    ASSERT_EQ(rep.workloads.size(), 12u);
    size_t rows_with_proven = 0;
    for (const SuiteWorkloadResult &r : rep.workloads) {
        EXPECT_TRUE(r.run.ok) << r.name << " did not run to completion";
        EXPECT_EQ(r.semanticErrors, 0u) << r.name;
        EXPECT_EQ(r.proven + r.risky + r.unknown, r.edits) << r.name;
        // Every static load carries a class, the persisted metadata
        // re-validates, and no ProvablyInvariant load ever changed
        // value during the SEQ replay — a nonzero count falsifies
        // the alias analysis and is a test failure, not a warning.
        EXPECT_GT(r.specLoads, 0u) << r.name;
        EXPECT_EQ(r.specProvablyInvariant + r.specRegionInvariant +
                      r.specRisky,
                  r.specLoads)
            << r.name;
        EXPECT_EQ(r.specErrors, 0u) << r.name;
        EXPECT_EQ(r.specViolations, 0u)
            << r.name
            << ": a provably-invariant load changed value at runtime";
        // The speculation plan re-validates and no Proven candidate
        // ever read a value other than its prediction during the SEQ
        // replay — one mismatch falsifies the value-flow analysis.
        EXPECT_EQ(r.planErrors, 0u) << r.name;
        EXPECT_EQ(r.planProvenMismatches, 0u)
            << r.name
            << ": a Proven plan candidate read an unpredicted value";
        EXPECT_EQ(r.planProven + r.planLikely, r.planCandidates)
            << r.name;
        rows_with_proven += r.planProven > 0 ? 1 : 0;
        EXPECT_TRUE(r.consistent)
            << r.name << ": all-proven workload squashed "
            << r.divergenceSquashes << " tasks on divergence";
    }
    // Non-vacuity: the planner proves candidates on most of the
    // registry, not just one lucky workload (gzip legitimately has
    // none — all its loads are risky).
    EXPECT_GE(rows_with_proven, 8u) << rep.summary();

    // The sharding contract (DESIGN.md §10): canonical job indices
    // and canonical merge order make the report independent of the
    // host thread count, campaign block included.
    EXPECT_EQ(rep.toJson(), crossvalSuite(1).toJson());
}

} // namespace mssp
