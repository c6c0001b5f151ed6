/**
 * @file
 * Fuzz gate for the value-flow analysis and speculation planner:
 * every random program family seed is distilled at the paper preset,
 * its plan is computed with zero error findings, and every Proven
 * candidate's predicted value is checked differentially
 * against a bounded SEQ replay of the merged image — a Proven
 * prediction that a real execution contradicts is a soundness bug in
 * the value-flow analysis, never acceptable. Likely candidates only
 * accumulate hit rates; they are allowed to miss.
 *
 * Runs 25 seeds by default (fast enough for ctest); the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_valueflow_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/specplan.hh"
#include "core/pipeline.hh"
#include "eval/crossval.hh"
#include "helpers.hh"
#include "workloads/random_program.hh"

namespace mssp
{
namespace
{

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

} // anonymous namespace

TEST(ValueFlowFuzz, ProvenPredictionsSurviveLockstepExecution)
{
    unsigned iters = fuzzIters();
    size_t total_candidates = 0;
    size_t total_proven = 0;
    uint64_t total_observations = 0;

    for (uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());

        // Plan the image on demand; no error finding.
        analysis::SpecPlanReport rep =
            analysis::analyzeSpecPlan(w.orig, w.dist);
        EXPECT_EQ(rep.lint.errors(), 0u) << rep.lint.toText();
        total_candidates += rep.candidates.size();
        total_proven += rep.proven();

        // Differential check: no bounded replay of the merged image
        // may contradict a Proven predicted value (zero false
        // predictions, the fuzz gate's point).
        SpecPlanDynamicResult dyn = validateSpecPlanDynamic(
            w.orig, w.dist, rep.candidates);
        EXPECT_EQ(dyn.provenMismatches, 0u) << dyn.firstViolation;
        for (const SpecPlanCandidateDyn &c : dyn.candidates) {
            if (c.proof == ValueProof::Proven)
                total_observations += c.observations;
        }
    }

    // The gate must not pass vacuously: over the seed range the
    // planner does prove candidates and execution does exercise
    // them.
    EXPECT_GT(total_candidates, 0u);
    EXPECT_GT(total_proven, 0u);
    EXPECT_GT(total_observations, 0u);
}

} // namespace mssp
