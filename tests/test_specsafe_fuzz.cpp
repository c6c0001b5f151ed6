/**
 * @file
 * Fuzz gate for the speculation-safety classifier: every random
 * program family seed is distilled at the paper preset, its loads
 * are classified with zero error findings, and every
 * ProvablyInvariant verdict is checked differentially against
 * a bounded SEQ replay of the merged image — a provably-invariant
 * load that a real execution sees changing value is a soundness bug
 * in the alias analysis, never acceptable.
 *
 * Runs 25 seeds by default (fast enough for ctest); the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_specsafe_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/specsafe.hh"
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

TEST(SpecSafeFuzz, InvariantVerdictsSurviveLockstepExecution)
{
    unsigned iters = fuzzIters();
    size_t total_loads = 0;
    size_t total_invariant = 0;
    uint64_t total_observations = 0;

    for (uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());

        // Classify the image on demand; no error finding.
        analysis::SpecSafeReport rep =
            analysis::analyzeSpecSafe(w.orig, w.dist);
        EXPECT_EQ(rep.lint.errors(), 0u) << rep.lint.toText();
        total_loads += rep.loads.size();
        total_invariant += rep.provablyInvariant();

        // Differential check: no bounded replay of the merged image
        // may contradict a ProvablyInvariant claim (zero false
        // invariance, the fuzz gate's point).
        SpecSafeDynamicResult dyn =
            validateSpecSafeDynamic(w.orig, w.dist, rep.loads);
        EXPECT_EQ(dyn.valueChanges, 0u) << dyn.firstViolation;
        total_observations += dyn.observations;
    }

    // The gate must not pass vacuously: over the seed range the
    // classifier does prove loads invariant and execution does
    // exercise them.
    EXPECT_GT(total_loads, 0u);
    EXPECT_GT(total_invariant, 0u);
    EXPECT_GT(total_observations, 0u);
}

} // namespace mssp
