/**
 * @file
 * The online squash-feedback adaptation loop (eval/adapt.hh).
 *
 * Under test: the loop converges within its bound on healthy
 * workloads (nothing worth de-speculating), is a deterministic pure
 * function of its inputs, and — in the fault-injection configuration
 * that makes verification tasks squash — de-speculates at least one
 * baked load while the final image stays SEQ-equivalent. The
 * generation counter it stamps must survive .mdo persistence.
 */

#include <gtest/gtest.h>

#include <string>

#include "asm/objfile.hh"
#include "eval/adapt.hh"
#include "helpers.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

PreparedWorkload
prepareWorkload(const std::string &name, double scale = 0.05)
{
    setQuiet(true);
    Workload wl = workloadByName(name, scale);
    return prepare(wl.refSource, wl.trainSource,
                   DistillerOptions::paperPreset());
}

} // anonymous namespace

TEST(Adapt, ConvergesWithoutFaultsAndKeepsEveryBake)
{
    PreparedWorkload w = prepareWorkload("mcf");
    AdaptOptions aopts;
    AdaptResult r = adaptSpeculation(
        w.orig, w.profile, DistillerOptions::paperPreset(), aopts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations.size(), aopts.maxIters);
    // Proven bakes never mispredict, so nothing gets de-speculated.
    EXPECT_TRUE(r.despeculated.empty());
    ASSERT_FALSE(r.iterations.empty());
    EXPECT_GE(r.iterations.back().baked, 1u);
    EXPECT_TRUE(r.iterations.back().halted);
}

TEST(Adapt, LoopIsDeterministic)
{
    PreparedWorkload w = prepareWorkload("bzip2");
    AdaptOptions aopts;
    AdaptResult a = adaptSpeculation(
        w.orig, w.profile, DistillerOptions::paperPreset(), aopts);
    AdaptResult b = adaptSpeculation(
        w.orig, w.profile, DistillerOptions::paperPreset(), aopts);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.despeculated, b.despeculated);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (size_t i = 0; i < a.iterations.size(); ++i) {
        EXPECT_EQ(a.iterations[i].baked, b.iterations[i].baked);
        EXPECT_EQ(a.iterations[i].squashEvents,
                  b.iterations[i].squashEvents);
        EXPECT_EQ(a.iterations[i].despeculated,
                  b.iterations[i].despeculated);
    }
    EXPECT_EQ(saveDistilled(a.dist), saveDistilled(b.dist));
}

TEST(Adapt, FaultInjectionDrivesDespeculation)
{
    // Spurious squashes at every fork site push squash rates over the
    // threshold; the loop must react by de-speculating at least one
    // baked load, then converge once there is nothing left to drop —
    // and the de-speculated image must still run SEQ-equivalent in a
    // fault-free machine.
    PreparedWorkload w = prepareWorkload("mcf");
    AdaptOptions aopts;
    aopts.maxIters = 4;
    aopts.squashRateThreshold = 0.05;
    aopts.minEngagements = 1;
    FaultPlan plan;
    plan.type = FaultType::SpuriousSquash;
    plan.rate = 0.8;
    plan.seed = 7;
    aopts.faults.push_back(plan);

    AdaptResult r = adaptSpeculation(
        w.orig, w.profile, DistillerOptions::paperPreset(), aopts);
    EXPECT_TRUE(r.converged);
    EXPECT_GE(r.despeculated.size(), 1u);
    EXPECT_TRUE(r.dist.specEdits.empty());
    EXPECT_EQ(r.dist.specDropped, r.despeculated);

    MsspMachine m(w.orig, r.dist, MsspConfig{});
    MsspResult res = m.run(400000000ull);
    test::expectEquivalent(w.orig, res);
}

TEST(Adapt, GenerationCounterTracksIterationsAndPersists)
{
    PreparedWorkload w = prepareWorkload("mcf");
    AdaptOptions aopts;
    aopts.maxIters = 3;
    aopts.squashRateThreshold = 0.05;
    aopts.minEngagements = 1;
    FaultPlan plan;
    plan.type = FaultType::SpuriousSquash;
    plan.rate = 0.8;
    plan.seed = 7;
    aopts.faults.push_back(plan);

    AdaptResult r = adaptSpeculation(
        w.orig, w.profile, DistillerOptions::paperPreset(), aopts);
    ASSERT_FALSE(r.iterations.empty());
    // The final image carries the generation of the last iteration.
    EXPECT_EQ(r.dist.specGeneration, r.iterations.back().generation);
    EXPECT_EQ(r.iterations.back().generation,
              static_cast<uint32_t>(r.iterations.size() - 1));
    DistilledProgram back = loadDistilled(saveDistilled(r.dist));
    EXPECT_EQ(back.specGeneration, r.dist.specGeneration);
}

TEST(Adapt, IterationBoundIsHonored)
{
    PreparedWorkload w = prepareWorkload("gcc");
    AdaptOptions aopts;
    aopts.maxIters = 1;
    AdaptResult r = adaptSpeculation(
        w.orig, w.profile, DistillerOptions::paperPreset(), aopts);
    EXPECT_EQ(r.iterations.size(), 1u);
}

} // namespace mssp
