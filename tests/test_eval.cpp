/**
 * @file
 * Unit tests for the evaluation harness (runWorkload/runPrepared,
 * Table, geomean), the baseline machine and the pipeline helpers.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "eval/experiment.hh"
#include "mssp/baseline.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

TEST(Baseline, CyclesFollowIpc)
{
    Program p = assemble(
        "    li t0, 100\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out t0, 0\n"
        "    halt\n");
    BaselineResult r1 = runBaseline(p, 1.0, 10000000);
    EXPECT_TRUE(r1.halted);
    EXPECT_EQ(r1.insts, 1 + 200 + 1 + 1u);
    EXPECT_EQ(r1.cycles, r1.insts);

    BaselineResult r2 = runBaseline(p, 2.0, 10000000);
    EXPECT_EQ(r2.insts, r1.insts);
    EXPECT_EQ(r2.cycles, (r1.insts + 1) / 2);
    EXPECT_EQ(r2.outputs, r1.outputs);
}

TEST(Baseline, RespectsInstructionCap)
{
    Program p = assemble("loop: j loop\n");
    BaselineResult r = runBaseline(p, 1.0, 500);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.insts, 500u);
}

TEST(Harness, RunWorkloadProducesConsistentMetrics)
{
    setQuiet(true);
    Workload wl = workloadByName("parser", 0.1);
    MsspConfig cfg;
    WorkloadRun run = runWorkload(wl, cfg,
                                  DistillerOptions::paperPreset());
    EXPECT_TRUE(run.ok);
    EXPECT_GT(run.seqInsts, 1000u);
    EXPECT_GT(run.baselineCycles, 0u);
    EXPECT_GT(run.msspCycles, 0u);
    EXPECT_NEAR(run.speedup,
                static_cast<double>(run.baselineCycles) /
                    static_cast<double>(run.msspCycles),
                1e-9);
    EXPECT_NEAR(run.distillRatio,
                static_cast<double>(run.counters.masterInsts) /
                    static_cast<double>(run.seqInsts),
                1e-9);
    EXPECT_GT(run.meanTaskSize, 1.0);
    EXPECT_GT(run.counters.tasksCommitted, 0u);
}

TEST(Harness, RunPreparedMatchesRunWorkload)
{
    setQuiet(true);
    Workload wl = workloadByName("vpr", 0.1);
    MsspConfig cfg;
    DistillerOptions dopts = DistillerOptions::paperPreset();
    WorkloadRun a = runWorkload(wl, cfg, dopts);
    PreparedWorkload prepared = prepare(wl.refSource, wl.trainSource,
                                        dopts);
    WorkloadRun b = runPrepared(wl.name, prepared, cfg);
    EXPECT_EQ(a.msspCycles, b.msspCycles);
    EXPECT_EQ(a.counters.masterInsts, b.counters.masterInsts);
    EXPECT_EQ(a.ok, b.ok);
}

TEST(Harness, TimedOutRunReportsNotOk)
{
    setQuiet(true);
    Workload wl = workloadByName("mcf", 0.1);
    MsspConfig cfg;
    WorkloadRun run = runWorkload(wl, cfg, {}, /*max_cycles=*/100);
    EXPECT_FALSE(run.ok);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::string s = t.render("demo");
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22222"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Stats, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Stats, Formatters)
{
    EXPECT_EQ(fmt2(1.234), "1.23");
    EXPECT_EQ(fmtPct(0.5), "50.00%");
}

TEST(Pipeline, TrainFallsBackToRef)
{
    setQuiet(true);
    std::string src =
        "    li t0, 20\n"
        "loop:\n"
        "    addi t0, t0, -1\n"
        "    bnez t0, loop\n"
        "    out t0, 0\n"
        "    halt\n";
    PreparedWorkload w = prepare(src);   // no train source
    EXPECT_GT(w.profile.totalInsts, 0u);
    EXPECT_GE(w.dist.taskMap.size(), 1u);
}

} // anonymous namespace
} // namespace mssp
