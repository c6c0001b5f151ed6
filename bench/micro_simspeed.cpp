/**
 * @file
 * M1 — simulator throughput microbenchmarks (google-benchmark): the
 * SEQ interpreter, the profiler, the distiller and the full MSSP
 * machine, in simulated instructions (or distillations) per second.
 *
 * Besides the timing numbers, every benchmark exports `sim_*`
 * counters (simulated instructions, cycles, tasks, ...). Those are
 * pure simulation outputs — identical on any host at any load — so
 * tools/bench_compare.py --counters-only can gate CI on them exactly
 * while treating the wall-clock throughput as a non-gating artifact
 * (shared runners are far too noisy to gate on time).
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "core/mssp_api.hh"
#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mssp;

const Workload &
benchWorkload()
{
    static Workload wl = workloadByName("parser", 0.3);
    return wl;
}

void
BM_SeqInterpreter(benchmark::State &state)
{
    setQuiet(true);
    Program prog = assemble(benchWorkload().refSource);
    uint64_t insts = 0;
    uint64_t per_run = 0;
    for (auto _ : state) {
        // Time run() only: machine construction (program load into
        // paged memory) and teardown are fixed costs that would
        // dilute the engine measurement. Each iteration still starts
        // from a cold machine, so blockjit's training and compile
        // passes stay inside the timed region.
        state.PauseTiming();
        auto m = std::make_unique<SeqMachine>(prog);
        state.ResumeTiming();
        m->run(100000000);
        insts += m->instCount();
        per_run = m->instCount();
        benchmark::DoNotOptimize(m->state().pc());
        state.PauseTiming();
        m.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    // Deterministic simulation output (per run, not per batch):
    // bench_compare.py gates on it.
    state.counters["sim_insts"] = static_cast<double>(per_run);
}
BENCHMARK(BM_SeqInterpreter);

void
BM_Profiler(benchmark::State &state)
{
    setQuiet(true);
    Program prog = assemble(benchWorkload().trainSource);
    uint64_t insts = 0;
    uint64_t per_run = 0;
    for (auto _ : state) {
        ProfileData prof = profileProgram(prog, 100000000);
        insts += prof.totalInsts;
        per_run = prof.totalInsts;
        benchmark::DoNotOptimize(prof.totalInsts);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.counters["sim_insts"] = static_cast<double>(per_run);
}
BENCHMARK(BM_Profiler);

void
BM_Distiller(benchmark::State &state)
{
    setQuiet(true);
    Program prog = assemble(benchWorkload().refSource);
    ProfileData prof = profileProgram(
        assemble(benchWorkload().trainSource), 100000000);
    uint64_t tasks = 0;
    for (auto _ : state) {
        DistilledProgram d = distill(
            prog, prof, DistillerOptions::paperPreset());
        tasks = d.taskMap.size();
        benchmark::DoNotOptimize(d.taskMap.size());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["sim_tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_Distiller);

/** What BM_MsspMachine runs on the bench workload. */
enum class MachineCase
{
    Base,         ///< paper-preset image, default config
    Speculated,   ///< value-speculated image, default config
    /** Campaign config under seeded spawn-drop + slave-stall plans:
     *  watchdog squashes, arch stalls and the Seq fallback. */
    Faults,
    /** The bzip2 analogue, whose master write buffer is large: the
     *  parser workload forks ~9-cell checkpoints, this one ~510 on
     *  average (0.26 is the smallest scale keeping the mean >= 500),
     *  so fork cost shows up in the timing. */
    BigCheckpoint,
    /** Campaign config under one seeded master-reg-flip plan: the
     *  machine batches the master's per-cycle misses. */
    MasterFlip,
};

void
BM_MsspMachine(benchmark::State &state, MachineCase mcase)
{
    setQuiet(true);
    static const Workload big_ckpt = workloadByName("bzip2", 0.26);
    const Workload &wl =
        mcase == MachineCase::BigCheckpoint ? big_ckpt : benchWorkload();
    PreparedWorkload p = prepare(wl.refSource, wl.trainSource,
                                 DistillerOptions::paperPreset());
    if (mcase == MachineCase::Speculated)
        p.dist = distillSpeculated(p.orig, p.profile,
                                   DistillerOptions::paperPreset(),
                                   SpeculateOptions{});
    MsspConfig cfg;
    std::vector<FaultPlan> plans;
    if (mcase == MachineCase::Faults || mcase == MachineCase::MasterFlip) {
        cfg = campaignConfig();
        // Intensity 10, as the campaigns' stress cells.
        std::vector<FaultType> types = {FaultType::SpawnDrop,
                                        FaultType::SlaveStall};
        if (mcase == MachineCase::MasterFlip)
            types = {FaultType::MasterRegFlip};
        for (FaultType t : types) {
            FaultPlan plan;
            plan.type = t;
            plan.rate = faultBaseRate(t) * 10.0;
            plans.push_back(plan);
        }
    }
    uint64_t insts = 0;
    uint64_t per_run = 0;
    uint64_t cycles = 0;
    double ckpt_cells = 0.0;
    MsspCounters counters;
    EpochStats epochs;
    for (auto _ : state) {
        MsspMachine machine(p.orig, p.dist, cfg);
        std::optional<FaultInjector> injector;
        if (!plans.empty()) {
            injector.emplace(1, plans);
            machine.setFaultInjector(&*injector);
        }
        MsspResult r = machine.run(100000000ull);
        insts += r.committedInsts;
        per_run = r.committedInsts;
        cycles = r.cycles;
        counters = machine.counters();
        epochs = machine.epochStats();
        ckpt_cells = machine.meanCheckpointCells();
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.counters["sim_insts"] = static_cast<double>(per_run);
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    // Every machine counter (mssp/counters.hh) as sim_<name>, so the
    // gate pins all of them. The value-speculation payoff shows up as
    // a smaller sim_masterInsts at identical sim_insts.
    forEachCounter(counters, [&state](const char *name, uint64_t v,
                                      const char *) {
        state.counters[std::string("sim_") + name] =
            static_cast<double>(v);
    });
    if (mcase == MachineCase::Speculated)
        state.counters["sim_baked"] =
            static_cast<double>(p.dist.specEdits.size());
    // How the host advanced the machine (not gated: no sim_ prefix).
    state.counters["epoch_cycles_mean"] =
        epochs.epochs ? static_cast<double>(epochs.batchedCycles) /
                            static_cast<double>(epochs.epochs)
                      : 0.0;
    state.counters["batched_cycle_share"] =
        cycles ? static_cast<double>(epochs.batchedCycles) /
                     static_cast<double>(cycles)
               : 0.0;
    // Mean checkpoint size (informational: bigckpt's scale is chosen
    // to keep it at 500 cells or more).
    state.counters["checkpoint_cells_mean"] = ckpt_cells;
}
BENCHMARK_CAPTURE(BM_MsspMachine, base, MachineCase::Base);
BENCHMARK_CAPTURE(BM_MsspMachine, speculated, MachineCase::Speculated);
BENCHMARK_CAPTURE(BM_MsspMachine, faults, MachineCase::Faults);
BENCHMARK_CAPTURE(BM_MsspMachine, bigckpt, MachineCase::BigCheckpoint);
BENCHMARK_CAPTURE(BM_MsspMachine, masterflip, MachineCase::MasterFlip);

void
BM_Assembler(benchmark::State &state)
{
    setQuiet(true);
    const std::string &src = benchWorkload().refSource;
    uint64_t words = 0;
    for (auto _ : state) {
        Program p = assemble(src);
        words = p.sizeWords();
        benchmark::DoNotOptimize(p.sizeWords());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["sim_words"] = static_cast<double>(words);
}
BENCHMARK(BM_Assembler);

} // anonymous namespace

BENCHMARK_MAIN();
