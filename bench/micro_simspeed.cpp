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

#include "core/mssp_api.hh"
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

void
BM_MsspMachine(benchmark::State &state, bool speculate)
{
    setQuiet(true);
    PreparedWorkload p = prepare(benchWorkload().refSource,
                                 benchWorkload().trainSource,
                                 DistillerOptions::paperPreset());
    if (speculate)
        p.dist = distillSpeculated(p.orig, p.profile,
                                   DistillerOptions::paperPreset(),
                                   SpeculateOptions{});
    uint64_t insts = 0;
    uint64_t per_run = 0;
    uint64_t cycles = 0;
    MsspCounters counters;
    for (auto _ : state) {
        MsspMachine machine(p.orig, p.dist, MsspConfig{});
        MsspResult r = machine.run(100000000ull);
        insts += r.committedInsts;
        per_run = r.committedInsts;
        cycles = r.cycles;
        counters = machine.counters();
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
    if (speculate)
        state.counters["sim_baked"] =
            static_cast<double>(p.dist.specEdits.size());
}
BENCHMARK_CAPTURE(BM_MsspMachine, base, false);
BENCHMARK_CAPTURE(BM_MsspMachine, speculated, true);

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
