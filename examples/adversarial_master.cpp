/**
 * @file
 * Adversarial master demo: the paper's central claim — correctness
 * cannot be influenced by the master or the distilled program — made
 * visible. We corrupt the distilled binary progressively and show
 * that output stays bit-identical while performance degrades.
 *
 * Usage: adversarial_master [seed]
 */

#include <cstdio>

#include "core/mssp_api.hh"
#include "sim/rng.hh"
#include "util/string_utils.hh"
#include "workloads/random_program.hh"

using namespace mssp;

int
main(int argc, char **argv)
{
    setQuiet(true);
    uint64_t seed = argc > 1 ? flagNumber<uint64_t>("adversarial_master",
                                                    "seed", argv[1], 0,
                                                    UINT64_MAX)
                             : 42;

    std::string src = randomProgramSource(seed);
    Program prog = assemble(src);

    SeqMachine oracle(prog);
    oracle.run(50000000);
    std::printf("oracle: %llu insts, %zu outputs\n\n",
                static_cast<unsigned long long>(oracle.instCount()),
                oracle.outputs().size());

    PreparedWorkload prepared = prepare(prog, prog);
    MsspConfig cfg;
    cfg.watchdogCycles = 3000;
    cfg.maxTaskInsts = 3000;

    std::printf("%-18s %-10s %-10s %-9s %-8s %s\n", "corrupted words",
                "cycles", "commits", "squashes", "seqInsts",
                "output");
    Rng rng(seed * 31 + 7);
    for (unsigned n_corrupt : {0u, 1u, 2u, 4u, 8u, 16u, 64u}) {
        DistilledProgram dist = prepared.dist;
        std::vector<uint32_t> addrs;
        for (const auto &[addr, word] : dist.prog.image())
            addrs.push_back(addr);
        for (unsigned i = 0; i < n_corrupt; ++i) {
            uint32_t addr = addrs[rng.below(addrs.size())];
            dist.prog.setWord(addr, static_cast<uint32_t>(rng.next()));
        }

        MsspMachine machine(prog, dist, cfg);
        MsspResult r = machine.run(400000000ull);
        bool same = r.halted && r.outputs == oracle.outputs() &&
                    r.committedInsts == oracle.instCount();
        std::printf("%-18u %-10llu %-10llu %-9llu %-8llu %s\n",
                    n_corrupt,
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(
                        machine.counters().tasksCommitted),
                    static_cast<unsigned long long>(
                        machine.counters().squashEvents),
                    static_cast<unsigned long long>(
                        machine.counters().seqModeInsts),
                    same ? "IDENTICAL" : "*** DIFFERS ***");
        if (!same)
            return 1;
    }
    std::printf("\nEvery corruption level produced identical output: "
                "the fast path cannot break the correct path.\n");
    return 0;
}
