/**
 * @file
 * mssp-run: execute a program sequentially or on the MSSP machine.
 *
 *   mssp-run prog.{s,mo} [--mssp dist.mdo] [--slaves N]
 *            [--fork-latency N] [--commit-latency N] [--stats]
 *            [--site-stats] [--max-cycles N] [--compare]
 *            [--backend TIER] [--timeout-ms N] [--max-insts N]
 *
 * With --mssp, runs the MSSP machine using the given distilled
 * object; --compare additionally runs the sequential oracle and
 * verifies output equivalence (exit status reflects it).
 * --site-stats prints the per-fork-site squash/engage table
 * (MsspResult::siteStats) the adaptation loop feeds on — one row per
 * static fork site with forked/committed/squash counts split by
 * squash reason and the resulting squash rate.
 *
 * --backend selects the SEQ execution tier (ref | blockjit; see
 * src/exec/backend.hh) and overrides the MSSP_EXEC_BACKEND environment
 * default. The MSSP machine's cores run on ref whatever the tier.
 * Architectural results are tier-invariant.
 *
 * --timeout-ms / --max-insts arm a whole-invocation budget
 * (sim/supervisor.hh; env defaults MSSP_JOB_TIMEOUT_MS /
 * MSSP_JOB_MAX_INSTS). A budget trip exits 4 (docs/LINT.md exit-code
 * table): 0 = halted, 1 = fault/limit/mismatch, 2 = usage,
 * 4 = budget exceeded.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "exec/seq_machine.hh"
#include "mssp/machine.hh"
#include "sim/logging.hh"
#include "sim/supervisor.hh"
#include "util/file.hh"
#include "util/string_utils.hh"

using namespace mssp;

namespace
{

Program
loadAny(const std::string &path)
{
    std::string text = readFile(path);
    if (startsWith(trim(text), "mssp-object"))
        return loadProgram(text);
    return assemble(text);
}

void
printOutputs(const OutputStream &outs)
{
    for (const auto &o : outs)
        std::printf("out[%u] = %u (0x%x)\n", o.port, o.value, o.value);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string prog_path, dist_path;
    MsspConfig cfg;
    bool stats = false, site_stats = false, compare = false;
    uint64_t max_cycles = 1000000000ull;
    JobBudget budget = budgetFromEnv();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--mssp" && i + 1 < argc) {
            dist_path = argv[++i];
        } else if (arg == "--slaves" && i + 1 < argc) {
            cfg.numSlaves = static_cast<unsigned>(
                std::atoi(argv[++i]));
        } else if (arg == "--fork-latency" && i + 1 < argc) {
            cfg.forkLatency = static_cast<Cycle>(
                std::atoll(argv[++i]));
        } else if (arg == "--commit-latency" && i + 1 < argc) {
            cfg.commitLatency = static_cast<Cycle>(
                std::atoll(argv[++i]));
        } else if (arg == "--max-cycles" && i + 1 < argc) {
            max_cycles = static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            budget.timeoutMs =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--max-insts" && i + 1 < argc) {
            budget.maxInsts =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--backend" && i + 1 < argc) {
            auto kind = backendFromName(argv[++i]);
            if (!kind) {
                std::fprintf(stderr,
                             "mssp-run: unknown backend '%s' "
                             "(ref | blockjit)\n", argv[i]);
                return 2;
            }
            setDefaultBackend(*kind);
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--site-stats") {
            site_stats = true;
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg[0] != '-' && prog_path.empty()) {
            prog_path = arg;
        } else {
            std::fprintf(stderr,
                         "usage: mssp-run prog.{s,mo} "
                         "[--mssp dist.mdo] [--slaves N] "
                         "[--fork-latency N] [--commit-latency N] "
                         "[--max-cycles N] [--stats] [--site-stats] "
                         "[--compare] "
                         "[--backend ref|blockjit] "
                         "[--timeout-ms N] [--max-insts N]\n");
            return 2;
        }
    }
    if (prog_path.empty()) {
        std::fprintf(stderr, "mssp-run: no input file\n");
        return 2;
    }

    try {
        // Whole-invocation budget: the deadline arms here, so load +
        // run + compare all count against it.
        Supervision sup(budget);
        std::optional<SupervisionScope> scope;
        if (budget.active())
            scope.emplace(&sup);

        Program prog = loadAny(prog_path);

        if (dist_path.empty()) {
            SeqMachine machine(prog);
            machine.run(max_cycles);
            printOutputs(machine.outputs());
            std::printf("%s: %s after %llu instructions\n",
                        prog_path.c_str(),
                        machine.halted()   ? "halted"
                        : machine.faulted() ? "FAULTED"
                                            : "cycle limit",
                        static_cast<unsigned long long>(
                            machine.instCount()));
            return machine.halted() ? 0 : 1;
        }

        DistilledProgram dist = loadDistilled(readFile(dist_path));
        MsspMachine machine(prog, dist, cfg);
        MsspResult r = machine.run(max_cycles);
        printOutputs(r.outputs);
        std::printf("%s: %s after %llu cycles, %llu committed "
                    "instructions\n",
                    prog_path.c_str(), toString(r.stopReason),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(
                        r.committedInsts));
        if (stats)
            machine.dumpStats(std::cout);
        if (site_stats) {
            std::printf("fork-site squash/engage table:\n");
            std::printf("  %-10s %8s %9s %8s %8s %8s %7s\n", "site",
                        "forked", "committed", "sq-livein",
                        "sq-pc", "sq-other", "rate");
            for (const auto &[pc, s] : r.siteStats) {
                std::printf("  0x%08x %8llu %9llu %8llu %8llu "
                            "%8llu %6.1f%%\n",
                            pc,
                            static_cast<unsigned long long>(s.forked),
                            static_cast<unsigned long long>(
                                s.committed),
                            static_cast<unsigned long long>(
                                s.squashedLiveIn),
                            static_cast<unsigned long long>(
                                s.squashedWrongPc),
                            static_cast<unsigned long long>(
                                s.squashedOther),
                            100.0 * s.squashRate());
            }
        }

        if (compare) {
            SeqMachine oracle(prog);
            oracle.run(100000000ull);
            bool same = r.halted && oracle.halted() &&
                        r.outputs == oracle.outputs() &&
                        r.committedInsts == oracle.instCount();
            std::printf("equivalence with SEQ: %s\n",
                        same ? "IDENTICAL" : "*** DIFFERS ***");
            return same ? 0 : 1;
        }
        return r.halted ? 0 : 1;
    } catch (const StatusError &e) {
        std::fprintf(stderr, "mssp-run: %s\n", e.what());
        return isBudgetTrip(e.status().code()) ? 4 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mssp-run: %s\n", e.what());
        return 1;
    }
}
