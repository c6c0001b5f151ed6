/**
 * @file
 * mssp-run: execute a program sequentially or on the MSSP machine.
 *
 *   mssp-run prog.{s,mo} [--mssp dist.mdo] [--slaves N]
 *            [--fork-latency N] [--commit-latency N] [--stats]
 *            [--site-stats] [--max-cycles N] [--compare]
 *
 * With --mssp, runs the MSSP machine using the given distilled
 * object; --compare additionally runs the sequential oracle and
 * verifies output equivalence (exit status reflects it).
 * --site-stats prints the per-fork-site squash/engage table
 * (MsspResult::siteStats) the adaptation loop feeds on — one row per
 * static fork site with forked/committed/squash counts split by
 * squash reason and the resulting squash rate.
 *
 * The sequential run executes on blockjit and the MSSP machine's
 * cores on ref (src/exec/engine.hh); architectural results are the
 * same on either engine.
 *
 * Exit status (docs/LINT.md exit-code table): 0 = halted,
 * 1 = fault/limit/mismatch, 2 = usage (including a bad numeric flag
 * value).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "exec/seq_machine.hh"
#include "mssp/machine.hh"
#include "sim/logging.hh"
#include "util/file.hh"
#include "util/string_utils.hh"

using namespace mssp;

namespace
{

constexpr const char *kTool = "mssp-run";

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

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--mssp" && i + 1 < argc) {
            dist_path = argv[++i];
        } else if (arg == "--slaves" && i + 1 < argc) {
            cfg.numSlaves =
                flagNumber<unsigned>(kTool, arg, argv[++i], 1, 1024);
        } else if (arg == "--fork-latency" && i + 1 < argc) {
            cfg.forkLatency = flagNumber<Cycle>(kTool, arg, argv[++i],
                                                0, UINT32_MAX);
        } else if (arg == "--commit-latency" && i + 1 < argc) {
            cfg.commitLatency = flagNumber<Cycle>(
                kTool, arg, argv[++i], 0, UINT32_MAX);
        } else if (arg == "--max-cycles" && i + 1 < argc) {
            max_cycles = flagNumber<uint64_t>(kTool, arg, argv[++i],
                                              0, UINT64_MAX);
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
                         "[--compare]\n");
            return 2;
        }
    }
    if (prog_path.empty()) {
        std::fprintf(stderr, "mssp-run: no input file\n");
        return 2;
    }

    try {
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
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mssp-run: %s\n", e.what());
        return 1;
    }
}
