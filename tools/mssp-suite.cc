/**
 * @file
 * mssp-suite: the full evaluation (distill -> lint -> semantic ->
 * specsafe -> specplan -> run -> speculate -> crossval -> fault
 * campaign) over the whole workload suite as one sharded job graph
 * (docs/CI.md). The speculate stage runs the value-speculating
 * distiller through its squash-feedback adaptation loop
 * (eval/adapt.hh) and gates the converged image statically,
 * dynamically and architecturally.
 *
 *   mssp-suite [--workloads gzip,mcf,...] [--scale F] [--seed N]
 *              [--jobs N] [--intensities 1,10] [--max-cycles N]
 *              [--run-max-cycles N] [--json FILE] [--quiet]
 *              [--backend ref|blockjit]
 *              [--timeout-ms N] [--max-insts N] [--retries N]
 *              [--chaos SEED]
 *
 * Every job runs supervised (sim/supervisor.hh): --timeout-ms /
 * --max-insts bound each attempt (env defaults MSSP_JOB_TIMEOUT_MS /
 * MSSP_JOB_MAX_INSTS), --retries sets the strikes before quarantine,
 * and --chaos enables the deterministic host-chaos preset
 * (fault/hostchaos.hh) with the given seed — the CI chaos job runs
 * the full suite under it.
 *
 * Exit status (docs/LINT.md): 0 when every workload passed every
 * evaluation gate AND the campaign held every invariant with every
 * fault type firing; 5 when the only blemish is quarantined jobs;
 * 1 otherwise. The JSON report (schema mssp-suite-v5) is
 * byte-deterministic for fixed options regardless of --jobs: CI runs
 * the suite sharded, reruns it with --jobs 1, and diffs the bytes
 * (wall-clock-deadline quarantines excepted — they are host-timing
 * dependent by nature).
 *
 * --backend selects the SEQ execution tier (src/exec/backend.hh) and
 * overrides the MSSP_EXEC_BACKEND environment default; the report is
 * byte-identical on either tier.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/suite.hh"
#include "exec/backend.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "util/string_utils.hh"

using namespace mssp;

namespace
{

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    for (std::string_view part : split(s, ',')) {
        if (!part.empty())
            out.emplace_back(part);
    }
    return out;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mssp-suite [--workloads a,b,...] [--scale F]\n"
        "                  [--seed N] [--jobs N] [--intensities 1,10]\n"
        "                  [--max-cycles N] [--run-max-cycles N]\n"
        "                  [--json FILE] [--quiet]\n"
        "                  [--backend ref|blockjit]\n"
        "                  [--timeout-ms N] [--max-insts N]\n"
        "                  [--retries N] [--chaos SEED]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    SuiteOptions opts;
    opts.jobs = defaultJobs();
    opts.jobBudget = budgetFromEnv();
    std::string json_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workloads" && i + 1 < argc) {
            opts.workloads = splitList(argv[++i]);
        } else if (arg == "--scale" && i + 1 < argc) {
            opts.scale = std::atof(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<unsigned>(
                std::max(1, std::atoi(argv[++i])));
        } else if (arg == "--intensities" && i + 1 < argc) {
            opts.intensities.clear();
            for (const std::string &v : splitList(argv[++i]))
                opts.intensities.push_back(std::atof(v.c_str()));
        } else if (arg == "--max-cycles" && i + 1 < argc) {
            opts.campaignMaxCycles =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--run-max-cycles" && i + 1 < argc) {
            opts.runMaxCycles =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--backend" && i + 1 < argc) {
            auto kind = backendFromName(argv[++i]);
            if (!kind) {
                std::fprintf(stderr,
                             "mssp-suite: unknown backend '%s' "
                             "(ref | blockjit)\n", argv[i]);
                return 2;
            }
            // Every SeqMachine the suite constructs (on any worker
            // thread) snapshots this process-wide default; the MSSP
            // machine's cores always run on ref.
            setDefaultBackend(*kind);
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            opts.jobBudget.timeoutMs =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--max-insts" && i + 1 < argc) {
            opts.jobBudget.maxInsts =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--retries" && i + 1 < argc) {
            opts.retry.maxAttempts = static_cast<unsigned>(
                std::max(1, std::atoi(argv[++i])));
        } else if (arg == "--chaos" && i + 1 < argc) {
            opts.chaos = HostChaosPlan::preset(
                static_cast<uint64_t>(std::atoll(argv[++i])));
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage();
        }
    }

    setQuiet(true);
    try {
        SuiteReport report =
            runSuite(opts, quiet ? nullptr : &std::cerr);

        if (!json_path.empty()) {
            std::ofstream out(json_path);
            if (!out) {
                std::fprintf(stderr, "mssp-suite: cannot write %s\n",
                             json_path.c_str());
                return 1;
            }
            out << report.toJson();
        }
        if (!quiet || json_path.empty())
            std::fputs(report.summary().c_str(), stdout);

        if (report.evalFailures() != 0) {
            std::fprintf(stderr,
                         "mssp-suite: %zu workload(s) failed an "
                         "evaluation gate\n",
                         report.evalFailures());
            return 1;
        }
        if (report.campaign.failures() != 0) {
            std::fprintf(stderr,
                         "mssp-suite: %zu campaign run(s) violated "
                         "an invariant\n",
                         report.campaign.failures());
            return 1;
        }
        // A quarantined job loses its injections, so unfired types
        // are only a hard failure when nothing was quarantined.
        if (!report.campaign.allTypesFired() &&
            report.quarantinedTotal() == 0) {
            std::fprintf(stderr,
                         "mssp-suite: some fault types never "
                         "injected (raise --intensities or the "
                         "cycle budget)\n");
            return 1;
        }
        if (report.quarantinedTotal() != 0) {
            std::fprintf(stderr,
                         "mssp-suite: %zu job(s) quarantined (every "
                         "gate held on every healthy job)\n",
                         report.quarantinedTotal());
            return 5;
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mssp-suite: %s\n", e.what());
        return 1;
    }
}
