/**
 * @file
 * mssp-faultcamp: sweep fault types x rates across the workload suite
 * and verify the safety invariants on every run (docs/FAULTS.md).
 *
 *   mssp-faultcamp [--workloads gzip,mcf,...] [--types a,b,...]
 *                  [--intensities 1,10] [--scale F] [--seed N]
 *                  [--max-cycles N] [--jobs N] [--json FILE]
 *                  [--epoch-stats FILE] [--quiet] [--list-types]
 *
 * Each cell runs once; a cell whose job throws is quarantined
 * (sim/supervisor.hh) and the sweep goes on.
 *
 * Exit status (docs/LINT.md): 0 when every run satisfied all
 * invariants AND every swept fault type injected at least once;
 * 5 when the only blemish is quarantined cells (their structured
 * statuses are in the report); 2 on bad usage (including a bad
 * numeric flag value); 1 otherwise. The JSON report (schema
 * mssp-faultcamp-v3) is byte-deterministic for fixed options (CI
 * runs the sweep twice and diffs). --epoch-stats writes how much of
 * each cell the machine batched (schema mssp-epochstats-v1), also
 * deterministic.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "util/string_utils.hh"

using namespace mssp;

namespace
{

constexpr const char *kTool = "mssp-faultcamp";

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
        "usage: mssp-faultcamp [--workloads a,b,...] [--types a,b,...]\n"
        "                      [--intensities 1,10] [--scale F]\n"
        "                      [--seed N] [--max-cycles N] [--jobs N]\n"
        "                      [--json FILE] [--epoch-stats FILE]\n"
        "                      [--quiet] [--list-types]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CampaignOptions opts;
    opts.jobs = defaultJobs();
    std::string json_path;
    std::string epoch_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workloads" && i + 1 < argc) {
            opts.workloads = splitList(argv[++i]);
        } else if (arg == "--types" && i + 1 < argc) {
            opts.types.clear();
            for (const std::string &name : splitList(argv[++i])) {
                FaultType t = faultTypeFromString(name);
                if (t == FaultType::None) {
                    std::fprintf(stderr,
                                 "mssp-faultcamp: unknown fault type "
                                 "'%s' (try --list-types)\n",
                                 name.c_str());
                    return 2;
                }
                opts.types.push_back(t);
            }
        } else if (arg == "--intensities" && i + 1 < argc) {
            opts.intensities.clear();
            for (const std::string &v : splitList(argv[++i])) {
                opts.intensities.push_back(
                    flagNumber<double>(kTool, arg, v, 0, 1e6));
            }
        } else if (arg == "--scale" && i + 1 < argc) {
            opts.scale = flagNumber<double>(kTool, arg, argv[++i], 1e-3, 1e3);
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.seed =
                flagNumber<uint64_t>(kTool, arg, argv[++i], 0, UINT64_MAX);
        } else if (arg == "--max-cycles" && i + 1 < argc) {
            opts.maxCycles =
                flagNumber<uint64_t>(kTool, arg, argv[++i], 0, UINT64_MAX);
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = flagNumber<unsigned>(kTool, arg, argv[++i], 1, 1024);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--epoch-stats" && i + 1 < argc) {
            epoch_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list-types") {
            for (FaultType t : allFaultTypes()) {
                std::printf("%-19s base rate %g\n", toString(t),
                            faultBaseRate(t));
            }
            return 0;
        } else {
            return usage();
        }
    }

    try {
        CampaignReport report =
            runFaultCampaign(opts, quiet ? nullptr : &std::cerr);

        auto write = [](const std::string &path, const std::string &text) {
            std::ofstream out(path);
            if (!out) {
                std::fprintf(stderr,
                             "mssp-faultcamp: cannot write %s\n",
                             path.c_str());
                return false;
            }
            out << text;
            return true;
        };
        if (!json_path.empty() && !write(json_path, report.toJson()))
            return 1;
        if (!epoch_path.empty() &&
            !write(epoch_path, report.epochStatsJson()))
            return 1;
        if (!quiet || json_path.empty())
            std::fputs(report.summary().c_str(), stdout);

        if (report.failures() != 0) {
            std::fprintf(stderr,
                         "mssp-faultcamp: %zu run(s) violated an "
                         "invariant\n",
                         report.failures());
            return 1;
        }
        // A quarantined cell loses its injections, so unfired types
        // are only a hard failure when nothing was quarantined.
        if (!report.allTypesFired() && report.quarantined() == 0) {
            std::fprintf(stderr,
                         "mssp-faultcamp: some fault types never "
                         "injected (raise --intensities or the "
                         "cycle budget)\n");
            return 1;
        }
        if (report.quarantined() != 0) {
            std::fprintf(stderr,
                         "mssp-faultcamp: %zu cell(s) quarantined "
                         "(invariants held on every healthy cell)\n",
                         report.quarantined());
            return 5;
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mssp-faultcamp: %s\n", e.what());
        return 1;
    }
}
