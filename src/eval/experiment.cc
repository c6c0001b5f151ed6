#include "eval/experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "asm/assembler.hh"
#include "exec/seq_machine.hh"
#include "mssp/baseline.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "util/string_utils.hh"

namespace mssp
{

WorkloadRun
runPrepared(const std::string &name, const PreparedWorkload &prepared,
            const MsspConfig &cfg, uint64_t max_cycles)
{
    WorkloadRun run;
    run.name = name;
    run.report = prepared.dist.report;

    BaselineResult base = runBaseline(prepared.orig, cfg.slaveIpc,
                                      1000000000ull);
    run.seqInsts = base.insts;
    run.baselineCycles = base.cycles;

    MsspMachine machine(prepared.orig, prepared.dist, cfg);
    MsspResult mssp = machine.run(max_cycles);

    run.msspCycles = mssp.cycles;
    run.stopReason = mssp.stopReason;
    run.counters = machine.counters();
    run.meanTaskSize = machine.meanTaskSize();
    run.distillRatio =
        run.seqInsts ? static_cast<double>(run.counters.masterInsts) /
                           static_cast<double>(run.seqInsts)
                     : 0.0;
    run.speedup =
        mssp.cycles ? static_cast<double>(run.baselineCycles) /
                          static_cast<double>(mssp.cycles)
                    : 0.0;

    run.ok = base.halted && mssp.halted &&
             mssp.outputs == base.outputs &&
             mssp.committedInsts == base.insts;
    if (!run.ok) {
        warn("workload %s: MSSP run not equivalent (%s)",
             name.c_str(), toString(mssp.stopReason));
    }
    return run;
}

WorkloadRun
runWorkload(const Workload &wl, const MsspConfig &cfg,
            const DistillerOptions &dopts, uint64_t max_cycles)
{
    PreparedWorkload prepared = prepare(wl.refSource, wl.trainSource,
                                        dopts);
    return runPrepared(wl.name, prepared, cfg, max_cycles);
}

unsigned
benchJobs(int argc, char **argv, const char *tool)
{
    unsigned jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = flagNumber<unsigned>(tool, "--jobs", argv[++i], 1,
                                        1024);
        } else {
            std::fprintf(stderr, "usage: %s [--jobs N]\n", tool);
            std::exit(2);
        }
    }
    return jobs;
}

std::vector<PreparedWorkload>
prepareAll(const std::vector<Workload> &workloads,
           const DistillerOptions &dopts, unsigned jobs)
{
    std::vector<std::function<PreparedWorkload()>> work;
    work.reserve(workloads.size());
    for (const Workload &wl : workloads) {
        work.push_back([&wl, &dopts] {
            return prepare(wl.refSource, wl.trainSource, dopts);
        });
    }
    return runSharded<PreparedWorkload>(jobs, std::move(work));
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
Table::addRow(std::vector<std::string> cells)
{
    MSSP_ASSERT(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render(const std::string &title) const
{
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    std::string out;
    out += "== " + title + " ==\n";
    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            out += (c == 0 ? padRight(cells[c], width[c] + 2)
                           : padLeft(cells[c], width[c]) + "  ");
        }
        out += '\n';
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + 2;
    out += std::string(total, '-') + '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v > 0 ? v : 1e-9);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
fmt2(double v)
{
    return strfmt("%.2f", v);
}

std::string
fmtPct(double v)
{
    return strfmt("%.2f%%", 100.0 * v);
}

} // namespace mssp
