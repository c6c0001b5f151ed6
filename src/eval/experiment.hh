/**
 * @file
 * The evaluation harness shared by all bench binaries (one binary per
 * table/figure, DESIGN.md §4). Runs a workload through the full
 * pipeline (profile -> distill -> MSSP vs baseline), verifies output
 * equivalence, and returns every metric the figures plot.
 */

#ifndef MSSP_EVAL_EXPERIMENT_HH
#define MSSP_EVAL_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "mssp/config.hh"
#include "mssp/machine.hh"
#include "workloads/workloads.hh"

namespace mssp
{

/** Everything measured for one (workload, configuration) point. */
struct WorkloadRun
{
    std::string name;
    bool ok = false;            ///< halted + output-equivalent to SEQ
    StopReason stopReason = StopReason::TimedOut;   ///< why it ended

    uint64_t seqInsts = 0;      ///< original dynamic instructions
    uint64_t baselineCycles = 0;
    uint64_t msspCycles = 0;
    double speedup = 0.0;       ///< baselineCycles / msspCycles

    /** Master dynamic path / original dynamic path (E1; lower is a
     *  stronger distillation). */
    double distillRatio = 0.0;

    double meanTaskSize = 0.0;
    MsspCounters counters;
    DistillReport report;
};

/**
 * Run one workload end to end.
 *
 * @param wl    the workload (ref + train sources)
 * @param cfg   machine configuration
 * @param dopts distiller options
 * @param max_cycles MSSP cycle cap (a run that hits it reports !ok)
 */
WorkloadRun runWorkload(const Workload &wl, const MsspConfig &cfg,
                        const DistillerOptions &dopts = {},
                        uint64_t max_cycles = 400000000ull);

/** Same, reusing an already-prepared pipeline (for sweeps). */
WorkloadRun runPrepared(const std::string &name,
                        const PreparedWorkload &prepared,
                        const MsspConfig &cfg,
                        uint64_t max_cycles = 400000000ull);

// -- Sharded sweeps (sim/parallel.hh) -------------------------------------

/**
 * Parse the one flag every bench/eval binary takes: `--jobs N` (host
 * threads for the sweep; default hardware concurrency, 1 = exact
 * serial path). Unknown arguments print a usage line naming @p tool
 * and exit(2), as does an N outside [1, 1024].
 */
unsigned benchJobs(int argc, char **argv, const char *tool);

/**
 * Run the full pipeline (assemble -> profile -> distill) for every
 * workload, sharded across @p jobs host threads. Results come back
 * indexed like @p workloads regardless of job count, and each
 * prepare is independent, so the tables built from them are
 * byte-identical to a serial sweep.
 */
std::vector<PreparedWorkload>
prepareAll(const std::vector<Workload> &workloads,
           const DistillerOptions &dopts, unsigned jobs);

// -- Table formatting -----------------------------------------------------

/** A printable table with aligned columns. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render with a title banner, aligned columns and a rule. */
    std::string render(const std::string &title) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Geometric mean of a vector (0 if empty). */
double geomean(const std::vector<double> &values);

/** "%.2f" helper. */
std::string fmt2(double v);

/** "%.1f%%" helper. */
std::string fmtPct(double v);

} // namespace mssp

#endif // MSSP_EVAL_EXPERIMENT_HH
