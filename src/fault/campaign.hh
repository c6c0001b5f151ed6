/**
 * @file
 * Fault-injection campaigns: sweep fault types x rates across the
 * workload suite and check the paper's safety invariants on each run.
 *
 * A campaign run executes one (workload, fault type, rate) triple on
 * the full MSSP machine with a seeded FaultInjector attached, then
 * checks three invariants against the sequential oracle:
 *
 *  (a) output equivalence — the OUT stream matches SEQ exactly;
 *  (b) forward progress — the program halts within a cycle budget
 *      derived from the oracle's dynamic instruction count (no
 *      livelock, however hard the recovery machinery is hammered);
 *  (c) architected cleanliness — the final register file matches the
 *      oracle, and every committed task's live-ins matched
 *      architected state at commit time (squashed work leaked
 *      nothing).
 *
 * Everything is deterministic: per-run seeds derive from the campaign
 * seed via Rng::mix, and the JSON report contains no timestamps, so
 * identical options reproduce identical bytes (CI diffs them). Each
 * cell runs once; a cell whose job throws is quarantined
 * (sim/supervisor.hh) and the sweep goes on.
 * tools/mssp-faultcamp is the CLI; docs/FAULTS.md the guide.
 */

#ifndef MSSP_FAULT_CAMPAIGN_HH
#define MSSP_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "fault/fault.hh"
#include "mssp/machine.hh"
#include "sim/supervisor.hh"
#include "workloads/workloads.hh"

namespace mssp
{

/** What to sweep (defaults give the CI smoke campaign a sane shape). */
struct CampaignOptions
{
    /** Workload names; empty = all registry analogues. */
    std::vector<std::string> workloads;
    /** Fault types; empty = all ten real types. */
    std::vector<FaultType> types;
    /**
     * Rate multipliers on each type's base rate (see
     * faultBaseRate()). The per-opportunity grains differ by ~100x
     * between per-fork and per-cycle faults, so campaigns sweep a
     * dimensionless intensity, not an absolute rate. Effective rates
     * clamp at 1.0.
     */
    std::vector<double> intensities{1.0, 10.0};
    double scale = 0.05;     ///< workload scale (see specAnalogues)
    uint64_t seed = 1;       ///< campaign seed (per-run seeds derive)
    /** Forward-progress budget: max(minCycles, cyclesPerInst x oracle
     *  insts) unless maxCycles overrides it outright. */
    uint64_t maxCycles = 0;
    uint64_t cyclesPerInst = 40;
    uint64_t minCycles = 200000;
    /**
     * Host threads for the sweep (sim/parallel.hh). 1 (the library
     * default — CLIs default to defaultJobs()) is the exact serial
     * path; any value produces byte-identical reports because every
     * run's seed derives from its canonical index, not scheduling.
     */
    unsigned jobs = 1;
};

/** Default per-opportunity Bernoulli rate for @p t at intensity 1. */
double faultBaseRate(FaultType t);

/** One (workload, type, rate) execution and its invariant verdicts. */
struct CampaignRun
{
    std::string workload;
    FaultType type = FaultType::None;
    double rate = 0.0;
    /** The sweep's rate multiplier (0 outside runFaultCampaign). */
    double intensity = 0.0;
    uint64_t seed = 0;

    uint64_t injections = 0;     ///< of this run's type
    uint64_t cycles = 0;
    uint64_t budgetCycles = 0;
    StopReason stopReason = StopReason::TimedOut;

    bool outputOk = false;         ///< invariant (a)
    bool forwardProgress = false;  ///< invariant (b)
    bool archClean = false;        ///< invariant (c): final registers
    bool commitInvariantOk = true; ///< invariant (c): per-commit check

    /** The machine's counters at the end of the run; the JSON
     *  "recovery" block reports the squash/watchdog/backoff subset. */
    MsspCounters recovery;
    /** Sequential-backoff length when the run ended (0 = fully
     *  recovered). */
    uint64_t seqBackoff = 0;
    /** How the host advanced the machine (deterministic, but not part
     *  of the campaign JSON: see CampaignReport::epochStatsJson). */
    EpochStats epochs;

    bool
    ok() const
    {
        return outputOk && forwardProgress && archClean &&
               commitInvariantOk;
    }
};

/** The whole sweep. */
struct CampaignReport
{
    CampaignOptions options;         ///< as resolved (lists filled in)
    /** Healthy cells only, canonical order (quarantined cells are in
     *  the quarantine report instead). */
    std::vector<CampaignRun> runs;
    /** Cells whose job threw (canonical order). */
    QuarantineReport quarantine;

    size_t failures() const;
    size_t quarantined() const { return quarantine.size(); }

    /** Total injections per fault type across all runs. */
    std::array<uint64_t, NumFaultTypes> injectionsByType() const;

    /** True when every swept type injected at least once somewhere
     *  (the "counters prove it" acceptance criterion). */
    bool allTypesFired() const;

    /** Deterministic JSON document (schema mssp-faultcamp-v3;
     *  docs/SCHEMAS.md). */
    std::string toJson() const;

    /** Human-readable result table. */
    std::string summary() const;

    /** Per-cell epoch statistics (schema mssp-epochstats-v1;
     *  docs/SCHEMAS.md): how much of each cell the machine batched
     *  and why it stepped the rest. Byte-deterministic too. */
    std::string epochStatsJson() const;
};

/** The machine configuration campaigns run under: default timing with
 *  a tight watchdog and early escalation, so recovery (not timeout)
 *  dominates even at small workload scales. */
MsspConfig campaignConfig();

/** The sequential truth for one workload (computed once per workload,
 *  reused by every fault type x rate cell). */
struct SeqOracle
{
    PreparedWorkload prepared;
    OutputStream outputs;
    std::array<uint32_t, NumRegs> regs{};
    uint64_t insts = 0;
};

/** Compute the oracle from an already-prepared pipeline. */
SeqOracle makeSeqOracle(PreparedWorkload prepared);

/** Prepare @p wl and compute its oracle. */
SeqOracle makeSeqOracle(const Workload &wl);

/** Execute one (workload, fault type, rate) campaign cell. Pure
 *  function of its arguments — safe to run on any shard. */
CampaignRun runCampaignCell(const std::string &workload,
                            const SeqOracle &oracle, FaultType type,
                            double rate, uint64_t seed,
                            uint64_t budget);

/** Forward-progress budget for one workload under @p opts. */
uint64_t campaignBudget(const CampaignOptions &opts,
                        uint64_t oracle_insts);

/**
 * Run the sweep, sharded across opts.jobs host threads. @p log
 * (optional) receives one line per run (completion order); the
 * returned report is byte-deterministic for fixed options. @p oracles
 * (optional) holds pre-built oracles by workload name — mssp-suite
 * passes the ones its evaluation stage already built, so the campaign
 * does not re-prepare those workloads. The campaign builds the
 * missing ones before any cell runs; cells only read the table.
 */
CampaignReport runFaultCampaign(
    const CampaignOptions &opts, std::ostream *log = nullptr,
    std::map<std::string, SeqOracle> oracles = {});

} // namespace mssp

#endif // MSSP_FAULT_CAMPAIGN_HH
