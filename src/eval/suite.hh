/**
 * @file
 * mssp-suite: the whole evaluation as one sharded job graph.
 *
 * One invocation runs, for every registry workload, the full chain
 * the repo's individual tools cover piecemeal:
 *
 *   distill   assemble + profile + distill (core/pipeline.hh)
 *   lint      structural verification (analysis/verifier.hh)
 *   semantic  translation validation of every distiller edit
 *   specsafe  load speculation-safety classes + metadata validation
 *   specplan  value-flow plan candidates + SEQ-replay hit rates
 *   run       full MSSP machine vs the sequential baseline
 *   speculate value-speculating distiller + squash-feedback
 *             adaptation (eval/adapt.hh): the converged image is
 *             linted, its baked constants replayed against SEQ, and
 *             the machine re-run on it vs the same oracle
 *   crossval  static risk vs dynamic divergence-squash consistency,
 *             plus the ProvablyInvariant value-change and Proven
 *             prediction-mismatch gates
 *   campaign  the fault-injection sweep against the SEQ oracle
 *
 * The job graph has two sharded phases (sim/parallel.hh), each on
 * its own threads. Phase one runs one job per workload: the pipeline
 * stages above through crossval, then the workload's SEQ oracle from
 * the already-prepared pipeline, returned next to its result. Phase
 * two is the campaign cell sweep (workload x fault type x
 * intensity), handed those oracles as a read-only table — no
 * workload is ever prepared twice.
 *
 * Both phases run each job once through runSupervised()
 * (sim/supervisor.hh): a job that throws is quarantined — its
 * exception text lands in the report — and every healthy result
 * still merges.
 *
 * The report is one deterministic JSON document (schema
 * mssp-suite-v6): per-run seeds derive from canonical job indices
 * and results merge in canonical order, so `--jobs N` output is
 * byte-identical to `--jobs 1`. CI runs the suite on every push with
 * all 12 workloads and diffs a serial rerun against it (docs/CI.md).
 */

#ifndef MSSP_EVAL_SUITE_HH
#define MSSP_EVAL_SUITE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/experiment.hh"
#include "fault/campaign.hh"

namespace mssp
{

/** What to run (defaults reproduce the CI suite job). */
struct SuiteOptions
{
    /** Workload names; empty = all registry analogues. */
    std::vector<std::string> workloads;
    double scale = 0.05;     ///< workload scale (see specAnalogues)
    uint64_t seed = 1;       ///< campaign seed (per-run seeds derive)
    unsigned jobs = 1;       ///< host threads (CLIs default to hw)
    /** Campaign intensity multipliers (see CampaignOptions). */
    std::vector<double> intensities{1.0, 10.0};
    uint64_t campaignMaxCycles = 0;   ///< 0 = derive from oracle
    uint64_t runMaxCycles = 400000000ull;   ///< MSSP run cycle cap
};

/** Everything phase one measures for one workload. */
struct SuiteWorkloadResult
{
    std::string name;

    // lint (structural verification)
    size_t lintErrors = 0;
    size_t lintWarnings = 0;

    // semantic translation validation
    size_t edits = 0;
    size_t proven = 0;
    size_t risky = 0;
    size_t unknown = 0;
    size_t semanticErrors = 0;

    // specsafe load classification (analysis/specsafe.hh)
    size_t specLoads = 0;
    size_t specProvablyInvariant = 0;
    size_t specRegionInvariant = 0;
    size_t specRisky = 0;
    size_t specErrors = 0;        ///< metadata-validation findings
    uint64_t specViolations = 0;  ///< PI loads that changed value

    // specplan value prediction (analysis/specplan.hh)
    size_t planCandidates = 0;
    size_t planProven = 0;
    size_t planLikely = 0;
    size_t planErrors = 0;  ///< plan-metadata findings (errors)
    uint64_t planProvenMismatches = 0;  ///< Proven misses (gate: 0)
    uint64_t planLikelyObservations = 0;
    uint64_t planLikelyHits = 0;

    // MSSP run vs baseline
    WorkloadRun run;

    // speculation: adapted value-speculating distillation
    // (distill/speculate.cc + eval/adapt.hh, .mdo v5)
    size_t specBaked = 0;          ///< specedits in converged image
    size_t specBakedProven = 0;    ///< of those, Proven
    size_t specAdaptIterations = 0;
    bool specAdaptConverged = false;
    size_t specDespeculated = 0;   ///< cumulative excluded loads
    size_t specImageLintErrors = 0; ///< all validators, spec image
    uint64_t specEditMismatches = 0; ///< baked vs SEQ replay (gate: 0)
    WorkloadRun specRun;           ///< speculated image vs baseline

    // crossval: all-proven workloads must not squash on divergence
    uint64_t divergenceSquashes = 0;
    bool consistent = false;

    bool
    ok() const
    {
        return lintErrors == 0 && semanticErrors == 0 &&
               specErrors == 0 && specViolations == 0 &&
               planErrors == 0 && planProvenMismatches == 0 &&
               run.ok && consistent && specAdaptConverged &&
               specImageLintErrors == 0 && specEditMismatches == 0 &&
               specRun.ok;
    }
};

/** The whole evaluation. */
struct SuiteReport
{
    SuiteOptions options;            ///< as resolved (lists filled in)
    /** Healthy phase-one results only, canonical order (quarantined
     *  workloads are in evalQuarantine instead). */
    std::vector<SuiteWorkloadResult> workloads;
    /** Phase-one jobs that threw. */
    QuarantineReport evalQuarantine;
    CampaignReport campaign;

    /** Workloads failing any phase-one gate. */
    size_t evalFailures() const;

    /** Quarantined jobs across both phases. */
    size_t
    quarantinedTotal() const
    {
        return evalQuarantine.size() + campaign.quarantined();
    }

    /** True when every stage of every workload passed: lint,
     *  semantic and specsafe clean, run equivalent, crossval
     *  consistent, campaign invariants held, every fault type
     *  fired, and nothing was quarantined. */
    bool ok() const;

    /** Deterministic JSON document (schema mssp-suite-v6; embeds the
     *  campaign's mssp-faultcamp-v3 object under "campaign"). */
    std::string toJson() const;

    /** Human-readable result tables. */
    std::string summary() const;
};

/** Run the whole suite. @p log (optional) receives progress lines. */
SuiteReport runSuite(const SuiteOptions &opts,
                     std::ostream *log = nullptr);

} // namespace mssp

#endif // MSSP_EVAL_SUITE_HH
