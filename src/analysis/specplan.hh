/**
 * @file
 * Static speculation planner: value facts -> a ranked SpecPlan.
 *
 * The value-flow pass (analysis/valueflow.hh) says which loads have
 * a predictable value; this planner decides which of them are *worth*
 * speculating and in what order, combining three signals per
 * candidate (DESIGN.md §5.4):
 *
 *  - proof strength: a Proven fact predicts with certainty, a Likely
 *    fact with odds 1/|feasible set|;
 *  - distillation leverage: the whole-image original/distilled
 *    static-instruction ratio — the shorter the distilled path, the
 *    more a removed load is worth;
 *  - fork-region risk: the Risky-load density and pruned-branch
 *    guard count of the regions the load executes in — a region
 *    already likely to squash devalues any speculation inside it.
 *
 * The score is computed in IEEE doubles from small integers and
 * persisted as a micro-unit integer (benefitMicro), so reports and
 * `.mdo` files are byte-deterministic. Candidates rank by descending
 * benefit, PC ascending on ties.
 *
 * The plan ships four ways: this library API (the ROADMAP-3 value-
 * speculating distiller consumes it directly), per-candidate
 * `specplan` lines in the .mdo (format v4), `mssp-lint --plan`
 * (text + versioned `mssp-specplan-v1` JSON), and dynamic
 * falsification in eval/crossval (SEQ replay counts per-candidate
 * mismatches; a Proven mismatch fails the gate). analyzeSpecPlan()
 * additionally validates persisted plan metadata against the
 * recomputation, mirroring analyzeSpecSafe().
 */

#ifndef MSSP_ANALYSIS_SPECPLAN_HH
#define MSSP_ANALYSIS_SPECPLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/valueflow.hh"

namespace mssp::analysis
{

/** One ranked speculation candidate. */
struct SpecPlanCandidate
{
    uint32_t pc = 0;       ///< distilled PC of the load
    uint32_t addr = 0;     ///< constant address it reads
    LoadSpecClass cls = LoadSpecClass::ProvablyInvariant;
    ValueProof proof = ValueProof::Proven;
    uint32_t value = 0;    ///< predicted value
    /** Feasible constant set, ascending (singleton for Proven). */
    std::vector<uint32_t> feasible;
    /** Demoting store for Likely candidates (UINT32_MAX otherwise). */
    uint32_t storePc = UINT32_MAX;
    /** Expected benefit in micro-units (higher = speculate first). */
    uint64_t benefitMicro = 0;
    /** Fork regions the load executes in (analysis/alias.hh). */
    RegionMask regions = RegionEntry;
    std::string detail;    ///< proof sketch / counterexample

    /** The persisted form of this candidate. */
    SpecPlanEntry toEntry() const;
};

/** The full planning result for one workload/image. */
struct SpecPlanReport
{
    /** Candidates in rank order: benefit descending, PC ascending. */
    std::vector<SpecPlanCandidate> candidates;

    /** Loads the value-flow pass considered (coverage denominator). */
    size_t loadsConsidered = 0;

    /** Metadata-validation findings (specplan-mismatch /
     *  specplan-coverage; empty when the image agrees). */
    LintReport lint;

    size_t proven() const;
    size_t likely() const;

    /** One line per candidate plus a summary line. */
    std::string toText() const;

    /** Deterministic JSON document, schema mssp-specplan-v1. With a
     *  non-empty @p workload the document names it. */
    std::string toJson(const std::string &workload = "") const;
};

/**
 * Rank the forwarding facts of @p vf, the value-flow result of
 * @p dist's merged image, into the speculation plan (pure
 * recomputation; ignores dist.specPlan). This is what distill()
 * uses to stamp the image.
 */
std::vector<SpecPlanCandidate>
planSpeculation(const DistilledProgram &dist, const ValueFlowResult &vf);

/**
 * Plan and validate: recompute the plan and check the image's
 * persisted specPlan entries against it. Missing, stale and
 * mismatching candidates are error findings.
 */
SpecPlanReport analyzeSpecPlan(const Program &orig,
                               const DistilledProgram &dist);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_SPECPLAN_HH
