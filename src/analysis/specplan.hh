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
 * kept as a micro-unit integer (benefitMicro), so reports and the
 * `specedit` lines baked from the plan are byte-deterministic.
 * Candidates rank by descending benefit, PC ascending on ties.
 *
 * The plan ships three ways: this library API (the value-speculating
 * distiller, distill/speculate.cc, plans its base image with it),
 * `mssp-lint --plan` (text + versioned `mssp-specplan-v1` JSON), and
 * dynamic falsification in eval/crossval (SEQ replay counts
 * per-candidate mismatches; a Proven mismatch fails the gate). The
 * plan is computed on demand and never persisted.
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
};

/** The full planning result for one workload/image. */
struct SpecPlanReport
{
    /** Candidates in rank order: benefit descending, PC ascending. */
    std::vector<SpecPlanCandidate> candidates;

    /** Loads the value-flow pass considered (coverage denominator). */
    size_t loadsConsidered = 0;

    /** Always empty: nothing is persisted to validate any more. Kept
     *  because the frozen benchmark reads lint.errors() and the JSON
     *  embeds it; both go with the value-speculation deletion. */
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
 * @p dist's merged image, into the speculation plan. This is what
 * distillSpeculated() bakes from.
 */
std::vector<SpecPlanCandidate>
planSpeculation(const DistilledProgram &dist, const ValueFlowResult &vf);

/**
 * Plan @p dist from scratch: build its merged-image analysis,
 * classify its loads, run the value-flow analysis and rank the
 * facts.
 */
SpecPlanReport analyzeSpecPlan(const Program &orig,
                               const DistilledProgram &dist);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_SPECPLAN_HH
