/**
 * @file
 * SCCP-style value-flow analysis with store-to-load forwarding.
 *
 * The speculation-safety classifier (analysis/specsafe.hh) answers
 * *whether* a distilled-image load is safe to speculate; this pass
 * answers *what value* it yields. It runs the interval abstract
 * interpreter (analysis/absint.hh) over the merged original+distilled
 * image (analysis/merged_image.hh), extended with a flow-sensitive
 * memory component: for every provably-disambiguated load address
 * (the constant, non-MMIO addresses of ProvablyInvariant/
 * RegionInvariant loads) the abstract state carries the interval of
 * values that memory word can hold *at that program point*. Stores
 * with an exactly known address update the tracked word strongly;
 * stores whose address interval merely overlaps it join their value
 * in weakly; everything else is the ordinary register interval
 * transfer (constant arithmetic delegated to evalAlu, decided
 * branches pruned via the solver's edgeOut hook — DESIGN.md §5.4).
 *
 * Per qualifying load the pass derives a forwarding fact:
 *
 *  - MustValue (proof Proven): the tracked word is one constant at
 *    the load — either no store anywhere in the merged image may
 *    alias it (the invariant-image case) or flow-sensitivity shows
 *    every path to the load leaves the same constant there.
 *  - LikelyValue (proof Likely): the reaching store-set is constant-
 *    valued but not singleton; the fact carries the full feasible
 *    constant set (initial image word joined with every aliasing
 *    store's constant) and the demoting store as counterexample.
 *  - No fact: some aliasing store's value could not be pinned to a
 *    constant, or the feasible set exceeds the report bound.
 *
 * The analysis runs in two passes: the sequential original program
 * seeds memory boundary state at every master restart point, next
 * to the register state MergedImageAnalysis seeds, so facts survive
 * the loops fork sites sit in. The claims are falsified dynamically:
 * crossval replays the merged image on SEQ and fails the gate on any
 * Proven mismatch (eval/crossval.hh, tests/test_valueflow_fuzz.cpp).
 */

#ifndef MSSP_ANALYSIS_VALUEFLOW_HH
#define MSSP_ANALYSIS_VALUEFLOW_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/specsafe.hh"

namespace mssp::analysis
{

/** One store-to-load forwarding fact for a distilled-image load. */
struct LoadValueFact
{
    uint32_t pc = 0;      ///< distilled PC of the load
    uint32_t addr = 0;    ///< proven constant address it reads
    /** Safety class the fact piggybacks on (never Risky). */
    LoadSpecClass cls = LoadSpecClass::ProvablyInvariant;
    ValueProof proof = ValueProof::Proven;
    /** Predicted value: the single feasible constant (Proven) or the
     *  initial image word (Likely). */
    uint32_t value = 0;
    /** Every constant the word can feasibly hold at the load,
     *  ascending; singleton exactly for Proven facts. */
    std::vector<uint32_t> feasible;
    /** Demoting store for Likely facts (UINT32_MAX otherwise). */
    uint32_t storePc = UINT32_MAX;
    /** Fork regions the load can execute in (analysis/alias.hh). */
    RegionMask regions = RegionEntry;
    /** Proof sketch: which rule fired and from what evidence. */
    std::string detail;
};

/** Region context the speculation planner's cost model consumes. */
struct LoadRegionInfo
{
    RegionMask regions = RegionEntry;
    LoadSpecClass cls = LoadSpecClass::Risky;
};

/** Everything the value-flow pass can say about one image. */
struct ValueFlowResult
{
    /** Forwarding facts, ascending by load PC. */
    std::vector<LoadValueFact> facts;

    /** Loads eligible for forwarding (constant non-MMIO address and
     *  an invariant safety class); facts.size() <= this. */
    size_t loadsConsidered = 0;

    /** Region mask + class of every classified load (planner input:
     *  Risky-load density of the regions a candidate shares). */
    std::map<uint32_t, LoadRegionInfo> loadRegions;

    /** Region-mask in-state per merged-image block leader. */
    std::map<uint32_t, RegionMask> blockRegions;
};

/** Feasible-set bound: loads with more reaching constants than this
 *  get no fact (predicting 1-of-N is hopeless for large N). */
constexpr size_t kMaxFeasibleValues = 8;

/**
 * Run the value-flow analysis over @p mia's merged image. @p classes
 * is the speculation-safety classification of the same image
 * (classifySpecLoads(mia)); only its invariant-class loads are
 * eligible.
 */
ValueFlowResult
analyzeValueFlow(const MergedImageAnalysis &mia,
                 const std::vector<LoadClassification> &classes);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_VALUEFLOW_HH
