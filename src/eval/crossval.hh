/**
 * @file
 * Dynamic replays behind the suite's cross-validation gates
 * (eval/suite.hh, stage crossval).
 *
 * The semantic translation validator (analysis/verifier.hh) makes a
 * falsifiable claim per workload: if *every* distiller edit is
 * Proven, no task may ever squash on live-in divergence or a wrong
 * predicted PC. runSuite() checks it against the MSSP run's
 * divergence-squash counters; a Proven-only workload with divergence
 * squashes falsifies the abstract interpreter (the gate in
 * tests/test_crossval.cpp runs runSuite itself).
 *
 * The speculation-safety classifier (analysis/specsafe.hh) makes a
 * second falsifiable claim: a load classified ProvablyInvariant must
 * never observe a changed value at runtime. validateSpecSafeDynamic()
 * replays the merged image on SEQ, tracks every ProvablyInvariant
 * load's value per static PC, and counts changes — any nonzero count
 * falsifies the alias analysis and fails the gate outright.
 *
 * The speculation planner (analysis/specplan.hh) makes a third,
 * sharper claim: a Proven plan candidate predicts the exact value a
 * load reads, every time. validateSpecPlanDynamic() replays the
 * merged image on SEQ and compares every tracked load's observed
 * value against the plan's prediction — a single Proven mismatch
 * falsifies the value-flow analysis and fails the gate; Likely
 * candidates only accumulate an observed hit rate.
 * validateSpecEditsDynamic() holds a speculated image's baked
 * constants to a SEQ replay of the original program the same way.
 */

#ifndef MSSP_EVAL_CROSSVAL_HH
#define MSSP_EVAL_CROSSVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/specplan.hh"
#include "analysis/specsafe.hh"

namespace mssp
{

/** What validateSpecSafeDynamic() observed. */
struct SpecSafeDynamicResult
{
    size_t checkedLoads = 0;    ///< ProvablyInvariant static loads
    uint64_t observations = 0;  ///< dynamic executions of those loads
    uint64_t valueChanges = 0;  ///< value differed from last time
    std::string firstViolation; ///< detail of the first change
};

/**
 * Replay the merged image (original overlaid with the distilled
 * code, entry at the distilled entry) on the SEQ reference machine
 * for at most @p max_insts instructions and track the value every
 * ProvablyInvariant load in @p loads reads, per static PC. A change
 * between two dynamic executions of the same static load is a
 * counterexample to the classifier's invariance proof.
 */
SpecSafeDynamicResult validateSpecSafeDynamic(
    const Program &orig, const DistilledProgram &dist,
    const std::vector<analysis::LoadClassification> &loads,
    uint64_t max_insts = 20000000ull);

/** One plan candidate's dynamic record. */
struct SpecPlanCandidateDyn
{
    uint32_t pc = 0;
    ValueProof proof = ValueProof::Proven;
    uint32_t predicted = 0;
    uint64_t observations = 0;
    uint64_t hits = 0;          ///< observed value == predicted
};

/** What validateSpecPlanDynamic() observed. */
struct SpecPlanDynamicResult
{
    std::vector<SpecPlanCandidateDyn> candidates; ///< plan order
    uint64_t provenMismatches = 0;  ///< misses at Proven candidates
    uint64_t likelyObservations = 0;
    uint64_t likelyHits = 0;
    std::string firstViolation; ///< first Proven mismatch, if any
};

/**
 * Replay the merged image on the SEQ reference machine for at most
 * @p max_insts instructions and compare the value every plan
 * candidate's load reads against its predicted value. A Proven
 * candidate observing a different value is a counterexample to the
 * value-flow analysis; Likely candidates merely accumulate their
 * observed hit rate.
 */
SpecPlanDynamicResult validateSpecPlanDynamic(
    const Program &orig, const DistilledProgram &dist,
    const std::vector<analysis::SpecPlanCandidate> &candidates,
    uint64_t max_insts = 20000000ull);

/** What validateSpecEditsDynamic() observed. */
struct SpecEditDynamicResult
{
    size_t checkedEdits = 0;        ///< specedit records tracked
    uint64_t observations = 0;      ///< dynamic executions of those loads
    uint64_t provenMismatches = 0;  ///< misses at Proven edits
    uint64_t likelyObservations = 0;
    uint64_t likelyHits = 0;
    std::string firstViolation;     ///< first Proven mismatch, if any
};

/**
 * Replay the *original* program on the SEQ reference machine for at
 * most @p max_insts instructions and compare the value each baked
 * load (dist.specEdits, the .mdo `specedit` lines) actually reads
 * against the constant the speculated image carries. This is the
 * runtime half of the tamper gate: a Proven edit whose original load ever reads a
 * different value — because the record was corrupted or the analysis
 * was wrong — is a hard failure; Likely edits accumulate a hit rate.
 */
SpecEditDynamicResult validateSpecEditsDynamic(
    const Program &orig, const DistilledProgram &dist,
    uint64_t max_insts = 20000000ull);

} // namespace mssp

#endif // MSSP_EVAL_CROSSVAL_HH
