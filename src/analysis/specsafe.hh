/**
 * @file
 * Speculation-safety classification of distilled-image loads.
 *
 * The paper's headline distillation knob replaces near-invariant
 * loads with constants; before the distiller may speculate a load it
 * needs a *static* oracle proving which loads are safe. This pass is
 * that oracle (DESIGN.md §5.3): over the merged original+distilled
 * image's interval abstract interpretation and store sets
 * (analysis/merged_image.hh, analysis/alias.hh) it labels every
 * static load in the distilled code:
 *
 *  - ProvablyInvariant: the address is exactly known, is not device
 *    space, and *no* store anywhere in the merged program may alias
 *    it. Such a load returns the image word on every execution —
 *    safe to bake in as a constant, and the dynamic cross-validation
 *    gate (eval/crossval.hh) asserts it never observes a change.
 *  - RegionInvariant: aliasing stores exist, but no distilled store
 *    can execute in any fork region the load executes in — the value
 *    is invariant between fork boundaries, not across them.
 *  - Risky: an aliasing distilled store shares a region with the
 *    load (the counterexample names the store and its overlapping
 *    interval), the address could not be pinned, or the load reads
 *    device space.
 *
 * The classification ships three ways: this library API (the future
 * value-speculating distiller's oracle), `mssp-lint --specsafe`
 * (human text + versioned `mssp-specsafe-v1` JSON), and per-load
 * `.mdo` metadata (DistilledProgram::loadClasses, format v3).
 * analyzeSpecSafe() additionally validates persisted metadata
 * against the recomputation: a missing, stale or mismatching class
 * is an error-severity lint finding.
 */

#ifndef MSSP_ANALYSIS_SPECSAFE_HH
#define MSSP_ANALYSIS_SPECSAFE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/merged_image.hh"
#include "analysis/verifier.hh"

namespace mssp::analysis
{

/** One classified static load in the distilled image. */
struct LoadClassification
{
    uint32_t pc = 0;               ///< distilled PC of the load
    LoadSpecClass cls = LoadSpecClass::Risky;
    AbsVal addr;                   ///< abstract address of the load
    /** Proof sketch (invariant classes) or counterexample (Risky). */
    std::string detail;
    /** Counterexample store PC (UINT32_MAX when not applicable). */
    uint32_t storePc = UINT32_MAX;
    /** Counterexample store's address interval. */
    AbsVal storeAddr = AbsVal::bottom();
};

/** The full specsafe result for one workload/image. */
struct SpecSafeReport
{
    /** Every static load in the distilled image, ascending by PC. */
    std::vector<LoadClassification> loads;

    /** Metadata-validation findings (specsafe-mismatch /
     *  specsafe-coverage; empty when the image agrees). */
    LintReport lint;

    size_t provablyInvariant() const;
    size_t regionInvariant() const;
    size_t risky() const;

    /** One line per load plus a summary line. */
    std::string toText() const;

    /** Deterministic JSON document, schema mssp-specsafe-v1. With a
     *  non-empty @p workload the document names it. */
    std::string toJson(const std::string &workload = "") const;
};

/**
 * Classify every static load of @p mia's distilled image (pure
 * recomputation; ignores dist.loadClasses). This is what distill()
 * uses to stamp the image.
 */
std::vector<LoadClassification>
classifySpecLoads(const MergedImageAnalysis &mia);

/**
 * Classify and validate: recompute the classification and check the
 * image's persisted loadClasses against it. Unclassified loads,
 * stale entries and class mismatches are error findings.
 */
SpecSafeReport analyzeSpecSafe(const Program &orig,
                               const DistilledProgram &dist);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_SPECSAFE_HH
