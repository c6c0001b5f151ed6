/**
 * @file
 * The merged original+distilled image and its analyses, built once
 * per distilled image and shared by classifySpecLoads (specsafe.hh),
 * analyzeValueFlow (valueflow.hh) and, through it, planSpeculation
 * (specplan.hh); DESIGN.md §5.3.
 *
 * Restart-root seeding: the original entry is a root (a raw SEQ run
 * of the merged program can fall back into original code through an
 * untranslated return, so all original code stays live for the store
 * summary), and so is every restart point of the distilled code,
 * seeded with the sequential original program's abstract state at
 * the pc it restarts from rather than the all-unknown default (which
 * would flush the address facts out of every loop a fork site sits
 * in). The addrMap targets are deliberately NOT roots: every
 * surviving block is an addrMap value, so rooting them would join
 * unknown state into the whole distilled image. They are reached
 * through ordinary edges — calls carry their return point as a
 * successor (cfg.hh) — and a load the discovery misses is Risky.
 */

#ifndef MSSP_ANALYSIS_MERGED_IMAGE_HH
#define MSSP_ANALYSIS_MERGED_IMAGE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/alias.hh"
#include "distill/distiller.hh"

namespace mssp::analysis
{

/**
 * The original image with the distilled code superimposed: distilled
 * code words overlay @p orig (they live at DistilledCodeBase, far
 * from original code and data) and the entry moves to the distilled
 * entry. This is the address space the master executes in, and the
 * program the dynamic validation gate runs on SEQ.
 */
Program mergedImage(const Program &orig,
                    const DistilledProgram &dist);

/**
 * One distilled image's merged-program analyses. The original
 * program, its CFG (from its entry) and its abstract interpretation
 * are inputs, referenced rather than copied, so one original
 * analysis serves every image distilled from it; all four must
 * outlive this object.
 */
struct MergedImageAnalysis
{
    MergedImageAnalysis(const Program &orig, const Cfg &origCfg,
                        const AbsintResult &origAi,
                        const DistilledProgram &dist);

    const Program &orig;
    const Cfg &origCfg;
    const AbsintResult &origAi;
    const DistilledProgram &dist;

    Program merged;   ///< mergedImage(orig, dist)
    /** The original entry, then every entryMap target. */
    std::vector<uint32_t> roots;
    /** Restart root -> the original program's state at its pc. */
    std::map<uint32_t, AbsState> rootBoundary;
    Cfg cfg;
    AbsintResult ai;
    AliasResult al;
};

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_MERGED_IMAGE_HH
