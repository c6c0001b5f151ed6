/**
 * @file
 * Merged-image analysis implementation (see merged_image.hh).
 */

#include "analysis/merged_image.hh"

namespace mssp::analysis
{

Program
mergedImage(const Program &orig, const DistilledProgram &dist)
{
    Program merged = orig;
    for (const auto &[addr, word] : dist.prog.image())
        merged.setWord(addr, word);
    merged.setEntry(dist.prog.entry());
    return merged;
}

MergedImageAnalysis::MergedImageAnalysis(const Program &orig,
                                         const Cfg &origCfg,
                                         const AbsintResult &origAi,
                                         const DistilledProgram &dist)
    : orig(orig), origCfg(origCfg), origAi(origAi), dist(dist),
      merged(mergedImage(orig, dist))
{
    roots.push_back(orig.entry());
    for (const auto &[o, dpc] : dist.entryMap) {
        roots.push_back(dpc);
        AbsState st = stateBefore(origAi, origCfg, orig, o);
        if (st.reachable)
            rootBoundary[dpc] = st;
    }
    cfg = Cfg::build(merged, merged.entry(), roots);
    ai = analyzeProgram(merged, cfg, &rootBoundary);
    al = analyzeAliases(merged, cfg, ai);
}

} // namespace mssp::analysis
