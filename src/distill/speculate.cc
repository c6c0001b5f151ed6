/**
 * @file
 * The value-speculating distiller pass (DESIGN.md §13).
 *
 * distill() stamps every image with a ranked speculation plan
 * (analysis/specplan.hh) but leaves the candidate loads in place;
 * distillSpeculated() consumes that plan and *bakes* the predicted
 * values in: each selected candidate's load becomes a load-immediate
 * of the predicted constant, constant folding and DCE re-run over the
 * now-shorter code (the address-computation chains feeding the baked
 * loads usually die, which is where the master's retired-instruction
 * win comes from), and the image is laid out and finalized afresh.
 *
 * Every baked load is recorded as a SpecEdit carrying the distilled
 * PC of the baked constant (so mssp-lint can decode the image word
 * and catch tampering), the predicted value and proof strength (so
 * eval/crossval can falsify it against a SEQ replay of the original
 * program), and the policing fork sites — the sites whose verify
 * tasks would squash if the prediction is wrong, which is what the
 * online adaptation loop (eval/adapt.hh) keys de-speculation on.
 *
 * Determinism: the pass is a pure function of (orig, profile, opts,
 * sopts); repeated runs produce byte-identical images and .mdo files.
 */

#include <algorithm>

#include "analysis/specplan.hh"
#include "distill/distiller.hh"
#include "sim/logging.hh"

namespace mssp
{

namespace
{

/** The still-intact load instruction with original PC @p orig_pc,
 *  or null when no alive block carries it. */
IrInst *
findLoad(DistillIr &ir, uint32_t orig_pc)
{
    for (IrBlock &blk : ir.blocks()) {
        if (!blk.alive)
            continue;
        for (IrInst &iinst : blk.body) {
            if (iinst.kind == IrInst::Kind::Normal &&
                iinst.inst.op == Opcode::Lw &&
                iinst.origPc == orig_pc) {
                return &iinst;
            }
        }
    }
    return nullptr;
}

} // anonymous namespace

DistilledProgram
distillSpeculated(const Program &orig, const ProfileData &profile,
                  const DistillerOptions &opts,
                  const SpeculateOptions &sopts)
{
    Cfg cfg = Cfg::build(orig, orig.entry());
    DistillIr ir = DistillIr::build(cfg, &profile);

    DistillReport report;
    report.origStaticInsts = cfg.numInsts();

    runDistillPasses(ir, profile, opts, orig, report);

    std::vector<uint32_t> sites = opts.explicitForkSites;
    std::vector<uint32_t> intervals;
    if (sites.empty()) {
        ForkSelection sel =
            selectForkSites(cfg, profile, opts.forkSelect);
        sites = sel.sites;
        intervals = sel.intervals;
    }
    passMarkForkSites(ir, sites, intervals, report);

    // One original-program abstract interpretation serves both
    // finalizations.
    analysis::AbsintResult origAi = analysis::analyzeProgram(orig, cfg);

    std::vector<uint32_t> dropped = sopts.despeculated;
    std::sort(dropped.begin(), dropped.end());
    dropped.erase(std::unique(dropped.begin(), dropped.end()),
                  dropped.end());

    // The un-speculated baseline: its plan picks the candidates, its
    // pcOrigin maps them back to original loads, and its fork-region
    // in-states decide which fork sites police each bake — a site
    // polices a bake when the regions the load executes in can flow
    // into the site's FORK, i.e. when the site's verify task is the
    // one that squashes on a wrong prediction. The baseline is
    // released before the speculated image is finalized.
    std::vector<SpecEdit> edits;
    {
        DistilledProgram base = layout(ir, report);
        StampedPlan plan = finalizeDistilled(base, orig, cfg, origAi);
        for (const analysis::SpecPlanCandidate &c : plan.candidates) {
            if (c.proof == ValueProof::Likely &&
                (!sopts.bakeLikely ||
                 c.benefitMicro < sopts.minLikelyBenefitMicro)) {
                continue;
            }
            auto oit = base.pcOrigin.find(c.pc);
            if (oit == base.pcOrigin.end())
                continue;
            uint32_t orig_pc = oit->second;
            if (std::binary_search(dropped.begin(), dropped.end(),
                                   orig_pc)) {
                continue;
            }
            IrInst *load = findLoad(ir, orig_pc);
            if (!load)
                continue;
            uint8_t rd = load->inst.rd;
            *load = IrInst::loadImm(rd, c.value, orig_pc);
            ++report.loadsValueSpeced;
            report.edits.push_back({DistillEdit::Pass::ValueSpec, orig_pc,
                                    rd, true, c.value});

            SpecEdit e;
            e.origPc = orig_pc;
            e.reg = rd;
            e.addr = c.addr;
            e.proof = c.proof;
            e.value = c.value;
            e.benefitMicro = c.benefitMicro;
            for (uint32_t site : base.taskMap) {
                auto ep = base.entryMap.find(site);
                if (ep == base.entryMap.end())
                    continue;
                auto rit = plan.blockRegions.find(ep->second);
                if (rit != plan.blockRegions.end() &&
                    analysis::regionsIntersect(rit->second, c.regions)) {
                    e.policedBy.push_back(site);
                }
            }
            if (e.policedBy.empty())
                e.policedBy = base.taskMap;   // conservative: all sites
            std::sort(e.policedBy.begin(), e.policedBy.end());
            edits.push_back(std::move(e));
        }
    }

    if (!edits.empty()) {
        // The baked constants expose new folds and dead address
        // computations; unreachable-code elimination deliberately
        // does NOT re-run — a block only a *speculative* constant
        // proves dead is still abstractly reachable, and removing it
        // would (correctly) fail the semantic validator.
        if (opts.enableConstFold)
            passConstFold(ir, report);
        if (opts.enableDce)
            passDce(ir, report);
    }

    DistilledProgram out = layout(ir, report);
    finalizeDistilled(out, orig, cfg, origAi);

    // Locate each baked constant in the final image; an edit whose
    // load-immediate was itself folded away (its register became
    // dead after downstream folding) leaves no image word to police
    // and is not recorded.
    std::map<uint32_t, uint32_t> orig_to_dist;
    for (const auto &[dist_pc, orig_pc] : out.pcOrigin)
        orig_to_dist[orig_pc] = dist_pc;
    for (SpecEdit &e : edits) {
        auto it = orig_to_dist.find(e.origPc);
        if (it == orig_to_dist.end())
            continue;
        e.distPc = it->second;
        out.specEdits.push_back(std::move(e));
    }

    out.specDropped = std::move(dropped);
    out.specGeneration = sopts.generation;
    return out;
}

} // namespace mssp
