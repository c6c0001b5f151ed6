/**
 * @file
 * Semantic translation validation of distiller edits.
 *
 * verifyDistilled() (verifier.cc) checks the *structural* contract:
 * every edit names the right kind of instruction. This pass checks
 * the *semantic* one: abstractly execute the original program
 * (analysis/absint.hh) and decide, per recorded edit, whether the
 * superimposition relation "<-" (DESIGN.md §5.1) can be violated.
 *
 * Each edit is classified (DESIGN.md §5.2):
 *
 *  - Proven: no reachable original execution diverges at the edit —
 *    the branch always goes the hard-wired way, the folded constant
 *    is the only abstract value, the value-spec'd word is never
 *    overwritten, the removed register is dead on every path.
 *  - Risky: the abstraction contains a counterexample — an
 *    interfering store, a stale image word, a branch whose operand
 *    ranges admit the other direction on every path, a removed
 *    instruction whose destination is still demanded.
 *  - Unknown: the abstraction is too coarse to decide.
 *
 * Severity policy: Risky edits of *approximate* passes are warnings
 * (MSSP's verify/commit unit recovers at runtime); Risky edits of
 * semantics-preserving passes are errors — unless the divergence is
 * attributable to an earlier speculative edit in the same region
 * (constant folding legitimately propagates value-spec'd constants),
 * in which case the blame stays on the approximate edit and the fold
 * is downgraded to a warning. Region/live-out metadata that fails
 * recomputation is always an error.
 *
 * Dead-code verdicts use two *projected* liveness solutions over the
 * original CFG: the proven projection only prunes branch edges the
 * abstract interpreter decided and only drops uses of proven-constant
 * folds (a sound over-approximation of original demand); the
 * optimistic projection prunes every recorded branch direction and
 * drops every rewritten use (the distilled program's demand mapped
 * onto original PCs). Dead under the former proves the removal; dead
 * only under the latter means divergence requires a mispredicted
 * hard-wired branch (Unknown); live even under the latter means the
 * distilled code still demands the register (error).
 *
 * Finally, every edited region is compared end-to-end: the original
 * block and its distilled counterpart (via the addr map) are
 * abstractly executed from the same entry state, and any recomputed
 * live-out register that is constant on both sides with *different*
 * constants is a proven superimposition violation — this is what
 * catches image corruption that never touched the edit log.
 */

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "analysis/absint.hh"
#include "analysis/dataflow.hh"
#include "analysis/flow_graph.hh"
#include "analysis/liveness.hh"
#include "analysis/verifier.hh"
#include "arch/mmio.hh"
#include "cfg/cfg.hh"
#include "exec/executor.hh"
#include "sim/logging.hh"
#include "util/string_utils.hh"

namespace mssp::analysis
{

const char *
editRiskName(EditRisk risk)
{
    switch (risk) {
      case EditRisk::Proven: return "proven";
      case EditRisk::Risky: return "risky";
      case EditRisk::Unknown: return "unknown";
    }
    return "?";
}

namespace
{

/** Which projected-liveness variant (see file comment). */
enum class Projection : uint8_t
{
    Proven,       ///< sound over-approximation of original demand
    Optimistic,   ///< distilled demand mapped onto original PCs
};

/** Shared state of one semantic validation run. */
struct Sem
{
    const Program &orig;
    const DistilledProgram &dist;

    Cfg origCfg;
    Cfg distCfg;
    std::map<uint32_t, BlockLiveness> origLive;
    AbsintResult ai;

    LintReport rep;
    std::vector<EditVerdict> verdicts;

    // Edit-log indexes, keyed by original PC.
    std::set<uint32_t> removedPcs;           ///< Dce + SilentStoreElim
    std::set<uint32_t> removedBlocks;        ///< UnreachableElim leaders
    std::map<uint32_t, uint32_t> branchEdits;    ///< branch pc -> dir
    std::set<uint32_t> foldPcs;              ///< ConstFold-reg/ValueSpec
    std::set<uint32_t> provenFoldPcs;        ///< subset proven constant
    /** Region leader -> PCs of value-spec edits inside it (the taint
     *  source for downstream constant folds). */
    std::map<uint32_t, std::vector<uint32_t>> specPcsByRegion;

    std::vector<uint32_t> projStarts;        ///< origCfg leaders, asc.

    Sem(const Program &orig, const DistilledProgram &dist)
        : orig(orig), dist(dist),
          origCfg(Cfg::build(orig, orig.entry())),
          distCfg(distilledCfg(dist))
    {
        origLive = computeLiveness(origCfg);
        ai = analyzeProgram(orig, origCfg);

        for (const auto &[start, bb] : origCfg.blocks())
            projStarts.push_back(start);
    }

    void
    addEdit(Severity sev, LintCheck check, const DistillEdit &e,
            std::string message)
    {
        Finding f;
        f.severity = sev;
        f.check = check;
        f.pc = e.origPc;
        f.block = e.regionStart;
        f.hasPass = true;
        f.pass = e.pass;
        f.message = std::move(message);
        rep.findings.push_back(std::move(f));
    }

    /** Recomputed containing-region leader of @p pc, or UINT32_MAX. */
    uint32_t
    regionOf(uint32_t pc) const
    {
        const BasicBlock *bb = containingBlock(origCfg, pc);
        return bb ? bb->start : UINT32_MAX;
    }

    bool isBranchEdit(const DistillEdit &e) const
    {
        return e.pass == DistillEdit::Pass::BranchPrune ||
               (e.pass == DistillEdit::Pass::ConstFold && e.reg == 0);
    }

    /** True when an earlier value-spec edit in the same region can
     *  have fed this edit's constant (fold taint; see file comment). */
    bool
    taintedBySpec(const DistillEdit &e) const
    {
        auto it = specPcsByRegion.find(regionOf(e.origPc));
        if (it == specPcsByRegion.end())
            return false;
        for (uint32_t pc : it->second) {
            if (pc < e.origPc)
                return true;
        }
        return false;
    }

    void indexEdits();
    void checkMetadata();
    void classifyEdits();
    void classifyDceAndUnreachable();
    void compareRegions();

    void classifyBranch(EditVerdict &v);
    void classifyConstFold(EditVerdict &v);
    void classifyValueSpec(EditVerdict &v);
    void classifySilentStore(EditVerdict &v);

    void projDefUse(uint32_t pc, const Instruction &inst,
                    Projection mode, RegMask &def, RegMask &use) const;
    DataflowResult<MaskDomain> solveProjected(Projection mode) const;
    RegMask liveAfter(const DataflowResult<MaskDomain> &solved,
                      Projection mode, uint32_t pc) const;
};

void
Sem::indexEdits()
{
    verdicts.resize(dist.report.edits.size());
    for (size_t i = 0; i < dist.report.edits.size(); ++i) {
        const DistillEdit &e = dist.report.edits[i];
        verdicts[i].index = i;
        verdicts[i].edit = e;
        switch (e.pass) {
          case DistillEdit::Pass::Dce:
          case DistillEdit::Pass::SilentStoreElim:
            removedPcs.insert(e.origPc);
            break;
          case DistillEdit::Pass::UnreachableElim:
            removedBlocks.insert(e.origPc);
            break;
          case DistillEdit::Pass::BranchPrune:
            branchEdits[e.origPc] = e.value;
            break;
          case DistillEdit::Pass::ConstFold:
            if (e.reg == 0)
                branchEdits[e.origPc] = e.value;
            else
                foldPcs.insert(e.origPc);
            break;
          case DistillEdit::Pass::ValueSpec:
            foldPcs.insert(e.origPc);
            specPcsByRegion[regionOf(e.origPc)].push_back(e.origPc);
            break;
        }
    }
}

// The distiller stamps every edit with its region leader and that
// block's live-out mask; both must survive independent recomputation,
// and hard-wired directions must be honored by the distilled image.
void
Sem::checkMetadata()
{
    for (EditVerdict &v : verdicts) {
        const DistillEdit &e = v.edit;
        const BasicBlock *bb = containingBlock(origCfg, e.origPc);
        if (!bb) {
            addEdit(Severity::Error, LintCheck::EditMetadata, e,
                    strfmt("%s edit at 0x%x lies in no original "
                           "block; region metadata unverifiable",
                           distillPassName(e.pass), e.origPc));
            continue;
        }
        if (e.regionStart != bb->start) {
            addEdit(Severity::Error, LintCheck::EditMetadata, e,
                    strfmt("edit claims region 0x%x, but 0x%x lies "
                           "in block 0x%x",
                           e.regionStart, e.origPc, bb->start));
        }
        auto live_it = origLive.find(bb->start);
        RegMask recomputed = live_it != origLive.end()
                                 ? live_it->second.liveOut
                                 : AllRegsMask;
        if (e.regionStart == bb->start && e.liveOut != recomputed) {
            addEdit(Severity::Error, LintCheck::EditMetadata, e,
                    strfmt("edit claims live-out mask 0x%x for block "
                           "0x%x, recomputation yields 0x%x",
                           e.liveOut, bb->start, recomputed));
        }

        bool needs_value =
            e.pass == DistillEdit::Pass::BranchPrune ||
            e.pass == DistillEdit::Pass::ConstFold ||
            e.pass == DistillEdit::Pass::ValueSpec;
        if (needs_value && !e.hasValue) {
            addEdit(Severity::Error, LintCheck::EditMetadata, e,
                    strfmt("%s edit at 0x%x carries no value/"
                           "direction metadata",
                           distillPassName(e.pass), e.origPc));
            continue;
        }
        if (isBranchEdit(e) && e.value > 1) {
            addEdit(Severity::Error, LintCheck::EditMetadata, e,
                    strfmt("branch edit at 0x%x has direction %u "
                           "(must be 0 or 1)",
                           e.origPc, e.value));
            continue;
        }

        // A hard-wired branch must be honored by the image: the
        // distilled block has to transfer to the distilled copy of
        // the recorded direction's target.
        if (isBranchEdit(e) && e.hasValue &&
            bb->term == TermKind::CondBranch) {
            auto self = dist.addrMap.find(bb->start);
            if (self == dist.addrMap.end() ||
                !distCfg.hasBlock(self->second)) {
                continue;   // block not emitted (removed later)
            }
            uint32_t target =
                e.value ? bb->takenTarget : bb->fallthrough;
            auto tgt = dist.addrMap.find(target);
            if (tgt == dist.addrMap.end()) {
                addEdit(Severity::Error, LintCheck::EditMetadata, e,
                        strfmt("hard-wired direction's target 0x%x "
                               "has no distilled counterpart",
                               target));
                continue;
            }
            // A fully-optimized-away block has an empty emission and
            // shares its distilled address with the very target it
            // falls into; that honors the direction trivially.
            if (self->second == tgt->second)
                continue;
            const BasicBlock &db = distCfg.blockAt(self->second);
            if (std::find(db.succs.begin(), db.succs.end(),
                          tgt->second) == db.succs.end()) {
                addEdit(Severity::Error, LintCheck::EditMetadata, e,
                        strfmt("distilled block 0x%x does not "
                               "transfer to 0x%x, the distilled copy "
                               "of the hard-wired target 0x%x",
                               self->second, tgt->second, target));
            }
        }
    }
}

void
Sem::classifyBranch(EditVerdict &v)
{
    const DistillEdit &e = v.edit;
    Instruction br = decode(orig.word(e.origPc));
    if (!isCondBranch(br.op)) {
        v.risk = EditRisk::Risky;
        v.detail = strfmt("0x%x is %s, not a conditional branch",
                          e.origPc, opcodeName(br.op));
        addEdit(Severity::Error, LintCheck::SemanticBranch, e,
                v.detail);
        return;
    }
    AbsState st = stateBefore(ai, origCfg, orig, e.origPc);
    std::string a = st.reg(br.rs1).toString();
    std::string b = st.reg(br.rs2).toString();
    auto it = ai.branchDecision.find(e.origPc);
    TriState d = it != ai.branchDecision.end() ? it->second
                                               : TriState::Unknown;
    const char *wired = e.value ? "taken" : "fall-through";

    if ((e.value == 1 && d == TriState::True) ||
        (e.value == 0 && d == TriState::False)) {
        v.risk = EditRisk::Proven;
        v.detail = strfmt("operands %s, %s decide %s on every "
                          "reachable path",
                          a.c_str(), b.c_str(), wired);
        return;
    }
    if (d != TriState::Unknown) {
        v.risk = EditRisk::Risky;
        v.detail = strfmt("hard-wired %s, but operands %s, %s always "
                          "go the other way",
                          wired, a.c_str(), b.c_str());
        Severity sev =
            e.pass == DistillEdit::Pass::BranchPrune ||
                    taintedBySpec(e)
                ? Severity::Warning
                : Severity::Error;
        addEdit(sev, LintCheck::SemanticBranch, e, v.detail);
        return;
    }
    v.risk = EditRisk::Unknown;
    v.detail = strfmt("direction unproven: operand ranges %s, %s "
                      "admit both",
                      a.c_str(), b.c_str());
    // A semantics-preserving branch fold should have been provable
    // unless it propagates speculation; flag the unproven claim.
    if (e.pass == DistillEdit::Pass::ConstFold && !taintedBySpec(e)) {
        addEdit(Severity::Warning, LintCheck::SemanticBranch, e,
                strfmt("const-folded branch claims %s, but %s",
                       wired, v.detail.c_str()));
    }
}

void
Sem::classifyConstFold(EditVerdict &v)
{
    const DistillEdit &e = v.edit;
    AbsState st = stateBefore(ai, origCfg, orig, e.origPc);
    Instruction inst = decode(orig.word(e.origPc));
    absStep(e.origPc, inst, st, &orig, &ai.stores);
    const AbsVal &val = st.reg(e.reg);

    if (val.isConst() && val.cval() == e.value) {
        v.risk = EditRisk::Proven;
        provenFoldPcs.insert(e.origPc);
        v.detail = strfmt("%s provably holds 0x%x after 0x%x",
                          regName(e.reg), e.value, e.origPc);
        return;
    }
    if (!val.contains(e.value)) {
        v.risk = EditRisk::Risky;
        v.detail = strfmt("folded %s to 0x%x, but its abstract value "
                          "after 0x%x is %s",
                          regName(e.reg), e.value, e.origPc,
                          val.toString().c_str());
        addEdit(taintedBySpec(e) ? Severity::Warning : Severity::Error,
                LintCheck::SemanticConst, e, v.detail);
        return;
    }
    v.risk = EditRisk::Unknown;
    v.detail = strfmt("abstract value %s does not pin 0x%x",
                      val.toString().c_str(), e.value);
}

void
Sem::classifyValueSpec(EditVerdict &v)
{
    const DistillEdit &e = v.edit;
    AbsState st = stateBefore(ai, origCfg, orig, e.origPc);
    Instruction inst = decode(orig.word(e.origPc));
    AbsVal addr = absMemAddr(st, inst);

    if (!addr.isConst()) {
        v.risk = EditRisk::Unknown;
        v.detail = strfmt("load address unproven: %s",
                          addr.toString().c_str());
        return;
    }
    uint32_t a = addr.cval();
    if (isMmio(a)) {
        v.risk = EditRisk::Risky;
        v.detail = strfmt("replaces a device load from 0x%x with a "
                          "constant",
                          a);
        addEdit(Severity::Warning, LintCheck::SemanticLoad, e,
                v.detail);
        return;
    }
    if (const StoreSite *s = ai.stores.interferer(a)) {
        v.risk = EditRisk::Risky;
        v.detail = strfmt("store at 0x%x (addr %s, value %s) may "
                          "overwrite 0x%x",
                          s->pc, s->addr.toString().c_str(),
                          s->value.toString().c_str(), a);
        addEdit(Severity::Warning, LintCheck::SemanticLoad, e,
                v.detail);
        return;
    }
    if (orig.word(a) == e.value) {
        v.risk = EditRisk::Proven;
        provenFoldPcs.insert(e.origPc);
        v.detail = strfmt("load at 0x%x always reads never-written "
                          "image word [0x%x] = 0x%x",
                          e.origPc, a, e.value);
        return;
    }
    v.risk = EditRisk::Risky;
    v.detail = strfmt("stale load-constant: image word [0x%x] is "
                      "0x%x, not the baked-in 0x%x",
                      a, orig.word(a), e.value);
    addEdit(Severity::Warning, LintCheck::SemanticLoad, e, v.detail);
}

void
Sem::classifySilentStore(EditVerdict &v)
{
    const DistillEdit &e = v.edit;
    AbsState st = stateBefore(ai, origCfg, orig, e.origPc);
    Instruction inst = decode(orig.word(e.origPc));
    AbsVal addr = absMemAddr(st, inst);
    const AbsVal &val = st.reg(inst.rs2);

    if (!addr.isConst()) {
        v.risk = EditRisk::Unknown;
        v.detail = strfmt("store address unproven: %s",
                          addr.toString().c_str());
        return;
    }
    uint32_t a = addr.cval();
    if (isMmio(a)) {
        v.risk = EditRisk::Risky;
        v.detail = strfmt("elides a device store to 0x%x", a);
        addEdit(Severity::Warning, LintCheck::SemanticStore, e,
                v.detail);
        return;
    }
    if (const StoreSite *s = ai.stores.interferer(a, e.origPc)) {
        v.risk = EditRisk::Unknown;
        v.detail = strfmt("silence unprovable: store at 0x%x (addr "
                          "%s) also writes [0x%x]",
                          s->pc, s->addr.toString().c_str(), a);
        return;
    }
    if (!val.isConst()) {
        v.risk = EditRisk::Unknown;
        v.detail = strfmt("stored value unproven: %s",
                          val.toString().c_str());
        return;
    }
    if (orig.word(a) == val.cval()) {
        v.risk = EditRisk::Proven;
        v.detail = strfmt("always writes 0x%x to [0x%x], which holds "
                          "it initially and has no other writer",
                          val.cval(), a);
        return;
    }
    v.risk = EditRisk::Risky;
    v.detail = strfmt("provably not silent: [0x%x] holds 0x%x "
                      "initially, the store writes 0x%x",
                      a, orig.word(a), val.cval());
    addEdit(Severity::Warning, LintCheck::SemanticStore, e, v.detail);
}

void
Sem::classifyEdits()
{
    for (EditVerdict &v : verdicts) {
        if (!containingBlock(origCfg, v.edit.origPc)) {
            v.risk = EditRisk::Risky;
            v.detail = "edit lies outside the reachable original "
                       "program";
            continue;   // EditMetadata finding already recorded
        }
        switch (v.edit.pass) {
          case DistillEdit::Pass::BranchPrune:
            classifyBranch(v);
            break;
          case DistillEdit::Pass::ConstFold:
            if (v.edit.reg == 0)
                classifyBranch(v);
            else
                classifyConstFold(v);
            break;
          case DistillEdit::Pass::ValueSpec:
            classifyValueSpec(v);
            break;
          case DistillEdit::Pass::SilentStoreElim:
            classifySilentStore(v);
            break;
          case DistillEdit::Pass::Dce:
          case DistillEdit::Pass::UnreachableElim:
            break;   // classifyDceAndUnreachable
        }
    }
}

// Projected def/use of one original instruction (see file comment):
// removed instructions contribute nothing; rewritten ones (constant
// folds, value specs, hard-wired branches) keep their definition but
// lose their uses in the distilled code.
void
Sem::projDefUse(uint32_t pc, const Instruction &inst, Projection mode,
                RegMask &def, RegMask &use) const
{
    def = use = 0;
    if (removedPcs.count(pc))
        return;
    instDefUse(inst, def, use);
    if (branchEdits.count(pc)) {
        if (mode == Projection::Optimistic)
            use = 0;
        return;
    }
    if (foldPcs.count(pc)) {
        if (mode == Projection::Optimistic || provenFoldPcs.count(pc))
            use = 0;
    }
}

DataflowResult<MaskDomain>
Sem::solveProjected(Projection mode) const
{
    FlowGraph g(projStarts.size());
    std::map<uint32_t, int> node;
    for (size_t i = 0; i < projStarts.size(); ++i)
        node[projStarts[i]] = static_cast<int>(i);
    g.entry = node.at(origCfg.entry());
    for (uint32_t r : origCfg.roots())
        g.roots.push_back(node.at(r));

    MaskDomain dom(g.size());
    for (size_t i = 0; i < projStarts.size(); ++i) {
        const BasicBlock &bb = origCfg.blockAt(projStarts[i]);

        // Successor edges, pruned per mode.
        std::vector<uint32_t> succs = bb.succs;
        if (bb.term == TermKind::CondBranch && !bb.insts.empty()) {
            uint32_t term_pc = bb.pcOf(bb.insts.size() - 1);
            if (mode == Projection::Proven) {
                auto it = ai.branchDecision.find(term_pc);
                TriState d = it != ai.branchDecision.end()
                                 ? it->second
                                 : TriState::Unknown;
                if (d == TriState::True)
                    succs = {bb.takenTarget};
                else if (d == TriState::False)
                    succs = {bb.fallthrough};
            } else {
                auto it = branchEdits.find(term_pc);
                if (it != branchEdits.end()) {
                    succs = {it->second ? bb.takenTarget
                                        : bb.fallthrough};
                }
            }
        }
        for (uint32_t s : succs) {
            if (!origCfg.hasBlock(s)) {
                dom.boundaries[i] = AllRegsMask;
                continue;
            }
            if (mode == Projection::Optimistic &&
                removedBlocks.count(s)) {
                continue;   // the distilled image has no such block
            }
            g.addEdge(static_cast<int>(i), node.at(s));
        }

        RegMask gen = 0, kill = 0;
        for (size_t k = 0; k < bb.insts.size(); ++k) {
            RegMask def, use;
            projDefUse(bb.pcOf(k), bb.insts[k], mode, def, use);
            gen |= use & ~kill;
            kill |= def;
        }
        dom.gen[i] = gen;
        dom.kill[i] = kill;

        switch (bb.term) {
          case TermKind::IndirectJump:
          case TermKind::Fault:
            dom.boundaries[i] = AllRegsMask;
            break;
          default:
            break;
        }
    }
    return solveRegLiveness(g, dom);
}

// Live-after mask at @p pc under a solved projection: fold the block
// suffix below @p pc backward from the block's live-out.
RegMask
Sem::liveAfter(const DataflowResult<MaskDomain> &solved,
               Projection mode, uint32_t pc) const
{
    const BasicBlock *bb = containingBlock(origCfg, pc);
    if (!bb)
        return AllRegsMask;
    auto it = std::lower_bound(projStarts.begin(), projStarts.end(),
                               bb->start);
    auto n = static_cast<size_t>(it - projStarts.begin());
    RegMask after = solved.in[n];   // backward: in = live-out
    size_t idx = pc - bb->start;
    for (size_t i = bb->insts.size(); i-- > idx + 1;) {
        RegMask def, use;
        projDefUse(bb->pcOf(i), bb->insts[i], mode, def, use);
        after = (after & ~def) | use;
    }
    return after;
}

void
Sem::classifyDceAndUnreachable()
{
    auto proven_live = solveProjected(Projection::Proven);
    auto opt_live = solveProjected(Projection::Optimistic);

    // Optimistic reachability over the original CFG: follow only the
    // recorded direction of every hard-wired branch, tracking BFS
    // parents for counterexample paths.
    std::map<uint32_t, uint32_t> parent;
    std::deque<uint32_t> work;
    auto visit = [&](uint32_t start, uint32_t from) {
        if (origCfg.hasBlock(start) && !parent.count(start)) {
            parent[start] = from;
            work.push_back(start);
        }
    };
    visit(origCfg.entry(), UINT32_MAX);
    while (!work.empty()) {
        const BasicBlock &bb = origCfg.blockAt(work.front());
        work.pop_front();
        if (bb.term == TermKind::CondBranch && !bb.insts.empty()) {
            auto it = branchEdits.find(bb.pcOf(bb.insts.size() - 1));
            if (it != branchEdits.end()) {
                visit(it->second ? bb.takenTarget : bb.fallthrough,
                      bb.start);
                continue;
            }
        }
        for (uint32_t s : bb.succs)
            visit(s, bb.start);
    }
    auto path_to = [&](uint32_t start) {
        std::string path = strfmt("0x%x", start);
        uint32_t at = start;
        int hops = 0;
        while (parent.count(at) && parent[at] != UINT32_MAX &&
               hops++ < 8) {
            at = parent[at];
            path = strfmt("0x%x -> ", at) + path;
        }
        return path;
    };

    for (EditVerdict &v : verdicts) {
        const DistillEdit &e = v.edit;
        if (e.pass == DistillEdit::Pass::Dce ||
            e.pass == DistillEdit::Pass::SilentStoreElim) {
            if (e.pass == DistillEdit::Pass::SilentStoreElim)
                continue;   // classified by classifySilentStore
            if (!containingBlock(origCfg, e.origPc))
                continue;
            if (e.reg == 0) {
                v.risk = EditRisk::Proven;
                v.detail = "removed instruction writes no "
                           "architected register";
                continue;
            }
            RegMask bit = 1u << e.reg;
            if (!(liveAfter(proven_live, Projection::Proven,
                            e.origPc) &
                  bit)) {
                v.risk = EditRisk::Proven;
                v.detail = strfmt("%s is dead past 0x%x on every "
                                  "original path",
                                  regName(e.reg), e.origPc);
            } else if (!(liveAfter(opt_live, Projection::Optimistic,
                                   e.origPc) &
                         bit)) {
                v.risk = EditRisk::Unknown;
                v.detail = strfmt("%s is live in the original past "
                                  "0x%x, dead under the recorded "
                                  "branch directions",
                                  regName(e.reg), e.origPc);
            } else {
                v.risk = EditRisk::Risky;
                v.detail = strfmt("removed instruction at 0x%x "
                                  "writes %s, which the distilled "
                                  "control flow still demands",
                                  e.origPc, regName(e.reg));
                addEdit(Severity::Error, LintCheck::SemanticLiveOut,
                        e, v.detail);
            }
            continue;
        }
        if (e.pass != DistillEdit::Pass::UnreachableElim)
            continue;
        if (!ai.reachable.count(e.origPc)) {
            v.risk = EditRisk::Proven;
            v.detail = strfmt("block 0x%x is unreachable under "
                              "abstract branch decisions",
                              e.origPc);
        } else if (!parent.count(e.origPc)) {
            v.risk = EditRisk::Unknown;
            v.detail = strfmt("block 0x%x is reachable only through "
                              "a mispredicted hard-wired branch",
                              e.origPc);
        } else {
            v.risk = EditRisk::Risky;
            v.detail = strfmt("removed block 0x%x is still reachable "
                              "under the recorded branch directions "
                              "(%s)",
                              e.origPc, path_to(e.origPc).c_str());
            addEdit(Severity::Error, LintCheck::SemanticUnreachable,
                    e, v.detail);
        }
    }
}

// End-to-end region check: push the same abstract entry state through
// an edited original block and its distilled counterpart; any
// recomputed live-out register constant on both sides with different
// constants is a proven superimposition violation.
void
Sem::compareRegions()
{
    std::set<uint32_t> regions;
    for (const EditVerdict &v : verdicts) {
        uint32_t r = regionOf(v.edit.origPc);
        if (r != UINT32_MAX)
            regions.insert(r);
    }

    for (uint32_t start : regions) {
        auto in_it = ai.blockIn.find(start);
        if (in_it == ai.blockIn.end() || !in_it->second.reachable)
            continue;
        auto am = dist.addrMap.find(start);
        if (am == dist.addrMap.end() ||
            !distCfg.hasBlock(am->second)) {
            continue;   // block not emitted (removed)
        }

        // Registers excused from the comparison: link registers
        // (distilled call lowering materializes the original return
        // address, but jalr links genuinely differ), targets of
        // removed definitions, and targets of non-proven rewrites
        // (their divergence is the *edit's* finding, not the
        // region's).
        RegMask excused = 0;
        for (const EditVerdict &v : verdicts) {
            const DistillEdit &e = v.edit;
            if (regionOf(e.origPc) != start || e.reg == 0)
                continue;
            if (e.pass == DistillEdit::Pass::Dce ||
                v.risk != EditRisk::Proven) {
                excused |= 1u << e.reg;
            }
        }

        AbsState st_o = in_it->second;
        AbsState st_d = in_it->second;
        const BasicBlock &ob = origCfg.blockAt(start);
        for (size_t i = 0; i < ob.insts.size(); ++i) {
            const Instruction &inst = ob.insts[i];
            if ((inst.op == Opcode::Jal || inst.op == Opcode::Jalr) &&
                inst.rd != 0) {
                excused |= 1u << inst.rd;
            }
            absStep(ob.pcOf(i), inst, st_o, &orig, &ai.stores);
        }
        const BasicBlock &db = distCfg.blockAt(am->second);
        for (size_t i = 0; i < db.insts.size(); ++i) {
            const Instruction &inst = db.insts[i];
            if ((inst.op == Opcode::Jal || inst.op == Opcode::Jalr) &&
                inst.rd != 0) {
                excused |= 1u << inst.rd;
            }
            absStep(db.pcOf(i), inst, st_d, &orig, &ai.stores);
        }

        auto live_it = origLive.find(start);
        RegMask live_out = live_it != origLive.end()
                               ? live_it->second.liveOut
                               : AllRegsMask;
        for (unsigned r = 1; r < NumRegs; ++r) {
            if (!(live_out & (1u << r)) || (excused & (1u << r)))
                continue;
            const AbsVal &vo = st_o.reg(r);
            const AbsVal &vd = st_d.reg(r);
            if (vo.isConst() && vd.isConst() &&
                vo.cval() != vd.cval()) {
                Finding f;
                f.severity = Severity::Error;
                f.check = LintCheck::SemanticLiveOut;
                f.pc = am->second;
                f.block = start;
                f.message = strfmt(
                    "live-out %s of region 0x%x diverges: original "
                    "block yields 0x%x, distilled block at 0x%x "
                    "yields 0x%x",
                    regName(r), start, vo.cval(), am->second,
                    vd.cval());
                rep.findings.push_back(std::move(f));
            }
        }
    }
}

} // anonymous namespace

SemanticResult
verifyDistilledSemantic(const Program &orig,
                        const DistilledProgram &dist)
{
    Sem s(orig, dist);
    s.indexEdits();
    s.checkMetadata();
    s.classifyEdits();
    s.classifyDceAndUnreachable();
    s.compareRegions();

    SemanticResult out;
    out.lint = std::move(s.rep);
    out.semantic.verdicts = std::move(s.verdicts);
    return out;
}

size_t
SemanticReport::proven() const
{
    size_t n = 0;
    for (const EditVerdict &v : verdicts)
        n += v.risk == EditRisk::Proven;
    return n;
}

size_t
SemanticReport::risky() const
{
    size_t n = 0;
    for (const EditVerdict &v : verdicts)
        n += v.risk == EditRisk::Risky;
    return n;
}

size_t
SemanticReport::unknown() const
{
    size_t n = 0;
    for (const EditVerdict &v : verdicts)
        n += v.risk == EditRisk::Unknown;
    return n;
}

std::string
SemanticReport::toText() const
{
    std::string out;
    for (const EditVerdict &v : verdicts) {
        out += strfmt("edit %zu %s pc=0x%x", v.index,
                      distillPassName(v.edit.pass), v.edit.origPc);
        if (v.edit.reg)
            out += strfmt(" reg=%s", regName(v.edit.reg));
        out += strfmt(" [%s]: %s\n", editRiskName(v.risk),
                      v.detail.c_str());
    }
    out += strfmt("%zu edit(s): %zu proven, %zu risky, %zu unknown\n",
                  verdicts.size(), proven(), risky(), unknown());
    return out;
}

std::string
SemanticResult::toJson() const
{
    std::string base = lint.toJson();
    // lint.toJson() ends with "]}\n"; splice the edits array in.
    while (!base.empty() &&
           (base.back() == '\n' || base.back() == '}')) {
        base.pop_back();
    }
    std::string out = base + ", \"edits\": [";
    for (size_t i = 0; i < semantic.verdicts.size(); ++i) {
        const EditVerdict &v = semantic.verdicts[i];
        if (i)
            out += ", ";
        out += strfmt("{\"index\": %zu, \"pass\": \"%s\", "
                      "\"pc\": \"0x%x\", \"reg\": %u, "
                      "\"risk\": \"%s\", \"detail\": \"%s\"}",
                      v.index, distillPassName(v.edit.pass),
                      v.edit.origPc, v.edit.reg,
                      editRiskName(v.risk),
                      jsonEscape(v.detail).c_str());
    }
    out += "]}\n";
    return out;
}

} // namespace mssp::analysis
