#include "analysis/verifier.hh"

#include <algorithm>
#include <bit>
#include <set>

#include "analysis/absint.hh"
#include "analysis/flow_graph.hh"
#include "analysis/liveness.hh"
#include "cfg/cfg.hh"
#include "exec/executor.hh"
#include "sim/logging.hh"
#include "util/string_utils.hh"

namespace mssp::analysis
{

const char *
severityName(Severity sev)
{
    return sev == Severity::Error ? "error" : "warning";
}

const char *
lintCheckName(LintCheck check)
{
    switch (check) {
      case LintCheck::DecodeFault: return "decode-fault";
      case LintCheck::BranchTarget: return "branch-target";
      case LintCheck::ForkIndex: return "fork-index";
      case LintCheck::ForkTarget: return "fork-target";
      case LintCheck::RestartMap: return "restart-map";
      case LintCheck::AddrMap: return "addr-map";
      case LintCheck::InescapableLoop: return "inescapable-loop";
      case LintCheck::CheckpointMissing: return "checkpoint-missing";
      case LintCheck::CheckpointUnderApprox:
        return "checkpoint-under-approx";
      case LintCheck::CheckpointOverApprox:
        return "checkpoint-over-approx";
      case LintCheck::UseBeforeDef: return "use-before-def";
      case LintCheck::EditTarget: return "edit-target";
      case LintCheck::EditOutsideProgram:
        return "edit-outside-program";
      case LintCheck::SemanticBranch: return "semantic-branch";
      case LintCheck::SemanticConst: return "semantic-const";
      case LintCheck::SemanticLoad: return "semantic-load";
      case LintCheck::SemanticStore: return "semantic-store";
      case LintCheck::SemanticLiveOut: return "semantic-live-out";
      case LintCheck::SemanticUnreachable:
        return "semantic-unreachable";
      case LintCheck::EditMetadata: return "edit-metadata";
      case LintCheck::SpecEditMismatch: return "specedit-mismatch";
      case LintCheck::SpecEditCoverage: return "specedit-coverage";
    }
    return "?";
}

Cfg
distilledCfg(const DistilledProgram &dist)
{
    std::vector<uint32_t> roots;
    for (const auto &[o, dpc] : dist.entryMap)
        roots.push_back(dpc);
    for (const auto &[o, dpc] : dist.addrMap)
        roots.push_back(dpc);
    return Cfg::build(dist.prog, dist.prog.entry(), roots);
}

namespace
{

/** "ra, sp, a0" for a register mask. */
std::string
maskNames(RegMask mask)
{
    std::string out;
    for (unsigned r = 1; r < NumRegs; ++r) {
        if (mask & (1u << r)) {
            if (!out.empty())
                out += ", ";
            out += regName(r);
        }
    }
    return out;
}

/** Shared state of one verification run. */
struct Verify
{
    const Program &orig;
    const DistilledProgram &dist;
    LintReport rep;

    Cfg origCfg;
    Cfg distCfg;
    std::map<uint32_t, BlockLiveness> origLive;
    std::vector<uint32_t> starts;   ///< distilled block leaders
    FlowGraph graph;                ///< over distCfg, starts[i] <-> i

    Verify(const Program &orig, const DistilledProgram &dist)
        : orig(orig), dist(dist),
          origCfg(Cfg::build(orig, orig.entry())),
          distCfg(distilledCfg(dist))
    {
        origLive = computeLiveness(origCfg);
        graph = graphOfCfg(distCfg, starts);
    }

    void
    add(Severity sev, LintCheck check, uint32_t pc, uint32_t block,
        std::string message)
    {
        Finding f;
        f.severity = sev;
        f.check = check;
        f.pc = pc;
        f.block = block;
        f.message = std::move(message);
        rep.findings.push_back(std::move(f));
    }

    void
    addEdit(Severity sev, LintCheck check, const DistillEdit &e,
            std::string message)
    {
        Finding f;
        f.severity = sev;
        f.check = check;
        f.pc = e.origPc;
        f.hasPass = true;
        f.pass = e.pass;
        f.message = std::move(message);
        rep.findings.push_back(std::move(f));
    }

    /** Graph node of distilled block leader @p pc, or -1. */
    int
    nodeOf(uint32_t pc) const
    {
        auto it = std::lower_bound(starts.begin(), starts.end(), pc);
        if (it == starts.end() || *it != pc)
            return -1;
        return static_cast<int>(it - starts.begin());
    }

    void checkControlFlow();
    void checkForksAndMaps();
    void checkInescapableLoops();
    void checkCheckpoints();
    void checkUseBeforeDef();
    void checkEdits();
    void checkSpecEdits();
};

// Check 1a: every reachable word decodes and every control transfer
// lands on a block of the image.
void
Verify::checkControlFlow()
{
    for (const auto &[start, bb] : distCfg.blocks()) {
        if (bb.term == TermKind::Fault) {
            uint32_t fault_pc =
                bb.insts.empty()
                    ? bb.endPc()
                    : bb.pcOf(bb.insts.size() - 1);
            bool off_image = !dist.prog.hasWord(fault_pc);
            add(Severity::Error, LintCheck::DecodeFault, fault_pc,
                start,
                off_image
                    ? strfmt("control flow reaches 0x%x, which is "
                             "outside the distilled image",
                             fault_pc)
                    : strfmt("reachable word 0x%x at 0x%x does not "
                             "decode",
                             dist.prog.word(fault_pc), fault_pc));
        }
        for (uint32_t s : bb.succs) {
            if (!distCfg.hasBlock(s)) {
                add(Severity::Error, LintCheck::BranchTarget,
                    bb.insts.empty() ? start
                                     : bb.pcOf(bb.insts.size() - 1),
                    start,
                    strfmt("control transfer to 0x%x, which is not a "
                           "block of the distilled image",
                           s));
            }
        }
    }
}

// Check 1b: FORK instructions, the task map and the restart/addr maps
// agree with each other and with the original program.
void
Verify::checkForksAndMaps()
{
    // Every FORK in the image names a valid task whose restart-map
    // entry points back at it.
    for (const auto &[start, bb] : distCfg.blocks()) {
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            if (inst.op != Opcode::Fork)
                continue;
            uint32_t pc = bb.pcOf(i);
            auto idx = static_cast<uint32_t>(inst.imm);
            if (idx >= dist.taskMap.size()) {
                add(Severity::Error, LintCheck::ForkIndex, pc, start,
                    strfmt("fork index %u exceeds the task map "
                           "(%zu entries)",
                           idx, dist.taskMap.size()));
                continue;
            }
            uint32_t orig_pc = dist.taskMap[idx];
            if (!origCfg.hasBlock(orig_pc)) {
                add(Severity::Error, LintCheck::ForkTarget, pc, start,
                    strfmt("task %u starts at 0x%x, which is not an "
                           "original-program block leader",
                           idx, orig_pc));
                continue;
            }
            auto it = dist.entryMap.find(orig_pc);
            if (it == dist.entryMap.end() || it->second != pc) {
                add(Severity::Error, LintCheck::RestartMap, pc, start,
                    strfmt("restart map does not point at the FORK "
                           "for task %u (original 0x%x)",
                           idx, orig_pc));
            }
        }
    }

    // Every restart-map entry lands on a FORK of the right task.
    for (const auto &[orig_pc, dpc] : dist.entryMap) {
        Instruction inst = decode(dist.prog.word(dpc));
        bool ok = dist.prog.hasWord(dpc) && inst.op == Opcode::Fork &&
                  static_cast<uint32_t>(inst.imm) <
                      dist.taskMap.size() &&
                  dist.taskMap[static_cast<uint32_t>(inst.imm)] ==
                      orig_pc;
        if (!ok) {
            add(Severity::Error, LintCheck::RestartMap, dpc,
                UINT32_MAX,
                strfmt("restart map sends original 0x%x to 0x%x, "
                       "which is not that task's FORK",
                       orig_pc, dpc));
        }
    }

    for (const auto &[orig_pc, dpc] : dist.addrMap) {
        if (!origCfg.hasBlock(orig_pc)) {
            add(Severity::Warning, LintCheck::AddrMap, dpc,
                UINT32_MAX,
                strfmt("addr-map key 0x%x is not an original-program "
                       "block leader",
                       orig_pc));
        }
        if (!dist.prog.hasWord(dpc) || !distCfg.hasBlock(dpc)) {
            add(Severity::Error, LintCheck::AddrMap, dpc, UINT32_MAX,
                strfmt("addr map sends original 0x%x to 0x%x, which "
                       "is not a block of the distilled image",
                       orig_pc, dpc));
        }
    }
}

// Check 1c: a cyclic region with no exit traps the master forever
// (the branch-prune confinement hazard). A FORK inside still spawns
// tasks, so the machine limps along: warning instead of error.
void
Verify::checkInescapableLoops()
{
    SccResult scc = computeSccs(graph);
    for (int c = 0; c < scc.count; ++c) {
        if (!scc.cyclic[static_cast<size_t>(c)])
            continue;
        bool escapes = false;
        bool has_fork = false;
        uint32_t first_pc = UINT32_MAX;
        for (int n : scc.members[static_cast<size_t>(c)]) {
            auto i = static_cast<size_t>(n);
            const BasicBlock &bb = distCfg.blockAt(starts[i]);
            first_pc = std::min(first_pc, bb.start);
            // Halts leave the loop; jalr targets are unknown, assume
            // they may leave; faults are reported by checkControlFlow.
            if (bb.term == TermKind::Halt ||
                bb.term == TermKind::IndirectJump ||
                bb.term == TermKind::Fault) {
                escapes = true;
            }
            for (int s : graph.succs[i]) {
                if (scc.comp[static_cast<size_t>(s)] != c)
                    escapes = true;
            }
            for (const Instruction &inst : bb.insts) {
                if (inst.op == Opcode::Fork)
                    has_fork = true;
            }
        }
        if (escapes)
            continue;
        add(has_fork ? Severity::Warning : Severity::Error,
            LintCheck::InescapableLoop, first_pc, first_pc,
            strfmt("cyclic region at 0x%x has no exit%s", first_pc,
                   has_fork ? " (but forks tasks)"
                            : " and spawns no tasks"));
    }
}

// Check 2: the claimed checkpoint mask of every fork site covers the
// live-in set of the original task starting there.
void
Verify::checkCheckpoints()
{
    for (size_t i = 0; i < dist.taskMap.size(); ++i) {
        uint32_t orig_pc = dist.taskMap[i];
        auto live_it = origLive.find(orig_pc);
        if (live_it == origLive.end())
            continue;   // flagged by checkForksAndMaps already
        RegMask required = live_it->second.liveIn;

        auto ckpt_it = dist.checkpointRegs.find(orig_pc);
        if (ckpt_it == dist.checkpointRegs.end()) {
            add(Severity::Error, LintCheck::CheckpointMissing,
                orig_pc, orig_pc,
                strfmt("fork site 0x%x (task %zu) has no checkpoint "
                       "mask",
                       orig_pc, i));
            continue;
        }
        RegMask claim = ckpt_it->second & ~1u;

        RegMask missing = required & ~claim;
        if (missing) {
            add(Severity::Error, LintCheck::CheckpointUnderApprox,
                orig_pc, orig_pc,
                strfmt("task %zu at 0x%x reads {%s} before writing "
                       "them, but the checkpoint mask omits them",
                       i, orig_pc, maskNames(missing).c_str()));
        }
        RegMask waste = claim & ~required;
        if (waste) {
            add(Severity::Warning, LintCheck::CheckpointOverApprox,
                orig_pc, orig_pc,
                strfmt("task %zu at 0x%x checkpoints %d never-read "
                       "register(s) {%s}: wasted bandwidth",
                       i, orig_pc, std::popcount(waste),
                       maskNames(waste).c_str()));
        }
    }
}

// Check 4: forward "unchecked value" analysis. At each restart point
// the master seeds every register from architected state, but only
// the checkpointed ones are part of the distiller's prediction
// contract — a read of any other register before a write makes the
// master's output depend on unchecked state.
void
Verify::checkUseBeforeDef()
{
    MaskDomain dom(graph.size());

    // Transfer: a write cleans the register. gen stays empty.
    for (size_t i = 0; i < starts.size(); ++i) {
        const BasicBlock &bb = distCfg.blockAt(starts[i]);
        for (const Instruction &inst : bb.insts) {
            RegMask def, use;
            instDefUse(inst, def, use);
            dom.kill[i] |= def;
        }
    }

    // Boundary: at each restart point, everything outside the
    // claimed checkpoint mask is unchecked. A missing mask is
    // already an error; suppress the cascade here.
    for (const auto &[orig_pc, dpc] : dist.entryMap) {
        int n = nodeOf(dpc);
        if (n < 0)
            continue;
        auto it = dist.checkpointRegs.find(orig_pc);
        RegMask claim =
            it != dist.checkpointRegs.end() ? it->second : AllRegsMask;
        dom.boundaries[static_cast<size_t>(n)] |=
            AllRegsMask & ~claim;
    }

    auto solved = solveDataflow(graph, dom, Direction::Forward);

    std::set<std::pair<uint32_t, unsigned>> seen;
    for (size_t i = 0; i < starts.size(); ++i) {
        RegMask unchecked = solved.in[i];
        if (!unchecked)
            continue;
        const BasicBlock &bb = distCfg.blockAt(starts[i]);
        for (size_t k = 0; k < bb.insts.size() && unchecked; ++k) {
            const Instruction &inst = bb.insts[k];
            uint8_t srcs[2];
            unsigned n = sourceRegs(inst, srcs);
            for (unsigned s = 0; s < n; ++s) {
                unsigned r = srcs[s];
                if (!r || !(unchecked & (1u << r)))
                    continue;
                if (!seen.insert({bb.pcOf(k), r}).second)
                    continue;
                add(Severity::Warning, LintCheck::UseBeforeDef,
                    bb.pcOf(k), bb.start,
                    strfmt("register %s is read at 0x%x before any "
                           "write on a path from a restart, but is "
                           "not in that task's checkpoint set",
                           regName(r), bb.pcOf(k)));
            }
            RegMask def, use;
            instDefUse(inst, def, use);
            unchecked &= ~def;
        }
    }
}

// Check 3: replay the edit log against the original binary.
// Approximate passes may only touch the instruction kind they claim;
// semantics-preserving passes may only rewrite pure register-writing
// instructions (so no architected live-out can change).
void
Verify::checkEdits()
{
    for (const DistillEdit &e : dist.report.edits) {
        const char *pname = distillPassName(e.pass);

        const BasicBlock *bb = containingBlock(origCfg, e.origPc);
        if (!bb) {
            addEdit(Severity::Error, LintCheck::EditOutsideProgram, e,
                    strfmt("%s edit at 0x%x lies outside the "
                           "reachable original program",
                           pname, e.origPc));
            continue;
        }
        Instruction inst = decode(orig.word(e.origPc));

        auto bad = [&](const char *want) {
            addEdit(Severity::Error, LintCheck::EditTarget, e,
                    strfmt("%s edit at 0x%x targets %s, not %s",
                           pname, e.origPc, opcodeName(inst.op),
                           want));
        };

        switch (e.pass) {
          case DistillEdit::Pass::BranchPrune:
            if (!isCondBranch(inst.op))
                bad("a conditional branch");
            break;
          case DistillEdit::Pass::UnreachableElim:
            if (!origCfg.hasBlock(e.origPc)) {
                addEdit(Severity::Error, LintCheck::EditTarget, e,
                        strfmt("unreachable edit at 0x%x is not a "
                               "block leader",
                               e.origPc));
            }
            break;
          case DistillEdit::Pass::ConstFold:
            if (e.reg == 0) {
                // Branch fold.
                if (!isCondBranch(inst.op))
                    bad("a conditional branch");
            } else if (!writesReg(inst) || inst.rd != e.reg ||
                       inst.op == Opcode::Jal ||
                       inst.op == Opcode::Jalr) {
                bad(strfmt("a pure write of %s",
                           regName(e.reg))
                        .c_str());
            }
            break;
          case DistillEdit::Pass::Dce:
            // A removed instruction must be effect-free: a pure ALU
            // op, a load or a nop (stores, OUTs and control are
            // never dead).
            {
                uint32_t dummy;
                bool pure = evalAlu(inst.op, 0, 1, dummy) ||
                            inst.op == Opcode::Lw ||
                            inst.op == Opcode::Lui ||
                            inst.op == Opcode::Nop;
                if (!pure || (e.reg != 0 && (!writesReg(inst) ||
                                             inst.rd != e.reg))) {
                    bad("an effect-free instruction");
                }
            }
            break;
          case DistillEdit::Pass::SilentStoreElim:
            if (inst.op != Opcode::Sw)
                bad("a store");
            break;
          case DistillEdit::Pass::ValueSpec:
            if (inst.op != Opcode::Lw || inst.rd != e.reg)
                bad(strfmt("a load into %s", regName(e.reg)).c_str());
            break;
        }
    }
}

// Speculated-edit records (.mdo `specedit` lines): each must name a
// real original load, its baked constant must still be in the image
// word(s) it points at (a tampered value is exactly what this
// catches), it must have ValueSpec provenance in the edit log, and
// its policing sites must be restart points of the image.
// De-speculated loads must not also be baked.
void
Verify::checkSpecEdits()
{
    for (const SpecEdit &e : dist.specEdits) {
        const BasicBlock *bb = containingBlock(origCfg, e.origPc);
        Instruction oinst =
            bb ? decode(orig.word(e.origPc)) : Instruction{};
        if (!bb || oinst.op != Opcode::Lw || oinst.rd != e.reg) {
            add(Severity::Error, LintCheck::SpecEditMismatch,
                e.origPc, bb ? bb->start : UINT32_MAX,
                strfmt("specedit at 0x%x does not name an original "
                       "load into %s",
                       e.origPc, regName(e.reg)));
            continue;
        }

        // Decode the baked constant out of the image and compare.
        bool ok = dist.prog.hasWord(e.distPc);
        uint32_t baked = 0;
        if (ok) {
            Instruction i1 = decode(dist.prog.word(e.distPc));
            if (i1.op == Opcode::Addi && i1.rs1 == 0 &&
                i1.rd == e.reg) {
                baked = static_cast<uint32_t>(i1.imm);
            } else if (i1.op == Opcode::Lui && i1.rd == e.reg) {
                baked = static_cast<uint32_t>(i1.imm) << 16;
                if (dist.prog.hasWord(e.distPc + 1)) {
                    Instruction i2 =
                        decode(dist.prog.word(e.distPc + 1));
                    if (i2.op == Opcode::Ori && i2.rd == e.reg &&
                        i2.rs1 == e.reg) {
                        baked |= static_cast<uint32_t>(i2.imm) &
                                 0xffffu;
                    }
                }
            } else {
                ok = false;
            }
        }
        if (!ok || baked != e.value) {
            add(Severity::Error, LintCheck::SpecEditMismatch,
                e.distPc, UINT32_MAX,
                ok ? strfmt("specedit for load 0x%x: image "
                            "materializes 0x%x at 0x%x, record says "
                            "0x%x (baked value tampered?)",
                            e.origPc, baked, e.distPc, e.value)
                   : strfmt("specedit for load 0x%x points at 0x%x, "
                            "which does not materialize a constant "
                            "into %s",
                            e.origPc, e.distPc, regName(e.reg)));
        }

        // Provenance: a matching ValueSpec edit must be in the log.
        bool logged = false;
        for (const DistillEdit &le : dist.report.edits) {
            if (le.pass == DistillEdit::Pass::ValueSpec &&
                le.origPc == e.origPc && le.reg == e.reg &&
                le.hasValue && le.value == e.value) {
                logged = true;
                break;
            }
        }
        if (!logged) {
            add(Severity::Error, LintCheck::SpecEditCoverage,
                e.origPc, bb->start,
                strfmt("specedit at 0x%x has no matching value-spec "
                       "entry in the edit log",
                       e.origPc));
        }

        for (uint32_t site : e.policedBy) {
            if (!dist.entryMap.count(site)) {
                add(Severity::Error, LintCheck::SpecEditMismatch,
                    e.origPc, bb->start,
                    strfmt("specedit at 0x%x is policed by 0x%x, "
                           "which is not a restart point of the "
                           "image",
                           e.origPc, site));
            }
        }
    }

    for (uint32_t pc : dist.specDropped) {
        for (const SpecEdit &e : dist.specEdits) {
            if (e.origPc == pc) {
                add(Severity::Error, LintCheck::SpecEditCoverage,
                    pc, UINT32_MAX,
                    strfmt("load 0x%x is both de-speculated "
                           "(specdrop) and baked (specedit)",
                           pc));
            }
        }
    }
}

} // anonymous namespace

LintReport
verifyDistilled(const Program &orig, const DistilledProgram &dist)
{
    Verify v(orig, dist);
    v.checkControlFlow();
    v.checkForksAndMaps();
    v.checkInescapableLoops();
    v.checkCheckpoints();
    v.checkUseBeforeDef();
    v.checkEdits();
    v.checkSpecEdits();
    return std::move(v.rep);
}

size_t
LintReport::errors() const
{
    size_t n = 0;
    for (const Finding &f : findings)
        n += f.severity == Severity::Error;
    return n;
}

size_t
LintReport::warnings() const
{
    return findings.size() - errors();
}

std::string
LintReport::toText() const
{
    std::string out;
    for (const Finding &f : findings) {
        out += strfmt("%s[%s]", severityName(f.severity),
                      lintCheckName(f.check));
        if (f.pc != UINT32_MAX)
            out += strfmt(" pc=0x%x", f.pc);
        if (f.block != UINT32_MAX && f.block != f.pc)
            out += strfmt(" block=0x%x", f.block);
        if (f.hasPass)
            out += strfmt(" pass=%s", distillPassName(f.pass));
        out += ": " + f.message + "\n";
    }
    out += strfmt("%zu error(s), %zu warning(s)\n", errors(),
                  warnings());
    return out;
}

std::string
LintReport::toJson() const
{
    // Every deterministic JSON document in the repo names its schema
    // (docs/SCHEMAS.md), including this object when embedded in the
    // specsafe/specplan/semantic reports.
    std::string out = strfmt("{\"schema\": \"mssp-lint-v1\", "
                             "\"errors\": %zu, \"warnings\": %zu, "
                             "\"findings\": [",
                             errors(), warnings());
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            out += ", ";
        out += strfmt("{\"severity\": \"%s\", \"check\": \"%s\", ",
                      severityName(f.severity),
                      lintCheckName(f.check));
        if (f.pc != UINT32_MAX)
            out += strfmt("\"pc\": \"0x%x\", ", f.pc);
        else
            out += "\"pc\": null, ";
        if (f.block != UINT32_MAX)
            out += strfmt("\"block\": \"0x%x\", ", f.block);
        else
            out += "\"block\": null, ";
        if (f.hasPass)
            out += strfmt("\"pass\": \"%s\", ",
                          distillPassName(f.pass));
        else
            out += "\"pass\": null, ";
        out += strfmt("\"message\": \"%s\"}",
                      jsonEscape(f.message).c_str());
    }
    out += "]}\n";
    return out;
}

} // namespace mssp::analysis
