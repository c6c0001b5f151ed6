/**
 * @file
 * Distiller transformation passes (see distiller.hh for the pipeline).
 */

#include <deque>
#include <optional>

#include "distill/distiller.hh"
#include "exec/executor.hh"
#include "sim/logging.hh"

namespace mssp
{

void
passBranchPrune(DistillIr &ir, const ProfileData &profile,
                const DistillerOptions &opts, DistillReport &report)
{
    for (IrBlock &blk : ir.blocks()) {
        if (!blk.alive || blk.term != TermKind::CondBranch)
            continue;
        const BranchProfile *bp = profile.branchAt(blk.termOrigPc);
        if (!bp || bp->total < opts.minBranchSamples)
            continue;
        double bias = bp->bias();
        uint64_t taken = bp->taken;
        uint64_t not_taken = bp->total - bp->taken;

        // A direction is prunable when it was never observed in
        // training, or when the θ knob admits its rareness (the
        // default θ = 1.0 reduces to never-observed-only, which
        // cannot remove loop exits that training exercised).
        bool prune_fall = not_taken == 0 ||
                          bias >= opts.biasThreshold;
        bool prune_taken = taken == 0 ||
                           bias <= 1.0 - opts.biasThreshold;

        if (prune_fall) {
            // Never emit a backward unconditional jump: hard-wiring a
            // loop-continue branch would trap the master in the loop
            // with no exit, guaranteeing divergence at loop end for a
            // one-instruction saving.
            const IrBlock &target = ir.block(blk.takenTarget);
            if (target.origStart <= blk.origStart)
                continue;
            blk.term = TermKind::Jump;
            blk.termInst = makeJ(Opcode::Jal, reg::Zero, 0);
            blk.fallthrough = -1;
            ++report.branchesToJump;
            report.edits.push_back({DistillEdit::Pass::BranchPrune,
                                    blk.termOrigPc, 0, true, 1});
        } else if (prune_taken) {
            // Hard-wire not-taken: branch disappears entirely.
            blk.term = TermKind::FallThrough;
            blk.termInst = Instruction{};
            blk.takenTarget = -1;
            ++report.branchesToFall;
            report.edits.push_back({DistillEdit::Pass::BranchPrune,
                                    blk.termOrigPc, 0, true, 0});
        }
    }
}

void
passUnreachableElim(DistillIr &ir, DistillReport &report)
{
    std::vector<bool> reachable(ir.blocks().size(), false);
    std::deque<int> work{ir.entryBlock()};
    reachable[static_cast<size_t>(ir.entryBlock())] = true;
    while (!work.empty()) {
        int id = work.front();
        work.pop_front();
        const IrBlock &blk = ir.block(id);
        // succIds() includes call-return edges, keeping callers'
        // continuations reachable.
        for (int s : blk.succIds()) {
            if (!reachable[static_cast<size_t>(s)]) {
                reachable[static_cast<size_t>(s)] = true;
                work.push_back(s);
            }
        }
    }
    for (IrBlock &blk : ir.blocks()) {
        if (blk.alive && !reachable[static_cast<size_t>(blk.id)]) {
            blk.alive = false;
            ++report.blocksRemoved;
            report.edits.push_back(
                {DistillEdit::Pass::UnreachableElim, blk.origStart,
                 0});
        }
    }
}

namespace
{

/** ExecContext view over a constant lattice for in-block folding. */
class ConstEvalContext final : public ExecContext
{
  public:
    std::optional<uint32_t> regs[NumRegs];

    bool
    known(unsigned r) const
    {
        return r == 0 || regs[r].has_value();
    }

    uint32_t readReg(unsigned r) override { return *regs[r]; }
    void writeReg(unsigned r, uint32_t v) override { regs[r] = v; }
    uint32_t readMem(uint32_t) override
    {
        panic("const folder must not read memory");
    }
    void writeMem(uint32_t, uint32_t) override
    {
        panic("const folder must not write memory");
    }
    uint32_t fetch(uint32_t) override
    {
        panic("const folder must not fetch");
    }
    void output(uint16_t, uint32_t) override {}
};

/** @return true when @p op is a pure ALU computation. */
bool
isPureAlu(Opcode op)
{
    uint32_t dummy;
    return evalAlu(op, 0, 1, dummy);
}

} // anonymous namespace

void
passConstFold(DistillIr &ir, DistillReport &report)
{
    for (IrBlock &blk : ir.blocks()) {
        if (!blk.alive)
            continue;
        ConstEvalContext lattice;

        for (IrInst &iinst : blk.body) {
            if (iinst.kind == IrInst::Kind::LoadImm) {
                lattice.regs[iinst.rd] = iinst.immValue;
                continue;
            }
            const Instruction &inst = iinst.inst;
            uint8_t dest = iinst.destReg();

            if (isPureAlu(inst.op) && dest != 0) {
                uint8_t srcs[2];
                unsigned n = sourceRegs(inst, srcs);
                bool all_known = true;
                for (unsigned i = 0; i < n; ++i)
                    all_known &= lattice.known(srcs[i]);
                if (all_known) {
                    // Evaluate with the shared semantics.
                    ConstEvalContext eval = lattice;
                    for (unsigned i = 0; i < n; ++i) {
                        if (srcs[i] && !eval.regs[srcs[i]])
                            eval.regs[srcs[i]] = 0;
                    }
                    if (!eval.regs[0])
                        eval.regs[0] = 0;   // r0 reads as zero
                    StepResult res = executeDecoded(0, inst, eval);
                    MSSP_ASSERT(res.status == StepStatus::Ok);
                    uint32_t value = *eval.regs[dest];
                    bool was_trivial =
                        iinst.kind == IrInst::Kind::Normal &&
                        ((inst.op == Opcode::Addi &&
                          inst.rs1 == 0) ||
                         inst.op == Opcode::Lui);
                    iinst = IrInst::loadImm(dest, value, iinst.origPc);
                    lattice.regs[dest] = value;
                    if (!was_trivial) {
                        ++report.constFolded;
                        report.edits.push_back(
                            {DistillEdit::Pass::ConstFold,
                             iinst.origPc, dest, true, value});
                    }
                    continue;
                }
            }

            // Not foldable: update the lattice conservatively.
            if (dest != 0)
                lattice.regs[dest] = std::nullopt;
        }

        // Fold a conditional branch whose operands are block-local
        // constants (this is semantics-preserving, unlike pruning).
        if (blk.term == TermKind::CondBranch &&
            lattice.known(blk.termInst.rs1) &&
            lattice.known(blk.termInst.rs2)) {
            ConstEvalContext eval = lattice;
            if (!eval.regs[0])
                eval.regs[0] = 0;
            StepResult res = executeDecoded(0, blk.termInst, eval);
            report.edits.push_back({DistillEdit::Pass::ConstFold,
                                    blk.termOrigPc, 0, true,
                                    res.branchTaken ? 1u : 0u});
            if (res.branchTaken) {
                blk.term = TermKind::Jump;
                blk.termInst = makeJ(Opcode::Jal, reg::Zero, 0);
                blk.fallthrough = -1;
            } else {
                blk.term = TermKind::FallThrough;
                blk.termInst = Instruction{};
                blk.takenTarget = -1;
            }
            ++report.constFolded;
        }
    }
}

void
passDce(DistillIr &ir, DistillReport &report)
{
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<BlockLiveness> live = computeIrLiveness(ir);
        for (IrBlock &blk : ir.blocks()) {
            if (!blk.alive)
                continue;
            RegMask after = live[static_cast<size_t>(blk.id)].liveOut;
            // Terminator consumes registers first (walking backward).
            if (blk.term == TermKind::CondBranch ||
                blk.term == TermKind::IndirectJump) {
                RegMask def, use;
                instDefUse(blk.termInst, def, use);
                after = (after & ~def) | use;
            } else if (blk.term == TermKind::Jump &&
                       blk.termInst.rd != 0) {
                after &= ~(1u << blk.termInst.rd);
            }

            // Backward in-block sweep; mark dead pure instructions.
            std::vector<bool> dead(blk.body.size(), false);
            for (size_t i = blk.body.size(); i-- > 0;) {
                const IrInst &iinst = blk.body[i];
                RegMask def, use;
                irInstDefUse(iinst, def, use);
                bool pure =
                    iinst.kind == IrInst::Kind::LoadImm ||
                    isPureAlu(iinst.inst.op) ||
                    iinst.inst.op == Opcode::Lw ||
                    iinst.inst.op == Opcode::Nop;
                uint8_t dest = iinst.destReg();
                if (pure && (dest == 0 ||
                             (after & (1u << dest)) == 0)) {
                    dead[i] = true;
                    report.edits.push_back(
                        {DistillEdit::Pass::Dce, iinst.origPc, dest});
                    continue;   // does not affect liveness
                }
                after = (after & ~def) | use;
            }

            size_t w = 0;
            for (size_t i = 0; i < blk.body.size(); ++i) {
                if (!dead[i])
                    blk.body[w++] = blk.body[i];
            }
            if (w != blk.body.size()) {
                report.dceRemoved += blk.body.size() - w;
                blk.body.resize(w);
                changed = true;
            }
        }
    }
}

void
passSilentStoreElim(DistillIr &ir, const ProfileData &profile,
                    const DistillerOptions &opts, DistillReport &report)
{
    for (IrBlock &blk : ir.blocks()) {
        if (!blk.alive)
            continue;
        size_t w = 0;
        for (size_t i = 0; i < blk.body.size(); ++i) {
            const IrInst &iinst = blk.body[i];
            bool drop = false;
            if (iinst.kind == IrInst::Kind::Normal &&
                iinst.inst.op == Opcode::Sw) {
                const StoreProfile *sp = profile.storeAt(iinst.origPc);
                if (sp && sp->count >= opts.minMemSamples &&
                    sp->silentRatio() >= opts.silentStoreThreshold) {
                    drop = true;
                    ++report.storesElided;
                    report.edits.push_back(
                        {DistillEdit::Pass::SilentStoreElim,
                         iinst.origPc, 0});
                }
            }
            if (!drop)
                blk.body[w++] = blk.body[i];
        }
        blk.body.resize(w);
    }
}

void
passValueSpec(DistillIr &ir, const ProfileData &profile,
              const DistillerOptions &opts, const Program &orig,
              DistillReport &report)
{
    for (IrBlock &blk : ir.blocks()) {
        if (!blk.alive)
            continue;
        for (IrInst &iinst : blk.body) {
            if (iinst.kind != IrInst::Kind::Normal ||
                iinst.inst.op != Opcode::Lw || iinst.inst.rd == 0) {
                continue;
            }
            const LoadProfile *lp = profile.loadAt(iinst.origPc);
            if (!lp || lp->count < opts.minMemSamples)
                continue;

            // Safe form: address-invariant load from a never-written
            // location — take the value from the image being
            // distilled (not the training run).
            if (lp->addrInvariance() >= opts.valueSpecThreshold &&
                !profile.wasWritten(lp->firstAddr)) {
                uint8_t rd = iinst.inst.rd;
                uint32_t value = orig.word(lp->firstAddr);
                iinst = IrInst::loadImm(rd, value, iinst.origPc);
                ++report.loadsValueSpeced;
                report.edits.push_back({DistillEdit::Pass::ValueSpec,
                                        iinst.origPc, rd, true,
                                        value});
                continue;
            }

            // Risky form: bake in the training-run value.
            if (opts.valueSpecFromProfile &&
                lp->invariance() >= opts.valueSpecThreshold) {
                uint8_t rd = iinst.inst.rd;
                iinst = IrInst::loadImm(rd, lp->firstValue,
                                        iinst.origPc);
                ++report.loadsValueSpeced;
                report.edits.push_back({DistillEdit::Pass::ValueSpec,
                                        iinst.origPc, rd, true,
                                        lp->firstValue});
            }
        }
    }
}

void
passMarkForkSites(DistillIr &ir, const std::vector<uint32_t> &sites,
                  const std::vector<uint32_t> &intervals,
                  DistillReport &report)
{
    int next_index = 0;
    auto mark = [&](int id, uint32_t interval) {
        IrBlock &blk = ir.block(id);
        if (!blk.alive || blk.forkSite)
            return;
        blk.forkSite = true;
        blk.forkSiteInterval = interval ? interval : 1;
        blk.taskMapIndex = next_index++;
    };

    // The entry is always a fork site: the first task a restarted (or
    // freshly started) master spawns must begin exactly at the
    // architected PC, and program start is architected PC zero-time.
    mark(ir.entryBlock(), 1);
    for (size_t i = 0; i < sites.size(); ++i) {
        int id = ir.blockOfOrigPc(sites[i]);
        if (id >= 0)
            mark(id, i < intervals.size() ? intervals[i] : 1);
    }
    report.forkSites = static_cast<size_t>(next_index);
}

const char *
distillPassName(DistillEdit::Pass pass)
{
    switch (pass) {
      case DistillEdit::Pass::BranchPrune: return "branch-prune";
      case DistillEdit::Pass::UnreachableElim: return "unreachable";
      case DistillEdit::Pass::ConstFold: return "const-fold";
      case DistillEdit::Pass::Dce: return "dce";
      case DistillEdit::Pass::SilentStoreElim: return "silent-store";
      case DistillEdit::Pass::ValueSpec: return "value-spec";
    }
    return "?";
}

bool
distillPassFromName(const std::string &name, DistillEdit::Pass &pass)
{
    static constexpr DistillEdit::Pass kAll[] = {
        DistillEdit::Pass::BranchPrune,
        DistillEdit::Pass::UnreachableElim,
        DistillEdit::Pass::ConstFold,
        DistillEdit::Pass::Dce,
        DistillEdit::Pass::SilentStoreElim,
        DistillEdit::Pass::ValueSpec,
    };
    for (DistillEdit::Pass p : kAll) {
        if (name == distillPassName(p)) {
            pass = p;
            return true;
        }
    }
    return false;
}

const char *
loadSpecClassName(LoadSpecClass cls)
{
    switch (cls) {
      case LoadSpecClass::ProvablyInvariant:
        return "provably-invariant";
      case LoadSpecClass::RegionInvariant:
        return "region-invariant";
      case LoadSpecClass::Risky:
        return "risky";
    }
    return "?";
}

const char *
valueProofName(ValueProof proof)
{
    switch (proof) {
      case ValueProof::Proven: return "proven";
      case ValueProof::Likely: return "likely";
    }
    return "?";
}

bool
valueProofFromName(const std::string &name, ValueProof &proof)
{
    static constexpr ValueProof kAll[] = {
        ValueProof::Proven,
        ValueProof::Likely,
    };
    for (ValueProof p : kAll) {
        if (name == valueProofName(p)) {
            proof = p;
            return true;
        }
    }
    return false;
}

bool
distillPassIsApproximate(DistillEdit::Pass pass)
{
    switch (pass) {
      case DistillEdit::Pass::BranchPrune:
      case DistillEdit::Pass::SilentStoreElim:
      case DistillEdit::Pass::ValueSpec:
        return true;
      case DistillEdit::Pass::UnreachableElim:
      case DistillEdit::Pass::ConstFold:
      case DistillEdit::Pass::Dce:
        return false;
    }
    return false;
}

std::string
DistillReport::toString() const
{
    return strfmt(
        "static insts: %zu -> %zu (%.1f%%)\n"
        "branches pruned: %llu to-jump, %llu to-fallthrough\n"
        "blocks removed: %llu\n"
        "const-folded: %llu, dce-removed: %llu\n"
        "stores elided: %llu, loads value-speculated: %llu\n"
        "fork sites: %zu\n",
        origStaticInsts, distilledStaticInsts,
        origStaticInsts
            ? 100.0 * static_cast<double>(distilledStaticInsts) /
                  static_cast<double>(origStaticInsts)
            : 0.0,
        static_cast<unsigned long long>(branchesToJump),
        static_cast<unsigned long long>(branchesToFall),
        static_cast<unsigned long long>(blocksRemoved),
        static_cast<unsigned long long>(constFolded),
        static_cast<unsigned long long>(dceRemoved),
        static_cast<unsigned long long>(storesElided),
        static_cast<unsigned long long>(loadsValueSpeced),
        forkSites);
}

} // namespace mssp
