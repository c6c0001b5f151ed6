/**
 * @file
 * Distilled-code layout and relinking.
 *
 * Orders the surviving IR blocks, decides jump elisions, assigns
 * addresses at DistilledCodeBase, emits encoded words with relocated
 * branch/jump targets, and builds the task map (fork index -> original
 * PC) and entry map (original fork-site PC -> distilled PC).
 */

#include "analysis/liveness.hh"
#include "distill/distiller.hh"
#include "sim/logging.hh"

namespace mssp
{

namespace
{

/** Per-block layout decisions. */
struct BlockLayout
{
    uint32_t addr = 0;
    uint32_t size = 0;
    bool elideTermJump = false;   ///< fallthrough/jump to next block
};

/** Words needed to materialize a 32-bit constant (addi/lui[+ori]). */
uint32_t
loadImmSize(uint32_t value)
{
    auto v = static_cast<int32_t>(value);
    if (v >= -32768 && v <= 32767)
        return 1;
    if ((value & 0xffffu) == 0)
        return 1;
    return 2;
}

uint32_t
termSize(const IrBlock &blk, bool elide)
{
    switch (blk.term) {
      case TermKind::FallThrough:
        return elide ? 0 : 1;
      case TermKind::Jump:
        // Calls materialize the *original* return address into the
        // link register so that master register state stays
        // consistent with architected state (returns go through the
        // indirect-target address map).
        if (blk.isCall && blk.termInst.rd != 0)
            return loadImmSize(blk.termOrigPc + 1) + 1;
        return elide ? 0 : 1;
      case TermKind::CondBranch:
        return elide ? 1 : 2;   // branch [+ jump to fallthrough]
      case TermKind::IndirectJump:
      case TermKind::Halt:
        return 1;
      case TermKind::Fault:
        return 1;   // one illegal word
    }
    return 1;
}

} // anonymous namespace

DistilledProgram
layout(const DistillIr &ir, DistillReport report)
{
    DistilledProgram out;

    // Order: entry block first, then remaining alive blocks in
    // original address order (keeps natural fallthrough chains).
    std::vector<int> order;
    order.push_back(ir.entryBlock());
    for (const IrBlock &blk : ir.blocks()) {
        if (blk.alive && blk.id != ir.entryBlock())
            order.push_back(blk.id);
    }

    // Decide elisions and sizes, then assign addresses.
    std::vector<BlockLayout> bl(ir.blocks().size());
    for (size_t i = 0; i < order.size(); ++i) {
        const IrBlock &blk = ir.block(order[i]);
        BlockLayout &l = bl[static_cast<size_t>(blk.id)];
        int next = i + 1 < order.size() ? order[i + 1] : -1;
        switch (blk.term) {
          case TermKind::FallThrough:
            l.elideTermJump = blk.fallthrough == next;
            break;
          case TermKind::Jump:
            l.elideTermJump = !blk.isCall && blk.takenTarget == next &&
                              blk.termInst.rd == 0;
            break;
          case TermKind::CondBranch:
            l.elideTermJump = blk.fallthrough == next;
            break;
          default:
            break;
        }
        l.size = (blk.forkSite ? 1 : 0) + termSize(blk, l.elideTermJump);
        for (const IrInst &iinst : blk.body)
            l.size += iinst.sizeWords();
    }
    uint32_t addr = DistilledCodeBase;
    for (int id : order) {
        bl[static_cast<size_t>(id)].addr = addr;
        addr += bl[static_cast<size_t>(id)].size;
    }

    auto addr_of = [&](int id) {
        MSSP_ASSERT(id >= 0 && ir.block(id).alive);
        return bl[static_cast<size_t>(id)].addr;
    };

    // Emission.
    uint32_t emitted_words = 0;
    for (int id : order) {
        const IrBlock &blk = ir.block(id);
        const BlockLayout &l = bl[static_cast<size_t>(id)];
        uint32_t pc = l.addr;

        auto emit = [&](const Instruction &inst) {
            out.prog.setWord(pc++, encode(inst));
            ++emitted_words;
        };

        out.addrMap[blk.origStart] = l.addr;
        if (blk.forkSite) {
            emit(makeJ(Opcode::Fork, 0, blk.taskMapIndex));
            if (static_cast<size_t>(blk.taskMapIndex) >=
                out.taskMap.size()) {
                out.taskMap.resize(
                    static_cast<size_t>(blk.taskMapIndex) + 1);
                out.taskIntervals.resize(
                    static_cast<size_t>(blk.taskMapIndex) + 1, 1);
            }
            out.taskMap[static_cast<size_t>(blk.taskMapIndex)] =
                blk.origStart;
            out.taskIntervals[static_cast<size_t>(blk.taskMapIndex)] =
                blk.forkSiteInterval;
            out.entryMap[blk.origStart] = l.addr;
        }

        for (const IrInst &iinst : blk.body) {
            out.pcOrigin[pc] = iinst.origPc;
            if (iinst.kind == IrInst::Kind::Normal) {
                emit(iinst.inst);
                continue;
            }
            // LoadImm expansion, mirroring IrInst::sizeWords().
            auto v = static_cast<int32_t>(iinst.immValue);
            if (v >= -32768 && v <= 32767) {
                emit(makeI(Opcode::Addi, iinst.rd, reg::Zero, v));
            } else if ((iinst.immValue & 0xffffu) == 0) {
                emit(makeI(Opcode::Lui, iinst.rd, 0,
                           static_cast<int32_t>(iinst.immValue >> 16)));
            } else {
                emit(makeI(Opcode::Lui, iinst.rd, 0,
                           static_cast<int32_t>(iinst.immValue >> 16)));
                emit(makeI(Opcode::Ori, iinst.rd, iinst.rd,
                           static_cast<int32_t>(iinst.immValue &
                                                0xffffu)));
            }
        }

        switch (blk.term) {
          case TermKind::FallThrough:
            if (!l.elideTermJump) {
                int32_t off = static_cast<int32_t>(
                    addr_of(blk.fallthrough) - (pc + 1));
                emit(makeJ(Opcode::Jal, reg::Zero, off));
            }
            break;
          case TermKind::Jump: {
            if (blk.isCall && blk.termInst.rd != 0) {
                uint32_t ret_addr = blk.termOrigPc + 1;
                auto v = static_cast<int32_t>(ret_addr);
                if (v >= -32768 && v <= 32767) {
                    emit(makeI(Opcode::Addi, blk.termInst.rd,
                               reg::Zero, v));
                } else if ((ret_addr & 0xffffu) == 0) {
                    emit(makeI(Opcode::Lui, blk.termInst.rd, 0,
                               static_cast<int32_t>(ret_addr >> 16)));
                } else {
                    emit(makeI(Opcode::Lui, blk.termInst.rd, 0,
                               static_cast<int32_t>(ret_addr >> 16)));
                    emit(makeI(Opcode::Ori, blk.termInst.rd,
                               blk.termInst.rd,
                               static_cast<int32_t>(ret_addr &
                                                    0xffffu)));
                }
                int32_t off = static_cast<int32_t>(
                    addr_of(blk.takenTarget) - (pc + 1));
                emit(makeJ(Opcode::Jal, reg::Zero, off));
                break;
            }
            if (!l.elideTermJump) {
                int32_t off = static_cast<int32_t>(
                    addr_of(blk.takenTarget) - (pc + 1));
                emit(makeJ(Opcode::Jal, blk.termInst.rd, off));
            }
            break;
          }
          case TermKind::CondBranch: {
            Instruction br = blk.termInst;
            br.imm = static_cast<int32_t>(addr_of(blk.takenTarget) -
                                          (pc + 1));
            emit(br);
            if (!l.elideTermJump) {
                int32_t off = static_cast<int32_t>(
                    addr_of(blk.fallthrough) - (pc + 1));
                emit(makeJ(Opcode::Jal, reg::Zero, off));
            }
            break;
          }
          case TermKind::IndirectJump:
            emit(blk.termInst);
            break;
          case TermKind::Halt:
            emit(makeN(Opcode::Halt));
            break;
          case TermKind::Fault:
            out.prog.setWord(pc++, 0);   // illegal word
            ++emitted_words;
            break;
        }
        MSSP_ASSERT(pc == l.addr + l.size);
    }

    out.prog.setEntry(addr_of(ir.entryBlock()));
    report.distilledStaticInsts = emitted_words;
    out.report = report;
    return out;
}

void
runDistillPasses(DistillIr &ir, const ProfileData &profile,
                 const DistillerOptions &opts, const Program &orig,
                 DistillReport &report)
{
    if (opts.enableBranchPrune)
        passBranchPrune(ir, profile, opts, report);
    passUnreachableElim(ir, report);
    if (opts.enableConstFold)
        passConstFold(ir, report);
    if (opts.enableDce)
        passDce(ir, report);
    if (opts.enableSilentStoreElim)
        passSilentStoreElim(ir, profile, opts, report);
    if (opts.enableValueSpec) {
        passValueSpec(ir, profile, opts, orig, report);
        // Value speculation exposes new constants and dead code.
        if (opts.enableConstFold)
            passConstFold(ir, report);
        if (opts.enableDce)
            passDce(ir, report);
    }
}

void
finalizeDistilled(DistilledProgram &out, const Cfg &cfg)
{
    // Checkpoint map: the register live-in mask of every task, from
    // the *original* program's liveness (the task runs original
    // code). This is the distiller's static completeness claim; see
    // DistilledProgram::checkpointRegs and mssp-lint's checks.
    std::map<uint32_t, BlockLiveness> live = computeLiveness(cfg);
    for (uint32_t orig_pc : out.taskMap) {
        auto it = live.find(orig_pc);
        out.checkpointRegs[orig_pc] = it != live.end()
                                          ? it->second.liveIn
                                          : analysis::AllRegsMask;
    }

    // Stamp every edit with its original region (containing block
    // leader) and that block's live-out mask, the anchor the semantic
    // translation validator proves live-out consistency against.
    for (DistillEdit &e : out.report.edits) {
        auto blk_it = cfg.blocks().upper_bound(e.origPc);
        if (blk_it == cfg.blocks().begin())
            continue;
        --blk_it;
        if (e.origPc >= blk_it->second.endPc())
            continue;
        e.regionStart = blk_it->second.start;
        auto live_it = live.find(e.regionStart);
        e.liveOut = live_it != live.end() ? live_it->second.liveOut
                                          : analysis::AllRegsMask;
    }
}

DistilledProgram
distill(const Program &orig, const ProfileData &profile,
        const DistillerOptions &opts)
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

    DistilledProgram out = layout(ir, report);
    finalizeDistilled(out, cfg);
    return out;
}

} // namespace mssp
