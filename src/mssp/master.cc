#include "mssp/master.hh"

#include "sim/logging.hh"

namespace mssp
{

MasterStep
MasterCore::runSlice(unsigned max_steps, unsigned *executed)
{
    MSSP_ASSERT(running());
    SliceHook<false> hook{*this};
    EngineResult er = runRefEngine(decode_, pc_, max_steps, *this, hook);
    pc_ = er.pc;
    total_insts_ += er.retired;
    insts_since_restart_ += er.retired;
    *executed = static_cast<unsigned>(er.retired);
    if (hook.translationFault || er.status == StepStatus::Illegal) {
        faulted_ = true;
        return MasterStep::Faulted;
    }
    if (er.status == StepStatus::Halted) {
        halted_ = true;
        return MasterStep::Halted;
    }
    return MasterStep::Executed;  // in front of a FORK, or budget out
}

// hot + aligned for the same layout-stability reason as
// executeDecodedOn (exec/executor.hh): the master's engine loop is
// inlined here.
__attribute__((hot, aligned(64))) uint64_t
MasterCore::runToEvent(uint64_t max_steps)
{
    MSSP_ASSERT(running());
    SliceHook<true> hook{*this};
    EngineResult er = runRefEngine(decode_, pc_, max_steps, *this, hook);
    // A faulting attempt has no effect on master state (illegal words
    // and failing ALU ops only read registers), so stopping on it
    // leaves the master in front of the fault, pc pinned there.
    pc_ = er.pc;
    total_insts_ += er.retired;
    insts_since_restart_ += er.retired;
    return er.retired;
}

bool
MasterCore::restart(uint32_t orig_pc)
{
    uint32_t dist_pc = dist_.distilledPcFor(orig_pc);
    if (dist_pc == UINT32_MAX)
        return false;
    pc_ = dist_pc;
    for (unsigned r = 0; r < NumRegs; ++r)
        regs_[r] = arch_.readReg(r);
    // Checkpoints of the squashed epoch may still view the journal.
    if (journal_.use_count() == 1)
        journal_->clear();
    else
        journal_ = std::make_shared<WriteJournal>();
    dirty_regs_ = 0;
    site_arrivals_.clear();
    forks_seen_since_spawn_ = 0;
    insts_since_restart_ = 0;
    running_ = true;
    halted_ = false;
    faulted_ = false;
    first_fork_pending_ = true;
    return true;
}

bool
MasterCore::nextForkWouldSpawn()
{
    if (!running())
        return false;
    const Instruction &inst = decode_.at(pc_);
    return inst.op == Opcode::Fork && forkWouldSpawn(inst);
}

bool
MasterCore::forkWouldSpawn(const Instruction &inst) const
{
    if (first_fork_pending_)
        return true;
    auto idx = static_cast<uint32_t>(inst.imm);
    if (idx >= dist_.taskMap.size())
        return false;   // corrupt fork: step() will fault
    uint32_t orig_pc = dist_.taskMap[idx];
    uint32_t required = requiredArrivals(idx);
    return siteArrivals(orig_pc) + 1 >= required;
}

uint32_t
MasterCore::requiredArrivals(uint32_t task_map_index) const
{
    uint32_t site_interval =
        task_map_index < dist_.taskIntervals.size()
            ? dist_.taskIntervals[task_map_index]
            : 1;
    if (site_interval == 0)
        site_interval = 1;
    return site_interval * fork_interval_;
}

MasterStep
MasterCore::stepFork(const Instruction &inst, ForkInfo *fork_out)
{
    auto idx = static_cast<uint32_t>(inst.imm);
    if (idx >= dist_.taskMap.size()) {
        // Corrupt distilled program; the master just faults.
        faulted_ = true;
        return MasterStep::Faulted;
    }
    uint32_t orig_pc = dist_.taskMap[idx];
    uint32_t arrivals = bumpSiteArrivals(orig_pc);
    ++forks_seen_since_spawn_;

    bool spawn = first_fork_pending_ ||
                 arrivals >= requiredArrivals(idx);
    ++total_insts_;
    ++insts_since_restart_;
    pc_ += 1;

    if (!spawn)
        return MasterStep::Executed;

    MSSP_ASSERT(fork_out != nullptr);
    fork_out->origPc = orig_pc;
    fork_out->endVisitsForPrev = arrivals;
    fork_out->checkpoint = snapshotCheckpoint();
    site_arrivals_.clear();
    forks_seen_since_spawn_ = 0;
    first_fork_pending_ = false;
    return MasterStep::WantsFork;
}

bool
MasterCore::translateJalr(StepResult &res)
{
    // Indirect jumps may target *original* code addresses (a return
    // address seeded from architected state after a restart, or
    // reloaded from a committed stack slot): translate through the
    // distiller's address map, as a dynamic binary translator would.
    auto it = dist_.addrMap.find(res.nextPc);
    if (it == dist_.addrMap.end())
        return false;
    res.nextPc = it->second;
    return true;
}

Checkpoint
MasterCore::snapshotCheckpoint()
{
    // Compact once dead versions outnumber live cells (plus a floor so
    // tiny write buffers do not compact every few forks): the log then
    // stays within about twice the write buffer, and a compaction's
    // O(cells) cost is paid once per O(cells) appended versions.
    if (journal_->versions() > 2 * journal_->cells() + MinCompactVersions)
        compactJournal(false);
    Checkpoint ckpt;
    ckpt.journal_ = journal_;
    ckpt.epoch_ = journal_->seal();
    ckpt.dirty_regs_ = dirty_regs_;
    ckpt.regs_ = regs_;
    ckpt.cells_ = deltaSize();
    return ckpt;
}

void
MasterCore::compactJournal(bool drop_arch_equal)
{
    auto fresh = std::make_shared<WriteJournal>();
    fresh->reserve(journal_->cells(), 2 * journal_->cells());
    journal_->forEachNewest([&](CellId cell, uint32_t value) {
        if (!drop_arch_equal || arch_.readCell(cell) != value)
            fresh->write(cell, value);
    });
    journal_ = std::move(fresh);
}

void
MasterCore::sweepDeltaAgainstArch(size_t max_cells)
{
    if (deltaSize() <= max_cells)
        return;
    // Registers: clearing the dirty bit is sound because regs_ keeps
    // the value, which equals architected state by construction.
    uint32_t dirty = dirty_regs_;
    while (dirty) {
        unsigned r = static_cast<unsigned>(__builtin_ctz(dirty));
        dirty &= dirty - 1;
        if (arch_.readReg(r) == regs_[r])
            dirty_regs_ &= ~(1u << r);
    }
    // Memory: this runs after every commit while the buffer is large,
    // so scan first and rebuild only when some cell actually drops.
    bool any_drop = false;
    journal_->forEachNewest([&](CellId cell, uint32_t value) {
        any_drop = any_drop || arch_.readCell(cell) == value;
    });
    if (any_drop)
        compactJournal(true);
}

} // namespace mssp
