#include "mssp/master.hh"

#include "sim/logging.hh"

namespace mssp
{

MasterStep
MasterCore::runSlice(unsigned max_steps, unsigned *executed)
{
    MSSP_ASSERT(running());
    SliceHook hook{*this};
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

bool
MasterCore::restart(uint32_t orig_pc)
{
    uint32_t dist_pc = dist_.distilledPcFor(orig_pc);
    if (dist_pc == UINT32_MAX)
        return false;
    pc_ = dist_pc;
    for (unsigned r = 0; r < NumRegs; ++r)
        regs_[r] = arch_.readReg(r);
    delta_.clear();
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
    if (inst.op != Opcode::Fork)
        return false;
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

std::shared_ptr<const StateDelta>
MasterCore::snapshotCheckpoint() const
{
    auto ckpt = std::make_shared<StateDelta>(delta_);
    uint32_t dirty = dirty_regs_;
    while (dirty) {
        unsigned r = static_cast<unsigned>(__builtin_ctz(dirty));
        dirty &= dirty - 1;
        ckpt->set(makeRegCell(r), regs_[r]);
    }
    return ckpt;
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
    std::vector<CellId> drop;
    for (const auto &[cell, value] : delta_) {
        if (arch_.readCell(cell) == value)
            drop.push_back(cell);
    }
    for (CellId cell : drop)
        delta_.erase(cell);
}

} // namespace mssp
