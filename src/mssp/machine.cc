#include "mssp/machine.hh"

#include <algorithm>

#include "exec/executor.hh"
#include "fault/fault.hh"
#include "sim/logging.hh"

namespace mssp
{

const char *
toString(StopReason r)
{
    switch (r) {
      case StopReason::Halted:            return "halted";
      case StopReason::Faulted:           return "faulted";
      case StopReason::TimedOut:          return "timed-out";
      case StopReason::WatchdogExhausted: return "watchdog-exhausted";
    }
    return "?";
}

const char *
toString(EpochFallback r)
{
    switch (r) {
      case EpochFallback::Ipc:         return "ipc";
      case EpochFallback::FaultDraws:  return "fault-draws";
      case EpochFallback::Undelivered: return "undelivered";
      case EpochFallback::OpenHead:    return "open-head";
    }
    return "?";
}

namespace
{

/** True for the per-cycle plans slaves draw (the rest: the master). */
bool
slaveFault(FaultType t)
{
    return t == FaultType::SlaveKill || t == FaultType::SlaveStall;
}

/** Non-speculative execution context: directly on architected state. */
class SeqArchContext final : public ExecContext
{
  public:
    SeqArchContext(ArchState &arch, MmioDevice &device,
                   OutputStream &outputs)
        : arch_(arch), device_(device), outputs_(outputs)
    {}

    uint32_t readReg(unsigned r) override { return arch_.readReg(r); }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        arch_.writeReg(r, v);
    }
    uint32_t
    readMem(uint32_t a) override
    {
        if (isMmio(a))
            return device_.read(a);
        return arch_.readMem(a);
    }
    void
    writeMem(uint32_t a, uint32_t v) override
    {
        if (isMmio(a)) {
            device_.write(a, v, outputs_);
            return;
        }
        arch_.writeMem(a, v);
    }
    uint32_t fetch(uint32_t pc) override { return arch_.readMem(pc); }
    void
    output(uint16_t port, uint32_t value) override
    {
        outputs_.push_back({port, value});
    }

  private:
    ArchState &arch_;
    MmioDevice &device_;
    OutputStream &outputs_;
};

} // anonymous namespace

MsspMachine::MsspMachine(const Program &orig,
                         const DistilledProgram &dist,
                         const MsspConfig &cfg)
    : cfg_(cfg), orig_(orig), dist_(dist), arch_(),
      master_(dist_, arch_), fork_site_pcs_(dist_.taskMap)
{
    arch_.loadProgram(orig_);
    master_.setForkInterval(cfg_.forkInterval);
    slaves_.reserve(cfg_.numSlaves);
    for (unsigned i = 0; i < cfg_.numSlaves; ++i) {
        slaves_.emplace_back(static_cast<int>(i), arch_, cfg_,
                             fork_site_pcs_, orig_decode_);
    }
    mode_ = Mode::Restarting;
    restart_at_ = 0;
}

void
MsspMachine::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    if (injector_ && dist_code_addrs_.empty()) {
        // ImagePatch target list: words of the master's private
        // I-space (distilled code), never the original image.
        for (const auto &[addr, word] : dist_.prog.image()) {
            (void)word;
            if (addr >= DistilledCodeBase)
                dist_code_addrs_.push_back(addr);
        }
    }
}

void
MsspMachine::engageMaster()
{
    last_commit_cycle_ = now_;
    if (seq_insts_remaining_ == 0 && force_seq_insts_ == 0 &&
        master_.restart(arch_.pc())) {
        mode_ = Mode::Spec;
        master_budget_ = 0.0;
        master_insts_at_last_fork_ = 0;
    } else {
        mode_ = Mode::Seq;
        seq_budget_ = 0.0;
    }
}

void
MsspMachine::noteEngageFailure()
{
    ++engage_failures_;
    if (engage_failures_ > cfg_.maxEngageFailures) {
        // Speculation keeps failing here: back off to sequential
        // execution for a while (exponential, decayed by commits).
        seq_backoff_ = std::min(
            std::max(seq_backoff_ * 2, cfg_.seqBackoffInsts),
            cfg_.maxSeqBackoffInsts);
        seq_insts_remaining_ = seq_backoff_;
        engage_failures_ = 0;
        ++ctrs_.seqBackoffEvents;
    }
}

void
MsspMachine::noteMasterDead()
{
    ++ctrs_.masterDeadRestarts;
    noteEngageFailure();
    mode_ = Mode::Restarting;
    restart_at_ = now_ + cfg_.squashPenalty;
    last_commit_cycle_ = now_;
}

void
MsspMachine::squash(TaskOutcome reason)
{
    ++ctrs_.squashEvents;
    switch (reason) {
      case TaskOutcome::SquashedLiveIn:
        ++ctrs_.tasksSquashedLiveIn;
        break;
      case TaskOutcome::SquashedWrongPc:
        ++ctrs_.tasksSquashedWrongPc;
        break;
      case TaskOutcome::SquashedOverrun:
        ++ctrs_.tasksSquashedOverrun;
        break;
      case TaskOutcome::SquashedSpurious:
        ++ctrs_.tasksSquashedSpurious;
        break;
      default:
        break;
    }
    // Attribute the squash to the static fork site whose task headed
    // the window — the table the adaptation loop (eval/adapt.hh)
    // feeds back into re-distillation.
    if (!window_.empty()) {
        ForkSiteStat &s = site_stats_[window_.front()->startPc];
        switch (reason) {
          case TaskOutcome::SquashedLiveIn:
            ++s.squashedLiveIn;
            break;
          case TaskOutcome::SquashedWrongPc:
            ++s.squashedWrongPc;
            break;
          default:
            ++s.squashedOther;
            break;
        }
    }
    if (window_.size() > 1)
        ctrs_.tasksSquashedCascade += window_.size() - 1;

    dropSpeculation();
    noteEngageFailure();
}

void
MsspMachine::dropSpeculation()
{
    for (auto &slave : slaves_) {
        slave.release();
        slave.invalidateL1();   // speculative lines are discarded
    }
    for (auto &task : window_) {
        ctrs_.wastedSlaveInsts += task->instCount;
        recycleTask(std::move(task));
    }
    window_.clear();
    arrived_.clear();
    spawn_queue_.clear();
    master_.stop();
    mode_ = Mode::Restarting;
    restart_at_ = now_ + cfg_.squashPenalty;
    last_commit_cycle_ = now_;
}

void
MsspMachine::serializeSpeculation()
{
    dropSpeculation();
    // The device access itself must execute sequentially before the
    // master may be re-engaged (it could sit exactly at a fork site).
    force_seq_insts_ = 1;
    // Note: deliberately no engage-failure accounting — this is
    // planned serialization, not misspeculation.
}

void
MsspMachine::commitFront()
{
    Task &t = *window_.front();
    ++site_stats_[t.startPc].committed;
    if (commit_hook_)
        commit_hook_(t, arch_);
    t.applyLiveOut(arch_);
    bool stays_at_pc = t.end == TaskEnd::Halted ||
                       t.end == TaskEnd::MmioStop;
    arch_.setPc(stays_at_pc ? t.pc : t.endPc);
    arch_.addInstret(t.instCount);
    outputs_.insert(outputs_.end(), t.outputs.begin(),
                    t.outputs.end());

    ++ctrs_.tasksCommitted;
    task_size_dist_.sample(static_cast<double>(t.instCount));
    livein_dist_.sample(static_cast<double>(t.liveInCells()));
    ctrs_.archReads += t.archReads;
    if (t.end == TaskEnd::Halted)
        halted_ = true;

    recycleTask(std::move(window_.front()));
    window_.pop_front();
    commit_busy_until_ = now_ + cfg_.commitLatency;
    last_commit_cycle_ = now_;
    engage_failures_ = 0;
    consecutive_watchdog_ = 0;
    if (seq_backoff_ > 0) {
        // Speculation is working again: decay. Clamp to 0 below the
        // initial backoff so a recovered machine really is backoff-free
        // (re-engagement via max(2x, seqBackoffInsts) used to pin any
        // once-engaged backoff at the floor forever).
        seq_backoff_ /= 2;
        if (seq_backoff_ < cfg_.seqBackoffInsts)
            seq_backoff_ = 0;
        ++ctrs_.seqBackoffDecays;
    }
    master_.sweepDeltaAgainstArch(cfg_.checkpointSweepCells);
}

void
MsspMachine::tickCommit()
{
    if (now_ < commit_busy_until_ || window_.empty())
        return;
    Task &t = *window_.front();
    if (!t.done())
        return;

    if (injector_ && injector_->fire(FaultType::SpuriousSquash)) {
        // Glitched verification hardware: squash a head task that may
        // well have verified. Costs performance, never correctness —
        // squashed work leaves architected state untouched.
        squash(TaskOutcome::SquashedSpurious);
        return;
    }

    switch (t.end) {
      case TaskEnd::ReachedEnd:
      case TaskEnd::Halted:
      case TaskEnd::MmioStop: {
        if (t.startPc != arch_.pc()) {
            squash(TaskOutcome::SquashedWrongPc);
            return;
        }
        ctrs_.liveInCellsChecked += t.liveInCells();
        uint64_t mismatches = t.liveInMismatches(arch_);
        if (mismatches) {
            ctrs_.liveInCellsMismatched += mismatches;
            squash(TaskOutcome::SquashedLiveIn);
            return;
        }
        bool mmio = t.end == TaskEnd::MmioStop;
        commitFront();
        if (mmio) {
            // The committed prefix brought the architected PC to the
            // device access; execute it (and what follows) in
            // sequential mode — speculation is precluded on
            // non-idempotent state.
            ++ctrs_.mmioSerializations;
            serializeSpeculation();
        }
        return;
      }
      case TaskEnd::Faulted: {
        // A fault with verified inputs is a genuine program fault.
        if (t.startPc == arch_.pc() && t.liveInMismatches(arch_) == 0) {
            faulted_ = true;
            return;
        }
        squash(TaskOutcome::SquashedLiveIn);
        return;
      }
      case TaskEnd::Overrun:
        squash(TaskOutcome::SquashedOverrun);
        return;
      case TaskEnd::None:
        return;
    }
}

std::unique_ptr<Task>
MsspMachine::allocTask()
{
    if (task_pool_.empty()) {
        auto task = std::make_unique<Task>();
        // Memory sets only (registers live in the task's register
        // file): committed tasks of the analogues read at most 39
        // cells and write at most 19, so these sizes skip every
        // grow-rehash without inflating the per-reset clear().
        task->memIn.reserve(32);
        task->memOut.reserve(16);
        return task;
    }
    std::unique_ptr<Task> task = std::move(task_pool_.back());
    task_pool_.pop_back();
    task->reset();
    return task;
}

void
MsspMachine::recycleTask(std::unique_ptr<Task> task)
{
    // Stale contents are harmless: allocTask() resets on reuse (so
    // references held through commit/squash teardown stay readable).
    // The checkpoint goes now, though: the master's restart() reuses
    // its journal's storage only when no checkpoint refers to it.
    task->checkpoint = Checkpoint{};
    task_pool_.push_back(std::move(task));
}

void
MsspMachine::tickSpawnDelivery()
{
    while (!arrived_.empty()) {
        auto idle = std::find_if(slaves_.begin(), slaves_.end(),
                                 [this](const SlaveCore &s) {
                                     return s.idle() && !s.aheadOf(now_);
                                 });
        if (idle == slaves_.end())
            return;
        Task *t = arrived_.front();
        arrived_.pop_front();
        idle->assign(t);
    }
}

void
MsspMachine::injectMasterFaults()
{
    if (injector_->fire(FaultType::MasterRegFlip)) {
        const FaultPlan &p = injector_->plan(FaultType::MasterRegFlip);
        unsigned r = p.target > 0 && p.target < static_cast<int>(NumRegs)
                         ? static_cast<unsigned>(p.target)
                         : 1 + static_cast<unsigned>(
                                   injector_->pick(NumRegs - 1));
        master_.corruptReg(r, injector_->bit32());
    }
    if (!dist_code_addrs_.empty() &&
        injector_->fire(FaultType::MasterPcCorrupt)) {
        uint32_t pc = dist_code_addrs_[injector_->pick(
            dist_code_addrs_.size())];
        master_.corruptPc(pc);
    }
    if (!dist_code_addrs_.empty() &&
        injector_->fire(FaultType::ImagePatch)) {
        // Patch a word of the master's private I-space at runtime and
        // invalidate its predecode page. The original image is never
        // touched: slaves and the Seq fallback stay correct by
        // construction.
        uint32_t addr = dist_code_addrs_[injector_->pick(
            dist_code_addrs_.size())];
        dist_.prog.setWord(addr, injector_->word());
        master_.invalidateDecode(addr);
    }
}

void
MsspMachine::injectSlaveFaults()
{
    for (auto &slave : slaves_) {
        // A slave an epoch ran ahead still holds its task at this
        // cycle, whatever it has since done with it.
        Task *t = slave.task();
        bool ahead = slave.aheadOf(now_);
        if ((!t || t->done()) && !ahead)
            continue;
        bool kill = false;
        Cycle stall = injector_->onSlaveTick(slave.id(), &kill);
        // The epoch rule keeps hits off ahead slaves (DESIGN.md §8).
        MSSP_ASSERT(!ahead || (!kill && stall == 0));
        if (kill) {
            // The core died mid-task. Its task stays incomplete in
            // the window (no slave will ever pick it up again), so
            // the commit unit stalls on it until the watchdog squash
            // recovers — exactly a hung core's failure mode.
            slave.release();
            continue;
        }
        if (stall > 0)
            slave.injectStall(stall);
    }
}

void
MsspMachine::tickSlaves()
{
    if (injector_)
        injectSlaveFaults();
    for (auto &slave : slaves_) {
        if (slave.aheadOf(now_))
            continue;
        unsigned executed = slave.tick();
        ctrs_.slaveInsts += executed;
        // Free the slave as soon as its task is complete: the task's
        // live-in/live-out data now lives with the verify/commit unit
        // (the window), exactly as in the paper.
        if (Task *t = slave.task(); t && t->done())
            slave.release();
    }
}

void
MsspMachine::tickMaster()
{
    if (mode_ != Mode::Spec || !master_.running())
        return;
    if (injector_)
        injectMasterFaults();
    if (cfg_.masterRunawayInsts > 0 &&
        master_.instsSinceRestart() - master_insts_at_last_fork_ >
            cfg_.masterRunawayInsts) {
        // The master is burning instructions without forking (e.g. a
        // corrupted PC landed it in an infinite non-fork loop). The
        // watchdog cannot see this while older tasks keep committing,
        // so kill the master here; once the window drains, the
        // master-dead path restarts it.
        master_.stop();
        ++ctrs_.masterRunawayKills;
        return;
    }
    master_budget_ += cfg_.masterIpc;

    while (master_budget_ >= 1.0 && master_.running()) {
        if (!master_.atFork()) {
            // Between forks the master runs a whole budget's worth of
            // instructions on the reference engine in one slice; the
            // engine stops in front of the next FORK so the capacity
            // gate below still sees every spawn attempt.
            auto avail = static_cast<unsigned>(master_budget_);
            unsigned executed = 0;
            MasterStep st = master_.runSlice(avail, &executed);
            master_budget_ -= executed;
            ctrs_.masterInsts += executed;
            if (st == MasterStep::Halted) {
                if (Task *prev = youngest(); prev && !prev->endKnown)
                    prev->runToHalt = true;
                return;
            }
            if (st == MasterStep::Faulted)
                return;
            continue;  // in front of a FORK, or budget drained
        }
        // Cheap capacity test first: the fork-site peek only matters
        // when the window is actually full.
        if (window_.size() >= cfg_.maxInFlightTasks &&
            master_.nextForkWouldSpawn()) {
            ++ctrs_.masterStallWindowFull;
            master_budget_ = 0.0;
            return;
        }
        master_budget_ -= 1.0;

        MasterCore::ForkInfo fi;
        MasterStep st = master_.step(&fi);
        if (st != MasterStep::Faulted)
            ++ctrs_.masterInsts;

        switch (st) {
          case MasterStep::WantsFork: {
            master_insts_at_last_fork_ = master_.instsSinceRestart();
            if (Task *prev = youngest(); prev && !prev->endKnown) {
                prev->endKnown = true;
                prev->endPc = fi.origPc;
                prev->endVisits = fi.endVisitsForPrev;
            }
            std::unique_ptr<Task> task = allocTask();
            task->id = next_task_id_++;
            task->startPc = fi.origPc;
            task->checkpoint = std::move(fi.checkpoint);
            if (injector_)
                injector_->corruptCheckpoint(task->checkpoint);
            checkpoint_dist_.sample(
                static_cast<double>(task->checkpoint.size()));
            Task *raw = task.get();
            window_.push_back(std::move(task));
            ++ctrs_.tasksForked;
            ++site_stats_[fi.origPc].forked;
            if (injector_ && injector_->dropSpawn()) {
                // Lost on the interconnect: the task sits in the
                // window forever undelivered; the watchdog squash
                // recovers it.
                break;
            }
            Cycle transit = cfg_.forkLatency;
            if (injector_)
                transit += injector_->spawnDelay();
            spawn_queue_.push_back({now_ + transit, raw});
            break;
          }
          case MasterStep::Halted: {
            if (Task *prev = youngest(); prev && !prev->endKnown)
                prev->runToHalt = true;
            return;
          }
          case MasterStep::Faulted:
            // The distilled program went off the rails; in-flight
            // tasks may still commit, and the watchdog recovers the
            // rest. Correctness is unaffected.
            return;
          case MasterStep::Executed:
            break;
        }
    }
}

// hot + aligned for the same layout-stability reason as
// executeDecodedOn (exec/executor.hh): the Seq fallback's engine loop
// is inlined here.
__attribute__((hot, aligned(64))) uint64_t
MsspMachine::runSeqSlice(uint64_t max_attempts, bool *engage)
{
    SeqArchContext ctx(arch_, device_, outputs_);

    // Per-step obligations (instret, backoff countdowns, the
    // re-engage check) ride the reference engine's hook.
    struct SeqHook
    {
        MsspMachine &m;
        bool engage = false;

        bool preStep(uint32_t, const Instruction &) { return true; }

        StepVerdict postStep(uint32_t, StepResult &res)
        {
            m.arch_.addInstret(1);
            ++m.ctrs_.seqModeInsts;
            if (res.status == StepStatus::Halted)
                return StepVerdict::Stop;
            if (m.seq_insts_remaining_ > 0)
                --m.seq_insts_remaining_;
            if (m.force_seq_insts_ > 0)
                --m.force_seq_insts_;
            if (m.seq_insts_remaining_ == 0 &&
                m.force_seq_insts_ == 0 &&
                m.dist_.entryMap.count(res.nextPc)) {
                engage = true;
                return StepVerdict::Stop;
            }
            return StepVerdict::Continue;
        }
    };

    SeqHook hook{*this};
    EngineResult er =
        runRefEngine(orig_decode_, arch_.pc(), max_attempts, ctx, hook);
    arch_.setPc(er.pc);
    *engage = hook.engage;
    if (er.status == StepStatus::Illegal) {
        faulted_ = true;
        return er.retired + 1;   // the faulting attempt took a slot
    }
    if (er.status == StepStatus::Halted)
        halted_ = true;
    return er.retired;
}

void
MsspMachine::tickSeq()
{
    if (mode_ != Mode::Seq)
        return;
    ++ctrs_.seqModeCycles;
    seq_budget_ += cfg_.slaveIpc;

    while (seq_budget_ >= 1.0 && !halted_ && !faulted_) {
        bool engage = false;
        // The budget counts attempts: a faulting one consumed a slot.
        seq_budget_ -= static_cast<double>(runSeqSlice(
            static_cast<uint64_t>(seq_budget_), &engage));
        if (halted_ || faulted_)
            return;
        if (engage) {
            engageMaster();
            if (mode_ == Mode::Spec)
                return;
        }
    }
}

void
MsspMachine::checkWatchdog()
{
    if (mode_ != Mode::Spec)
        return;
    if (now_ - last_commit_cycle_ > cfg_.watchdogCycles) {
        ++ctrs_.watchdogSquashes;
        ++consecutive_watchdog_;
        bool escalate =
            consecutive_watchdog_ > cfg_.watchdogEscalateAfter;
        squash(TaskOutcome::SquashedOverrun);
        if (escalate && seq_insts_remaining_ == 0) {
            // This many firings without one commit in between means
            // re-trying speculation is burning watchdogCycles per
            // attempt; force the sequential fallback now. (Skipped
            // when squash()'s own engage-failure accounting already
            // scheduled a backoff — no double-doubling.)
            ++ctrs_.watchdogEscalations;
            seq_backoff_ = std::min(
                std::max(seq_backoff_ * 2, cfg_.seqBackoffInsts),
                cfg_.maxSeqBackoffInsts);
            seq_insts_remaining_ = seq_backoff_;
        }
    }
}

void
MsspMachine::stepCycle()
{
    // Fork delivery (in transit for forkLatency cycles; FIFO by
    // construction since the latency is fixed).
    while (!spawn_queue_.empty() && spawn_queue_.front().due <= now_) {
        arrived_.push_back(spawn_queue_.front().task);
        spawn_queue_.pop_front();
    }
    if (mode_ == Mode::Restarting && now_ >= restart_at_)
        engageMaster();
    // Per-cycle units are guarded here so the common cases (empty
    // window, head task still running, idle delivery queue) cost
    // a branch, not a call.
    if (!window_.empty() && now_ >= commit_busy_until_ &&
        window_.front()->done()) {
        tickCommit();
        if (halted_ || faulted_)
            return;
    }
    if (!arrived_.empty())
        tickSpawnDelivery();
    tickSlaves();
    if (mode_ == Mode::Spec) {
        tickMaster();
        if (!master_.running() && window_.empty() &&
            spawn_queue_.empty() && arrived_.empty()) {
            // Dead master (halted/faulted/runaway-killed), empty
            // pipeline: nothing can ever commit, so restart now
            // instead of sitting out the watchdog. Counts as an
            // engage failure — a master that dies right after
            // every restart must escalate into Seq backoff, not
            // spin restart/die forever.
            noteMasterDead();
        } else {
            checkWatchdog();
        }
    } else if (mode_ == Mode::Seq) {
        tickSeq();
    }
    ++now_;
}

bool
MsspMachine::drawsNow(FaultType t)
{
    if (slaveFault(t)) {
        for (SlaveCore &slave : slaves_) {
            Task *task = slave.task();
            if (injector_->targetsSlave(t, slave.id()) &&
                ((task && !task->done()) || slave.aheadOf(now_)))
                return true;
        }
        return false;
    }
    return mode_ == Mode::Spec && master_.running();
}

uint64_t
MsspMachine::targetedIdleCycles(FaultType t) const
{
    uint64_t idle = 0;
    for (const SlaveCore &slave : slaves_) {
        if (injector_->targetsSlave(t, slave.id()))
            idle += slave.idleCycles();
    }
    return idle;
}

bool
MsspMachine::planEpochDraws(EpochDraws *draws)
{
    // The per-cycle plans that can draw at all (injectMasterFaults
    // draws the PC and image faults only with a patchable image).
    unsigned drawing = 0;
    unsigned drawing_now = 0;
    for (FaultType t : {FaultType::MasterRegFlip,
                        FaultType::MasterPcCorrupt, FaultType::ImagePatch,
                        FaultType::SlaveKill, FaultType::SlaveStall}) {
        bool needs_image = t == FaultType::MasterPcCorrupt ||
                           t == FaultType::ImagePatch;
        if (!injector_->armed(t) || (needs_image && dist_code_addrs_.empty()))
            continue;
        ++drawing;
        if (drawsNow(t)) {
            draws->type = t;
            ++drawing_now;
        }
    }
    if (drawing_now == 0)
        return true;
    if (drawing > 1) {
        // Two plans interleave their draws cycle by cycle.
        return false;
    }
    // One plan draws alone. Master plans draw once per cycle the
    // master runs (or stalls), and it does on every cycle of a Spec
    // epoch. Slave plans draw once per targeted slave holding its
    // task; the head may run past the epoch's end and still hold its
    // task at the stepped cycles after it, which may fork. So bound
    // every cycle's draws by the targeted slaves plus a fork's draws:
    // no hit can then reach a slave simulated ahead.
    uint64_t per_cycle = 1;
    if (slaveFault(draws->type)) {
        for (const SlaveCore &slave : slaves_)
            draws->slaves += injector_->targetsSlave(draws->type,
                                                     slave.id());
        draws->idle = targetedIdleCycles(draws->type);
        per_cycle = draws->slaves + injector_->forkDrawBound();
    }
    draws->limit =
        now_ + injector_->missesBeforeHit(draws->type) / per_cycle;
    return draws->limit > now_;
}

bool
MsspMachine::epochFallback(EpochFallback *reason, EpochDraws *draws)
{
    if (cfg_.masterIpc != 1.0 || cfg_.slaveIpc != 1.0) {
        // Budgets then carry fractions from cycle to cycle.
        *reason = EpochFallback::Ipc;
        return true;
    }
    if (injector_ && !planEpochDraws(draws)) {
        *reason = EpochFallback::FaultDraws;
        return true;
    }
    if (!arrived_.empty()) {
        // A slave freed mid-span would take the task at once.
        *reason = EpochFallback::Undelivered;
        return true;
    }
    if (!window_.empty()) {
        // A running head whose end the master has yet to reveal can
        // finish (and commit) or wait on the master's next fork:
        // neither core may then run first.
        const Task &head = *window_.front();
        if (!head.endKnown && !head.runToHalt && head.slaveId >= 0 &&
            slaves_[static_cast<size_t>(head.slaveId)].task() == &head) {
            *reason = EpochFallback::OpenHead;
            return true;
        }
    }
    return false;
}

Cycle
MsspMachine::staticHorizon(Cycle max_cycles) const
{
    Cycle h = max_cycles;
    if (!spawn_queue_.empty())
        h = std::min(h, spawn_queue_.front().due);
    if (mode_ == Mode::Restarting)
        h = std::min(h, restart_at_);
    if (mode_ == Mode::Spec)
        h = std::min(h, last_commit_cycle_ + cfg_.watchdogCycles + 1);
    if (!window_.empty() && window_.front()->done())
        h = std::min(h, std::max(now_, commit_busy_until_));
    return h;
}

void
MsspMachine::advanceSlaves(Cycle until)
{
    for (SlaveCore &slave : slaves_) {
        Cycle from = std::max(now_, slave.readyAt());
        uint64_t executed = 0;
        while (from < until)
            from += slave.advance(until - from, &executed);
        ctrs_.slaveInsts += executed;
    }
}

void
MsspMachine::advanceSeqEpoch(Cycle horizon)
{
    // Seq mode runs with an empty window: every slave is idle, so the
    // fallback executes alone against architected state.
    bool engage = false;
    Cycle used = runSeqSlice(horizon - now_, &engage);
    ctrs_.seqModeCycles += used;
    advanceSlaves(now_ + used);
    now_ += used;
    if (engage && !halted_ && !faulted_) {
        // The re-engage check belongs to the slice's last cycle.
        --now_;
        engageMaster();
        ++now_;
    }
}

void
MsspMachine::advanceEpoch(Cycle max_cycles)
{
    EpochFallback reason;
    EpochDraws draws;
    if (epochFallback(&reason, &draws)) {
        ++epoch_stats_.fallbacks[static_cast<size_t>(reason)];
        return;
    }
    // Clipped before any core runs: the head must not run past a
    // cycle whose fault draw may hit.
    Cycle horizon = std::min(staticHorizon(max_cycles), draws.limit);
    if (horizon <= now_)
        return;
    Cycle start = now_;

    if (mode_ == Mode::Seq) {
        advanceSeqEpoch(horizon);
    } else if (mode_ == Mode::Restarting) {
        advanceSlaves(horizon);
        now_ = horizon;
    } else {
        // 1. The head task, when its end is final: nothing the master
        // or other slaves do before it completes can reach it, so it
        // may run ahead of the others; its completion at cycle c puts
        // the commit attempt at max(c + 1, commit_busy_until_).
        if (!window_.empty()) {
            Task &head = *window_.front();
            if (!head.done() && head.slaveId >= 0) {
                SlaveCore &slave =
                    slaves_[static_cast<size_t>(head.slaveId)];
                Cycle from = std::max(now_, slave.readyAt());
                if (slave.task() == &head && from < horizon) {
                    uint64_t executed = 0;
                    Cycle ran = slave.advance(horizon - from, &executed);
                    ctrs_.slaveInsts += executed;
                    slave.setReadyAt(from + ran);
                    if (head.done()) {
                        commit_busy_until_ =
                            std::max(commit_busy_until_, from + ran);
                        horizon = std::min(horizon, commit_busy_until_);
                    }
                }
            }
        }

        // 2. The master, up to its next spawning FORK, HALT, fault or
        // runaway kill: each is handled by stepCycle at that cycle.
        bool stalled = false;
        if (master_.running()) {
            uint64_t since_fork =
                master_.instsSinceRestart() - master_insts_at_last_fork_;
            if (cfg_.masterRunawayInsts > 0) {
                if (since_fork > cfg_.masterRunawayInsts)
                    horizon = now_;   // the kill-switch trips now
                else
                    horizon = std::min(horizon,
                                       now_ + cfg_.masterRunawayInsts -
                                           since_fork + 1);
            }
            // In front of a spawning FORK with the window full, the
            // master stalls until a commit or squash.
            stalled = window_.size() >= cfg_.maxInFlightTasks &&
                      master_.nextForkWouldSpawn();
            if (!stalled && horizon > now_) {
                uint64_t ran = master_.runToEvent(horizon - now_);
                ctrs_.masterInsts += ran;
                horizon = now_ + ran;
            }
        } else {
            // stepCycle restarts a dead master in the very cycle its
            // pipeline drains, so one is never left to an epoch.
            MSSP_ASSERT(!window_.empty() || !spawn_queue_.empty());
        }
        if (stalled)
            ctrs_.masterStallWindowFull += horizon - now_;

        // 3. Every other slave, up to the horizon.
        advanceSlaves(horizon);
        now_ = horizon;
    }
    if (now_ > start) {
        ++epoch_stats_.epochs;
        epoch_stats_.batchedCycles += now_ - start;
        if (draws.type != FaultType::None) {
            // Every draw in the span missed: the master drew on each
            // cycle; a slave on each cycle through its task's
            // completion (the draw precedes the tick), i.e. on each
            // cycle it was not idle.
            uint64_t n = now_ - start;
            if (draws.slaves) {
                n = n * draws.slaves -
                    (targetedIdleCycles(draws.type) - draws.idle);
            }
            injector_->skip(n);
        }
    }
}

MsspResult
MsspMachine::run(uint64_t max_cycles)
{
    return runLoop(max_cycles, true);
}

MsspResult
MsspMachine::runCycleStepped(uint64_t max_cycles)
{
    return runLoop(max_cycles, false);
}

MsspResult
MsspMachine::runLoop(uint64_t max_cycles, bool batched)
{
    while (now_ < max_cycles && !halted_ && !faulted_) {
        if (batched) {
            advanceEpoch(max_cycles);
            if (now_ >= max_cycles || halted_ || faulted_)
                break;
        }
        stepCycle();
    }

    MsspResult result;
    result.halted = halted_;
    if (halted_) {
        result.stopReason = StopReason::Halted;
    } else if (faulted_) {
        result.stopReason = StopReason::Faulted;
    } else if (consecutive_watchdog_ > cfg_.watchdogEscalateAfter) {
        // Ran out the clock mid watchdog storm: the cycle budget, not
        // the recovery machinery, was exhausted.
        result.stopReason = StopReason::WatchdogExhausted;
    } else {
        result.stopReason = StopReason::TimedOut;
    }
    result.cycles = now_;
    result.committedInsts = arch_.instret();
    result.outputs = outputs_;
    result.siteStats = site_stats_;
    return result;
}

double
MsspMachine::meanTaskSize() const
{
    return task_size_dist_.mean();
}

double
MsspMachine::meanCheckpointCells() const
{
    return checkpoint_dist_.mean();
}

MsspCounters
MsspMachine::counters() const
{
    MsspCounters c = ctrs_;
    for (const auto &slave : slaves_) {
        if (const Cache *l1 = slave.l1()) {
            c.l1Hits += l1->hits();
            c.l1Misses += l1->misses();
        }
        c.slaveArchStallCycles += slave.archStallCycles();
        c.slavePauseCycles += slave.pauseCycles();
        c.slaveIdleCycles += slave.idleCycles();
    }
    return c;
}

void
MsspMachine::dumpStats(std::ostream &os) const
{
    forEachCounter(counters(), [&os](const char *name, uint64_t v,
                                     const char *desc) {
        os << strfmt("mssp.%-28s %12llu  # %s\n", name,
                     static_cast<unsigned long long>(v), desc);
    });
    if (injector_)
        injector_->dump(os);
    stats_root_.dump(os);
}

} // namespace mssp
