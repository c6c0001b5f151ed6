#include "mssp/machine.hh"

#include <algorithm>

#include "exec/executor.hh"
#include "fault/fault.hh"
#include "sim/logging.hh"
#include "sim/supervisor.hh"

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

namespace
{

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

    noteEngageFailure();
    mode_ = Mode::Restarting;
    restart_at_ = now_ + cfg_.squashPenalty;
    last_commit_cycle_ = now_;
}

void
MsspMachine::serializeSpeculation()
{
    for (auto &slave : slaves_) {
        slave.release();
        slave.invalidateL1();
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
    arch_.apply(t.liveOut);
    bool stays_at_pc = t.end == TaskEnd::Halted ||
                       t.end == TaskEnd::MmioStop;
    arch_.setPc(stays_at_pc ? t.pc : t.endPc);
    arch_.addInstret(t.instCount);
    outputs_.insert(outputs_.end(), t.outputs.begin(),
                    t.outputs.end());

    ++ctrs_.tasksCommitted;
    task_size_dist_.sample(static_cast<double>(t.instCount));
    livein_dist_.sample(static_cast<double>(t.liveIn.size()));
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
        ctrs_.liveInCellsChecked += t.liveIn.size();
        uint64_t mismatches = arch_.countMismatches(t.liveIn);
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
        if (t.startPc == arch_.pc() && arch_.matches(t.liveIn)) {
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
        // Typical tasks record dozens of cells; skip the early
        // grow-probe-reinsert churn in the flat maps.
        task->liveIn.reserve(64);
        task->liveOut.reserve(64);
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
    task_pool_.push_back(std::move(task));
}

void
MsspMachine::tickSpawnDelivery()
{
    while (!arrived_.empty()) {
        auto idle = std::find_if(slaves_.begin(), slaves_.end(),
                                 [](const SlaveCore &s) {
                                     return s.idle();
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
        Task *t = slave.task();
        if (!t || t->done())
            continue;
        bool kill = false;
        Cycle stall = injector_->onSlaveTick(slave.id(), &kill);
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
    if (cfg_.masterRunawayInsts > 0 && master_.running() &&
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
            // instructions on the execution tier in one slice; the
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
            task->checkpoint = fi.checkpoint;
            if (injector_) {
                if (auto bad = injector_->corruptCheckpoint(
                        *fi.checkpoint))
                    task->checkpoint = std::move(bad);
            }
            checkpoint_dist_.sample(
                static_cast<double>(task->checkpoint->size()));
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

void
MsspMachine::tickSeq()
{
    if (mode_ != Mode::Seq)
        return;
    ++ctrs_.seqModeCycles;
    seq_budget_ += cfg_.slaveIpc;
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

    while (seq_budget_ >= 1.0 && !halted_ && !faulted_) {
        auto avail = static_cast<uint64_t>(seq_budget_);
        SeqHook hook{*this};
        EngineResult er =
            runRefEngine(orig_decode_, arch_.pc(), avail, ctx, hook);
        // The budget counts attempts: a faulting one consumed a slot.
        seq_budget_ -= static_cast<double>(
            er.retired + (er.status == StepStatus::Illegal ? 1 : 0));
        arch_.setPc(er.pc);
        if (er.status == StepStatus::Illegal) {
            faulted_ = true;
            return;
        }
        if (er.status == StepStatus::Halted) {
            halted_ = true;
            return;
        }
        if (hook.engage) {
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

MsspResult
MsspMachine::run(uint64_t max_cycles)
{
    // Job supervision (sim/supervisor.hh): polled every 1024 cycles
    // at the top of the cycle loop — a consistent point, so a budget
    // trip throws with all speculative and architected state intact
    // (the machine can be inspected or resumed). Unsupervised runs
    // pay one null test per cycle.
    Supervision *sup = currentSupervision();
    uint64_t sup_exec = 0;
    uint64_t sup_commit = 0;
    if (sup) {
        sup_exec = ctrs_.masterInsts + ctrs_.slaveInsts +
                   ctrs_.seqModeInsts;
        sup_commit = arch_.instret();
    }
    while (now_ < max_cycles && !halted_ && !faulted_) {
        if (sup && (now_ & 1023) == 0) {
            sup->checkOrThrow();
            uint64_t exec = ctrs_.masterInsts + ctrs_.slaveInsts +
                            ctrs_.seqModeInsts;
            uint64_t commit = arch_.instret();
            sup->consume(exec - sup_exec, commit - sup_commit);
            sup_exec = exec;
            sup_commit = commit;
        }
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
        // a branch, not a call (this loop runs once per cycle).
        if (!window_.empty() && now_ >= commit_busy_until_ &&
            window_.front()->done()) {
            tickCommit();
            if (halted_ || faulted_)
                break;
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
