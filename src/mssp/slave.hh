/**
 * @file
 * MSSP slave processors.
 *
 * A slave executes one task of the *original* program. Reads are
 * satisfied, in priority order, from the task's own write buffer, the
 * already-recorded live-ins, the master's checkpoint, and finally
 * architected state (read-through, charged archReadLatency cycles).
 * Every first read of a cell is recorded in the task's live-in set;
 * the verify/commit unit later checks that set against architected
 * state, which is exactly the paper's memoization-style commit test.
 *
 * This is the machine's dominant instruction path, so it runs
 * devirtualized (TaskContext is final), fetches through the shared
 * predecode cache of the original image, and captures live-ins with a
 * single hash probe (StateDelta's lookup/insertAt cursor).
 */

#ifndef MSSP_MSSP_SLAVE_HH
#define MSSP_MSSP_SLAVE_HH

#include <cstdint>
#include <memory>

#include "arch/arch_state.hh"
#include "arch/mmio.hh"
#include "exec/backend.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/executor.hh"
#include "mssp/config.hh"
#include "mssp/fork_sites.hh"
#include "mssp/task.hh"

namespace mssp
{

/** ExecContext for one task on one slave. */
class TaskContext final : public ExecContext
{
  public:
    TaskContext(Task &task, const ArchState &arch,
                Cache *l1 = nullptr)
        : task_(task), arch_(arch), l1_(l1)
    {}

    /** Arch read-throughs performed by the last step (for timing). */
    unsigned archReadsLastStep = 0;
    /** Set when the last step tried to touch device space; all of the
     *  step's writes were suppressed and it must be discarded. */
    bool mmioTouched = false;

    void
    beginStep()
    {
        archReadsLastStep = 0;
        mmioTouched = false;
    }

    uint32_t
    readCell(CellId cell)
    {
        if (auto v = task_.liveOut.get(cell))
            return *v;
        // Live-in capture probes once: the lookup cursor doubles as
        // the insert position for the read-through value.
        StateDelta::Cursor c = task_.liveIn.lookup(cell);
        if (c.found)
            return task_.liveIn.valueAt(c);
        if (task_.checkpoint) {
            if (auto v = task_.checkpoint->get(cell)) {
                task_.liveIn.insertAt(c, cell, *v);
                return *v;
            }
        }
        uint32_t value = arch_.readCell(cell);
        ++task_.archReads;
        // L1 filter: resident memory lines are free; misses (and all
        // architected register-file reads) pay the read-through.
        bool charged = true;
        if (l1_ && cellKind(cell) == CellKind::Mem)
            charged = !l1_->access(cellIndex(cell));
        if (charged)
            ++archReadsLastStep;
        task_.liveIn.insertAt(c, cell, value);
        return value;
    }

    uint32_t readReg(unsigned r) override
    {
        // Repeat register reads hit the task's register cache; only
        // the first touch of r runs the full read (and records the
        // live-in). The cached value tracks liveOut/liveIn exactly.
        uint32_t bit = 1u << r;
        if (task_.regValid & bit)
            return task_.regCache[r];
        uint32_t v = readCell(makeRegCell(r));
        task_.regCache[r] = v;
        task_.regValid |= bit;
        return v;
    }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        if (mmioTouched)
            return;   // discard the aborted step's register write
        task_.liveOut.set(makeRegCell(r), v);
        task_.regCache[r] = v;
        task_.regValid |= 1u << r;
    }
    uint32_t
    readMem(uint32_t addr) override
    {
        if (isMmio(addr)) {
            mmioTouched = true;
            return 0;   // dummy; the step is discarded
        }
        return readCell(makeMemCell(addr));
    }
    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr) || mmioTouched) {
            mmioTouched = true;
            return;
        }
        task_.liveOut.set(makeMemCell(addr), v);
    }
    uint32_t
    fetch(uint32_t pc) override
    {
        // Original code is immutable (no self-modifying code); fetch
        // directly from architected memory without live-in recording.
        return arch_.readMem(pc);
    }
    void
    output(uint16_t port, uint32_t value) override
    {
        task_.outputs.push_back({port, value});
    }

  private:
    Task &task_;
    const ArchState &arch_;
    Cache *l1_;
};

/** One slave processor. */
class SlaveCore
{
  public:
    SlaveCore(int id, const ArchState &arch, const MsspConfig &cfg,
              const ForkSiteSet &fork_site_pcs, DecodeCache &decode)
        : id_(id), arch_(arch), cfg_(cfg),
          fork_site_pcs_(fork_site_pcs), decode_(decode)
    {
        if (cfg.useSlaveL1)
            l1_ = std::make_unique<Cache>(cfg.slaveL1);
    }

    bool idle() const { return task_ == nullptr; }
    Task *task() { return task_; }
    int id() const { return id_; }

    /** Begin executing @p task (it must be freshly spawned). */
    void
    assign(Task *task)
    {
        task_ = task;
        task->slaveId = id_;
        task->pc = task->startPc;
        budget_ = 0.0;
        stall_ = 0;
    }

    /** Drop the current task (squash or commit bookkeeping). */
    void
    release()
    {
        task_ = nullptr;
    }

    /**
     * Advance one cycle. Executes up to slaveIpc instructions,
     * honoring arch-read stalls and fork-site pauses.
     *
     * The idle case inlines into the machine's slave loop (most
     * slaves are idle most cycles); the execute path is out of line.
     *
     * @return instructions executed this cycle (for stats)
     */
    unsigned
    tick()
    {
        if (!task_) {
            ++idle_cycles_;
            return 0;
        }
        if (task_->done())
            return 0;   // waiting for the commit unit
        if (stall_ > 0) {
            --stall_;
            ++arch_stall_cycles_;
            return 0;
        }
        if (task_->pausedAtForkSite && !task_->endKnown &&
            !task_->runToHalt) {
            // Still waiting for the master to reveal the end
            // condition; same outcome as tickActive's pause path.
            ++pause_cycles_;
            return 0;
        }
        return tickActive();
    }

    /** Fault-injection surface: freeze this core for @p n extra
     *  cycles, as a stalled or flaky core would (timing-only; the
     *  verify/commit unit never learns the difference). */
    void injectStall(Cycle n) { stall_ += n; }

    /** Flash-invalidate the speculative L1 (squash/serialize). */
    void
    invalidateL1()
    {
        if (l1_)
            l1_->invalidateAll();
    }

    /** The private L1 (null when disabled). */
    const Cache *l1() const { return l1_.get(); }

    /** Cycles this slave spent stalled on arch reads (stats). */
    uint64_t archStallCycles() const { return arch_stall_cycles_; }
    /** Cycles spent paused waiting for an end condition (stats). */
    uint64_t pauseCycles() const { return pause_cycles_; }
    /** Cycles spent idle with no task (stats). */
    uint64_t idleCycles() const { return idle_cycles_; }

  private:
    /** The non-idle part of tick() (inline: once per busy slave per
     *  cycle, and the call sits on the machine's innermost loop). */
    unsigned tickActive();

    /** Re-check pause/end conditions when new end info arrives. */
    void refreshEndCondition();

    /**
     * Per-step obligations of task execution, expressed as a hook on
     * the reference engine (exec/backend.hh). Ordering mirrors the historical inline
     * loop exactly: MMIO aborts discard the step, halt ends the task
     * with the pc pinned, then arch-read stalls, end-condition
     * arrivals, fork-site pauses and the runaway cap — the last three
     * on the *post-step* pc, and all of them after the instruction
     * retires.
     */
    struct SlaveHook
    {
        SlaveCore &s;
        Task &t;
        TaskContext &ctx;
        /** Attempted steps (retired + MMIO-discarded); budget is
         *  charged per attempt, as the historical loop did. */
        uint64_t attempts = 0;

        bool
        preStep(uint32_t, const Instruction &)
        {
            ctx.beginStep();
            return true;
        }

        StepVerdict
        postStep(uint32_t, StepResult &res)
        {
            ++attempts;
            if (ctx.mmioTouched) {
                // Device access: the step was suppressed. The task
                // ends *before* the access; the machine serializes it.
                t.end = TaskEnd::MmioStop;
                return StepVerdict::Discard;
            }
            ++t.instCount;
            if (res.status == StepStatus::Halted) {
                t.end = TaskEnd::Halted;
                return StepVerdict::Continue;  // engine pins pc, stops
            }
            StepVerdict v = StepVerdict::Continue;
            if (ctx.archReadsLastStep) {
                s.stall_ += static_cast<Cycle>(ctx.archReadsLastStep) *
                            s.cfg_.archReadLatency;
                v = StepVerdict::Stop;
            }
            // Arrival checks: end condition and fork-site pauses.
            // These end the step outright; the runaway cap is only
            // consulted when neither fired (historical break order).
            if (t.endKnown) {
                if (res.nextPc == t.endPc) {
                    ++t.visits;
                    if (t.visits >= t.endVisits) {
                        t.end = TaskEnd::ReachedEnd;
                        return StepVerdict::Stop;
                    }
                }
            } else if (!t.runToHalt &&
                       s.fork_site_pcs_.contains(res.nextPc)) {
                t.pausedAtForkSite = true;
                return StepVerdict::Stop;
            }
            if (t.instCount >= s.cfg_.maxTaskInsts) {
                t.end = TaskEnd::Overrun;
                return StepVerdict::Stop;
            }
            return v;
        }
    };

    int id_;
    const ArchState &arch_;
    const MsspConfig &cfg_;
    const ForkSiteSet &fork_site_pcs_;
    DecodeCache &decode_;   ///< shared cache of the original image

    Task *task_ = nullptr;
    std::unique_ptr<Cache> l1_;
    double budget_ = 0.0;
    Cycle stall_ = 0;

    uint64_t arch_stall_cycles_ = 0;
    uint64_t pause_cycles_ = 0;
    uint64_t idle_cycles_ = 0;
};

inline void
SlaveCore::refreshEndCondition()
{
    Task &t = *task_;
    if (!t.pausedAtForkSite)
        return;
    if (t.runToHalt) {
        t.pausedAtForkSite = false;
        return;
    }
    if (!t.endKnown)
        return;   // still waiting for the master to fork
    t.pausedAtForkSite = false;
    if (t.pc == t.endPc) {
        ++t.visits;
        if (t.visits >= t.endVisits)
            t.end = TaskEnd::ReachedEnd;
    }
}

inline unsigned
SlaveCore::tickActive()
{
    Task &t = *task_;
    if (t.pausedAtForkSite) {
        refreshEndCondition();
        if (t.pausedAtForkSite || t.done()) {
            if (t.pausedAtForkSite)
                ++pause_cycles_;
            return 0;
        }
    }

    budget_ += cfg_.slaveIpc;
    TaskContext ctx(t, arch_, l1_.get());
    SlaveHook hook{*this, t, ctx};

    // One engine slice, budgeted in *attempted* steps: MMIO-discarded
    // and faulting attempts consume budget without retiring, exactly
    // as the historical per-step loop charged them.
    EngineResult er = runRefEngine(
        decode_, t.pc, static_cast<uint64_t>(budget_), ctx, hook);
    uint64_t attempts =
        hook.attempts + (er.status == StepStatus::Illegal ? 1 : 0);
    budget_ -= static_cast<double>(attempts);
    t.pc = er.pc;
    if (er.status == StepStatus::Illegal)
        t.end = TaskEnd::Faulted;
    return static_cast<unsigned>(er.retired);
}

} // namespace mssp

#endif // MSSP_MSSP_SLAVE_HH
