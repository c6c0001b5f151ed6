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
 * predecode cache of the original image, keeps registers in the
 * task's register file (an array and two masks, no hash map) and
 * captures memory live-ins with a single hash probe (StateDelta's
 * lookup/insertAt cursor).
 */

#ifndef MSSP_MSSP_SLAVE_HH
#define MSSP_MSSP_SLAVE_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "arch/arch_state.hh"
#include "arch/mmio.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/engine.hh"
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

    // always_inline: GCC's unit-growth limit otherwise leaves it out
    // of line at most of executeDecodedOn<TaskContext>'s call sites;
    // forcing it measured -9% machine time on the 12 analogues.
    __attribute__((always_inline)) uint32_t
    readReg(unsigned r) override
    {
        // Only the first touch of r leaves the register file.
        if (__builtin_expect(
                ((task_.regInMask | task_.regDirty) >> r) & 1u, 1))
            return task_.regCache[r];
        return firstReadReg(r);
    }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        if (mmioTouched)
            return;   // discard the aborted step's register write
        task_.regCache[r] = v;
        task_.regDirty |= 1u << r;
    }
    uint32_t
    readMem(uint32_t addr) override
    {
        if (isMmio(addr)) {
            mmioTouched = true;
            return 0;   // dummy; the step is discarded
        }
        CellId cell = makeMemCell(addr);
        if (auto v = task_.memOut.get(cell))
            return *v;
        // Live-in capture probes once: the lookup cursor doubles as
        // the insert position for the read-through value.
        StateDelta::Cursor c = task_.memIn.lookup(cell);
        if (c.found)
            return task_.memIn.valueAt(c);
        if (auto v = task_.checkpoint.get(cell)) {
            task_.memIn.insertAt(c, cell, *v);
            return *v;
        }
        uint32_t value = arch_.readMem(addr);
        ++task_.archReads;
        // L1 filter: resident lines are free; misses pay the
        // read-through.
        if (!l1_ || !l1_->access(addr))
            ++archReadsLastStep;
        task_.memIn.insertAt(c, cell, value);
        return value;
    }
    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr) || mmioTouched) {
            mmioTouched = true;
            return;
        }
        task_.memOut.set(makeMemCell(addr), v);
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
    /** A register's first read: checkpoint -> arch, recorded as a
     *  live-in (kept out of line so readReg inlines). */
    __attribute__((noinline)) uint32_t
    firstReadReg(unsigned r)
    {
        uint32_t v;
        if (auto c = task_.checkpoint.getReg(r)) {
            v = *c;
        } else {
            v = arch_.readReg(r);
            ++task_.archReads;
            ++archReadsLastStep;   // the L1 filters memory lines only
        }
        task_.regIn[r] = v;
        task_.regCache[r] = v;
        task_.regInMask |= 1u << r;
        return v;
    }

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
    /** True while this slave has been simulated past cycle @p now (an
     *  epoch ran the head task ahead to its completion): the machine
     *  neither ticks it nor hands it a task until time catches up. */
    bool aheadOf(Cycle now) const { return ready_at_ > now; }
    /** First cycle this slave has not yet simulated (meaningful only
     *  while aheadOf() holds). */
    Cycle readyAt() const { return ready_at_; }
    void setReadyAt(Cycle c) { ready_at_ = c; }
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
     * Used for the cycles in which something crosses cores; between
     * such events the machine calls advance() instead.
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

    /**
     * Advance up to @p cycles cycles in one engine slice, exactly as
     * that many tick() calls at slaveIpc 1.0 with no fault draws, each
     * followed by the machine's release of a completed task, would.
     * Nothing another core does may reach this slave in that span
     * (the machine's epoch rule, DESIGN.md §8). Stops after the cycle
     * in which the task completes, releasing it; an idle or paused
     * slave absorbs all the cycles in bulk.
     *
     * @param executed incremented by the instructions retired
     * @return the cycles simulated
     */
    Cycle advance(Cycle cycles, uint64_t *executed);

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
    /** The non-idle part of tick() (inline: stepCycle calls it once
     *  per busy slave). */
    unsigned tickActive();

    /** Re-check pause/end conditions when new end info arrives. */
    void refreshEndCondition();

    /**
     * Per-step obligations of task execution, expressed as a hook on
     * the reference engine (exec/engine.hh). Ordering mirrors the
     * historical inline loop exactly: MMIO aborts discard the step,
     * halt ends the task with the pc pinned, then arch-read stalls,
     * end-condition arrivals, fork-site pauses and the runaway cap —
     * the last three on the *post-step* pc, and all of them after the
     * instruction retires.
     *
     * Batched (advance()): every attempt costs one cycle of
     * cyclesLeft, and an arch-read stall that ends nothing else is
     * sat out in place instead of ending the slice.
     */
    template <bool Batched>
    struct SlaveHook
    {
        SlaveCore &s;
        Task &t;
        TaskContext &ctx;
        /** Cycles still to simulate (Batched only). */
        Cycle cyclesLeft = 0;
        /** Attempted steps (retired + MMIO-discarded); budget is
         *  charged per attempt, as the historical loop did. */
        uint64_t attempts = 0;

        bool
        preStep(uint32_t, const Instruction &)
        {
            if constexpr (Batched) {
                if (cyclesLeft == 0)
                    return false;
                --cyclesLeft;
            }
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
            if constexpr (Batched) {
                if (v == StepVerdict::Stop)
                    cyclesLeft -= s.sitOutStall(cyclesLeft);
                return StepVerdict::Continue;
            }
            return v;
        }
    };

    /** Spend up to @p cycles of the pending arch-read stall; returns
     *  the cycles spent. */
    Cycle
    sitOutStall(Cycle cycles)
    {
        Cycle n = std::min(stall_, cycles);
        stall_ -= n;
        arch_stall_cycles_ += n;
        return n;
    }

    int id_;
    const ArchState &arch_;
    const MsspConfig &cfg_;
    const ForkSiteSet &fork_site_pcs_;
    DecodeCache &decode_;   ///< shared cache of the original image

    Task *task_ = nullptr;
    std::unique_ptr<Cache> l1_;
    double budget_ = 0.0;
    Cycle stall_ = 0;
    Cycle ready_at_ = 0;

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
    SlaveHook<false> hook{*this, t, ctx};

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

// hot + aligned for the same layout-stability reason as
// executeDecodedOn (exec/executor.hh): the slave's engine loop is
// inlined here.
__attribute__((hot, aligned(64))) inline Cycle
SlaveCore::advance(Cycle cycles, uint64_t *executed)
{
    Cycle used = 0;
    while (used < cycles) {
        if (!task_) {
            idle_cycles_ += cycles - used;
            return cycles;
        }
        Task &t = *task_;
        if (stall_ > 0) {
            used += sitOutStall(cycles - used);
            continue;
        }
        if (t.pausedAtForkSite) {
            refreshEndCondition();
            if (t.pausedAtForkSite) {
                // Only a master fork or halt can reveal the end, and
                // neither happens inside the span.
                pause_cycles_ += cycles - used;
                return cycles;
            }
            if (t.done()) {
                release();
                return used + 1;
            }
        }
        TaskContext ctx(t, arch_, l1_.get());
        SlaveHook<true> hook{*this, t, ctx, cycles - used};
        EngineResult er =
            runRefEngine(decode_, t.pc, UINT64_MAX, ctx, hook);
        used = cycles - hook.cyclesLeft;
        *executed += er.retired;
        t.pc = er.pc;
        if (er.status == StepStatus::Illegal)
            t.end = TaskEnd::Faulted;
        if (t.done()) {
            release();
            return used;
        }
    }
    return used;
}

} // namespace mssp

#endif // MSSP_MSSP_SLAVE_HH
