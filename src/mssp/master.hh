/**
 * @file
 * The MSSP master processor.
 *
 * The master executes the *distilled* program against its own
 * speculative register file and write buffer, reading through to
 * architected state for anything it has not written. Its only products
 * are predictions: at each taken FORK it snapshots its write-delta as
 * the checkpoint (predicted live-ins) of a new task.
 *
 * Nothing the master does can affect correctness; it can be stopped,
 * squashed and restarted at any fork-site PC (the entry map).
 */

#ifndef MSSP_MSSP_MASTER_HH
#define MSSP_MSSP_MASTER_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>
#include <memory>

#include "arch/arch_state.hh"
#include "arch/mmio.hh"
#include "arch/state_delta.hh"
#include "distill/distiller.hh"
#include "exec/backend.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/executor.hh"
#include "sim/logging.hh"

namespace mssp
{

/** What a single master step produced. */
enum class MasterStep : uint8_t
{
    Executed,    ///< ordinary instruction
    WantsFork,   ///< at a FORK that should spawn (caller must approve)
    Halted,
    Faulted,
};

/** The master core. */
class MasterCore final : public ExecContext
{
  public:
    /** @p dist must outlive the core (the predecode cache is keyed by
     *  its immutable image). */
    MasterCore(const DistilledProgram &dist, const ArchState &arch)
        : dist_(dist), arch_(arch)
    {
        regs_.fill(0);
    }

    /**
     * (Re)start the master at the distilled block for original PC
     * @p orig_pc, seeding registers from architected state.
     *
     * @retval false when orig_pc is not a restart point
     */
    bool restart(uint32_t orig_pc);

    /** Stop executing (squash); restart() re-engages. */
    void stop() { running_ = false; }

    bool running() const { return running_ && !halted_ && !faulted_; }
    bool halted() const { return halted_; }
    bool faulted() const { return faulted_; }

    /**
     * Peek whether the next instruction is a FORK that must actually
     * spawn a task (first fork after restart, or the fork-interval
     * counter expiring). Used by the machine to stall the master when
     * there is no task capacity instead of half-executing the fork.
     */
    bool nextForkWouldSpawn();

    /**
     * Execute one instruction.
     *
     * If the instruction is a FORK: site-arrival counters always
     * update; when the fork must spawn, *fork_out is filled with the
     * original start PC, the end-condition data for the *previous*
     * task and a checkpoint snapshot, and WantsFork is returned.
     */
    struct ForkInfo
    {
        uint32_t origPc = 0;
        uint32_t endVisitsForPrev = 1;
        std::shared_ptr<const StateDelta> checkpoint;
    };
    /** Inline: called once per master instruction on the machine's
     *  per-cycle loop; the FORK case is out of line (stepFork). */
    MasterStep
    step(ForkInfo *fork_out)
    {
        MSSP_ASSERT(running());
        const Instruction &inst = decode_.at(pc_);
        if (inst.op == Opcode::Fork)
            return stepFork(inst, fork_out);

        StepResult res = executeDecodedOn(pc_, inst, *this);

        if (res.status == StepStatus::Ok && inst.op == Opcode::Jalr &&
            res.nextPc < DistilledCodeBase &&
            !translateJalr(res)) {
            faulted_ = true;
            return MasterStep::Faulted;
        }

        switch (res.status) {
          case StepStatus::Ok:
            pc_ = res.nextPc;
            ++total_insts_;
            ++insts_since_restart_;
            return MasterStep::Executed;
          case StepStatus::Halted:
            halted_ = true;
            ++total_insts_;
            ++insts_since_restart_;
            return MasterStep::Halted;
          case StepStatus::Illegal:
          default:
            faulted_ = true;
            return MasterStep::Faulted;
        }
    }

    /**
     * Execute up to @p max_steps instructions on the selected
     * execution tier, stopping *in front of* the first FORK (the
     * machine must gate fork capacity before step() executes it).
     * Counters update exactly as per-step execution would.
     *
     * @return Halted/Faulted as step() would; Executed when stopped
     *         at a FORK or by the budget. *executed gets the retired
     *         instruction count.
     */
    MasterStep runSlice(unsigned max_steps, unsigned *executed);

    /** @return true when the next instruction is a FORK (the one
     *  case runSlice cannot make progress on). */
    bool atFork() { return decode_.at(pc_).op == Opcode::Fork; }

    /** Arrivals required at site i before it spawns (per-site
     *  interval times the machine-wide fork interval). */
    uint32_t requiredArrivals(uint32_t task_map_index) const;

    /** Instructions executed since the last restart. */
    uint64_t instsSinceRestart() const { return insts_since_restart_; }

    /** Total instructions executed (all epochs). */
    uint64_t totalInsts() const { return total_insts_; }

    /** Current write-delta size (checkpoint cost model + tests):
     *  buffered memory writes plus dirty registers. */
    size_t
    deltaSize() const
    {
        return delta_.size() +
               static_cast<size_t>(__builtin_popcount(dirty_regs_));
    }

    /**
     * Drop delta entries whose value equals current architected state
     * (sound: read-through would return the same value, and younger
     * commits are verified against live-ins anyway). Keeps checkpoint
     * snapshots small; called by the machine after commits.
     */
    void sweepDeltaAgainstArch(size_t max_cells);

    uint32_t pc() const { return pc_; }

    // -- Fault-injection surface (src/fault/) -----------------------------
    // Nothing the master does can affect correctness, so corrupting it
    // is always safe; these exist so campaigns corrupt *exactly* the
    // state a flaky core would, through one auditable door.

    /** Flip bits of register @p r (marks it dirty: the corruption
     *  propagates into the next checkpoint, as real damage would). */
    void
    corruptReg(unsigned r, uint32_t xor_mask)
    {
        if (r == 0 || r >= NumRegs)
            return;
        regs_[r] ^= xor_mask;
        dirty_regs_ |= 1u << r;
    }

    /** Redirect the PC (wild jump within the private I-space). */
    void corruptPc(uint32_t pc) { pc_ = pc; }

    /** Invalidate the predecoded page holding @p pc after the machine
     *  patches a distilled-image word at runtime. */
    void invalidateDecode(uint32_t pc) { decode_.invalidate(pc); }

    // -- ExecContext ------------------------------------------------------
    uint32_t readReg(unsigned r) override { return regs_[r]; }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        // Register writes only flip a dirty bit; the write-delta map
        // holds memory cells. Register cells are materialized from
        // regs_ + dirty_regs_ when a checkpoint is snapshotted.
        regs_[r] = v;
        dirty_regs_ |= 1u << r;
    }
    uint32_t
    readMem(uint32_t addr) override
    {
        // The master must never touch non-idempotent device state; a
        // zero prediction is as good as any (verification protects).
        if (isMmio(addr))
            return 0;
        if (auto v = delta_.get(makeMemCell(addr)))
            return *v;
        return arch_.readMem(addr);
    }
    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr))
            return;   // device writes are real side effects: drop
        delta_.set(makeMemCell(addr), v);
    }
    uint32_t
    fetch(uint32_t pc) override
    {
        // The distilled image is the master's private I-space.
        return dist_.prog.word(pc);
    }
    void output(uint16_t, uint32_t) override
    {
        // Master outputs are predictions, never observable.
    }

  private:
    const DistilledProgram &dist_;
    const ArchState &arch_;
    /** Predecode cache over the distilled image (private I-space). */
    DecodeCache decode_{dist_.prog};

    /** Build the checkpoint snapshot: buffered memory writes plus
     *  every dirty register's current value. */
    std::shared_ptr<const StateDelta> snapshotCheckpoint() const;

    /** The FORK case of step() (arrival counting + spawn decision). */
    MasterStep stepFork(const Instruction &inst, ForkInfo *fork_out);

    /** Map an indirect jump into original code back into the
     *  distilled image. @retval false when there is no mapping. */
    bool translateJalr(StepResult &res);

    /** Engine hook for runSlice: stop in front of FORKs, apply the
     *  jalr translation, and fault (Discard) when it has no mapping —
     *  byte-identical to the per-step step() path. */
    struct SliceHook
    {
        MasterCore &m;
        bool translationFault = false;

        bool preStep(uint32_t, const Instruction &inst)
        {
            return inst.op != Opcode::Fork;
        }

        StepVerdict postStep(uint32_t, StepResult &res)
        {
            if (res.status == StepStatus::Ok &&
                res.inst.op == Opcode::Jalr &&
                res.nextPc < DistilledCodeBase && !m.translateJalr(res)) {
                translationFault = true;
                return StepVerdict::Discard;
            }
            return StepVerdict::Continue;
        }
    };

    std::array<uint32_t, NumRegs> regs_;
    uint32_t pc_ = 0;
    /** Buffered *memory* writes since restart (registers are tracked
     *  by dirty_regs_ and live in regs_). */
    StateDelta delta_;
    /** Bit r set: register r was written since the last restart and
     *  its value differs (conservatively) from architected state. */
    uint32_t dirty_regs_ = 0;

    bool running_ = false;
    bool halted_ = false;
    bool faulted_ = false;
    bool first_fork_pending_ = false;

    /** Arrivals per fork-site original PC since the last spawn. The
     *  handful of live sites makes a linearly-scanned flat vector
     *  cheaper than a node-based map (no allocation per fork). */
    std::vector<std::pair<uint32_t, uint32_t>> site_arrivals_;

    /** Arrival count for @p orig_pc (0 when never seen). */
    uint32_t
    siteArrivals(uint32_t orig_pc) const
    {
        for (const auto &[pc, count] : site_arrivals_) {
            if (pc == orig_pc)
                return count;
        }
        return 0;
    }

    /** Record one arrival at @p orig_pc; returns the new count. */
    uint32_t
    bumpSiteArrivals(uint32_t orig_pc)
    {
        for (auto &[pc, count] : site_arrivals_) {
            if (pc == orig_pc)
                return ++count;
        }
        site_arrivals_.push_back({orig_pc, 1});
        return 1;
    }
    /** Fork-site executions since the last spawn (interval policy). */
    unsigned forks_seen_since_spawn_ = 0;
    unsigned fork_interval_ = 1;

    uint64_t insts_since_restart_ = 0;
    uint64_t total_insts_ = 0;

    friend class MsspMachine;

  public:
    void setForkInterval(unsigned k) { fork_interval_ = k ? k : 1; }
};

} // namespace mssp

#endif // MSSP_MSSP_MASTER_HH
