/**
 * @file
 * The MSSP master processor.
 *
 * The master executes the *distilled* program against its own
 * speculative register file and write buffer, reading through to
 * architected state for anything it has not written. Its only products
 * are predictions: at each taken FORK it hands a new task a checkpoint
 * (predicted live-ins) of its write buffer — a view of its versioned
 * write journal as of the fork (mssp/checkpoint.hh), not a copy.
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
#include "distill/distiller.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/engine.hh"
#include "exec/executor.hh"
#include "mssp/checkpoint.hh"
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
        : dist_(dist), arch_(arch),
          journal_(std::make_shared<WriteJournal>())
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
     * task and the new task's checkpoint, and WantsFork is returned.
     */
    struct ForkInfo
    {
        uint32_t origPc = 0;
        uint32_t endVisitsForPrev = 1;
        /** The write buffer and dirty registers as of this fork; later
         *  master writes do not show through it. */
        Checkpoint checkpoint;
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
     * Execute up to @p max_steps instructions on the reference
     * engine, stopping *in front of* the first FORK (the
     * machine must gate fork capacity before step() executes it).
     * Counters update exactly as per-step execution would.
     *
     * @return Halted/Faulted as step() would; Executed when stopped
     *         at a FORK or by the budget. *executed gets the retired
     *         instruction count.
     */
    MasterStep runSlice(unsigned max_steps, unsigned *executed);

    /**
     * Epoch form of runSlice: execute up to @p max_steps instructions
     * but stop *in front of* every instruction that is an event for
     * the machine — a FORK that spawns (or is corrupt), a HALT, or an
     * attempt that would fault (an illegal word, a failing ALU op, a
     * JALR into unmapped original code). The master is left exactly
     * as before that instruction, so the machine's per-cycle step
     * executes it. A FORK that only counts an arrival runs inline,
     * exactly as step() would run it.
     *
     * @return instructions retired (== max_steps unless an event
     *         instruction is next)
     */
    uint64_t runToEvent(uint64_t max_steps);

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

    /** Current write-buffer size: buffered memory cells plus dirty
     *  registers (the cell count of a checkpoint taken now, and the
     *  sweep threshold's measure). */
    size_t
    deltaSize() const
    {
        return journal_->cells() +
               static_cast<size_t>(__builtin_popcount(dirty_regs_));
    }

    /**
     * Once the write buffer holds more than @p max_cells cells, drop
     * those whose value equals current architected state (sound:
     * read-through would return the same value, and younger commits
     * are verified against live-ins anyway). Keeps checkpoints small;
     * called by the machine after commits. Memory cells are dropped
     * by compacting into a fresh journal, and only when at least one
     * cell drops.
     */
    void sweepDeltaAgainstArch(size_t max_cells);

    /** The journal holding the buffered memory writes (identity
     *  tests: compaction replaces it). */
    const WriteJournal *journal() const { return journal_.get(); }

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
        // Register writes only flip a dirty bit; the journal holds
        // memory cells. A checkpoint copies regs_ + dirty_regs_.
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
        if (auto v = journal_->get(makeMemCell(addr)))
            return *v;
        return arch_.readMem(addr);
    }
    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr))
            return;   // device writes are real side effects: drop
        journal_->write(makeMemCell(addr), v);
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

    /** Build the checkpoint of a fork: seal the journal's open epoch
     *  (compacting it first when it holds mostly dead versions) and
     *  copy the dirty registers. O(1) in the write-buffer size apart
     *  from amortized compaction. */
    Checkpoint snapshotCheckpoint();

    /** Dead versions a journal may hold beyond its live cells before
     *  a fork compacts it. */
    static constexpr size_t MinCompactVersions = 64;

    /** Replace the journal with a fresh one holding only current
     *  values, minus those equal to architected state when
     *  @p drop_arch_equal. Checkpoints keep the old one, frozen. */
    void compactJournal(bool drop_arch_equal);

    /** The FORK case of step() (arrival counting + spawn decision). */
    MasterStep stepFork(const Instruction &inst, ForkInfo *fork_out);

    /** Map an indirect jump into original code back into the
     *  distilled image. @retval false when there is no mapping. */
    bool translateJalr(StepResult &res);

    /** True when FORK @p inst would spawn a task now (false for a
     *  corrupt FORK, which faults instead). */
    bool forkWouldSpawn(const Instruction &inst) const;

    /** True when FORK @p inst only counts an arrival: a valid site
     *  whose spawn interval has not run out. */
    bool
    forkIsSilent(const Instruction &inst) const
    {
        return static_cast<uint32_t>(inst.imm) < dist_.taskMap.size() &&
               !forkWouldSpawn(inst);
    }

    /** The effect of a silent FORK, as stepFork applies it. */
    void
    countSilentFork(const Instruction &inst)
    {
        bumpSiteArrivals(dist_.taskMap[static_cast<uint32_t>(inst.imm)]);
        ++forks_seen_since_spawn_;
    }

    /** True when a JALR at the current state would jump into
     *  original code the address map cannot translate. */
    bool
    jalrWouldFault(const Instruction &inst) const
    {
        uint32_t target = (inst.rs1 ? regs_[inst.rs1] : 0) +
                          static_cast<uint32_t>(inst.imm);
        return target < DistilledCodeBase && !dist_.addrMap.count(target);
    }

    /** Engine hook for runSlice: stop in front of FORKs, apply the
     *  jalr translation, and fault (Discard) when it has no mapping —
     *  byte-identical to the per-step step() path. ToEvent
     *  (runToEvent) runs silent FORKs inline instead, and also stops
     *  in front of HALTs and untranslatable JALRs. */
    template <bool ToEvent>
    struct SliceHook
    {
        MasterCore &m;
        bool translationFault = false;

        bool preStep(uint32_t, const Instruction &inst)
        {
            if constexpr (ToEvent) {
                switch (inst.op) {
                  case Opcode::Halt:
                    return false;
                  case Opcode::Jalr:
                    return !m.jalrWouldFault(inst);
                  case Opcode::Fork:
                    return m.forkIsSilent(inst);
                  default:
                    return true;
                }
            }
            return inst.op != Opcode::Fork;
        }

        StepVerdict postStep(uint32_t, StepResult &res)
        {
            if constexpr (ToEvent) {
                if (res.inst.op == Opcode::Fork) {
                    m.countSilentFork(res.inst);
                    return StepVerdict::Continue;
                }
            }
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
    /** Buffered *memory* writes since restart, shared with every
     *  checkpoint taken from it (registers are tracked by dirty_regs_
     *  and live in regs_). */
    std::shared_ptr<WriteJournal> journal_;
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
