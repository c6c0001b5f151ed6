/**
 * @file
 * MSSP tasks.
 *
 * A task is the unit of speculative work: a segment of the *original*
 * program, started at a master-predicted PC with master-predicted
 * live-in values, executed on a slave, and committed (or discarded) by
 * the verify/commit unit. This realizes the formal model's
 * 4-tuple <S_in, n, S_out, k> plus the bookkeeping a real machine
 * needs (end condition, outputs, attribution).
 */

#ifndef MSSP_MSSP_TASK_HH
#define MSSP_MSSP_TASK_HH

#include <array>
#include <cstdint>

#include "arch/arch_state.hh"
#include "arch/state_delta.hh"
#include "exec/context.hh"
#include "isa/isa.hh"
#include "mssp/checkpoint.hh"

namespace mssp
{

/** Why a task stopped executing. */
enum class TaskEnd : uint8_t
{
    None,         ///< still running (or paused)
    ReachedEnd,   ///< hit its end PC the required number of times
    Halted,       ///< executed HALT
    Faulted,      ///< illegal instruction
    Overrun,      ///< exceeded the runaway cap
    MmioStop,     ///< stopped *before* a device access (non-idempotent
                  ///  state must not be touched speculatively)
};

/** Commit-time outcome (for stats). */
enum class TaskOutcome : uint8_t
{
    Committed,
    SquashedLiveIn,    ///< live-in values mismatched architected state
    SquashedWrongPc,   ///< start PC mismatched architected PC
    SquashedOverrun,
    SquashedCascade,   ///< discarded because an older task squashed
    SquashedSpurious,  ///< fault-injected squash of a verifying task
};

/** One speculative task. */
struct Task
{
    uint64_t id = 0;

    /** Predicted start PC in the original program. */
    uint32_t startPc = 0;

    // -- End condition (set when the master forks the next task) ------
    bool endKnown = false;
    /** Original PC at which the task ends... */
    uint32_t endPc = 0;
    /** ...on this arrival count (visit counting, DESIGN.md §1). */
    uint32_t endVisits = 1;
    /** When true, ignore fork-site pauses and run to HALT (the master
     *  halted cleanly, so this is the program's final task). */
    bool runToHalt = false;

    /** Master-predicted live-ins (diff against architected state). */
    Checkpoint checkpoint;

    // -- Live-ins and live-outs ------------------------------------------
    // A task's live-in set is regIn under regInMask plus memIn; its
    // live-out set is regCache under regDirty plus memOut. Walk them
    // with forEachLiveIn()/forEachLiveOut().

    /** Memory cells consumed, recorded at first read. */
    StateDelta memIn;
    /** Memory cells produced (local write buffer). */
    StateDelta memOut;
    /** Buffered program outputs, released at commit. */
    OutputStream outputs;

    // -- Execution state ------------------------------------------------
    uint32_t pc = 0;
    uint32_t visits = 0;        ///< arrivals at endPc so far
    uint64_t instCount = 0;
    TaskEnd end = TaskEnd::None;
    /** Waiting at a fork-site PC until the end condition is known. */
    bool pausedAtForkSite = false;
    int slaveId = -1;

    /** Number of reads that went through to architected state. */
    uint64_t archReads = 0;

    // -- Register file ----------------------------------------------------
    /** Register live-ins: regIn[r] is the value of the task's first
     *  read of r when bit r of regInMask is set. */
    std::array<uint32_t, NumRegs> regIn{};
    uint32_t regInMask = 0;
    /** The value the task currently observes for every register it
     *  has touched (bit r set in regInMask | regDirty): its last write
     *  when bit r of regDirty is set (a live-out), else its live-in. */
    std::array<uint32_t, NumRegs> regCache{};
    uint32_t regDirty = 0;

    bool
    done() const
    {
        return end != TaskEnd::None;
    }

    /** Call @p fn(cell, value) for every live-in binding. */
    template <class Fn>
    void
    forEachLiveIn(Fn &&fn) const
    {
        for (uint32_t m = regInMask; m; m &= m - 1) {
            unsigned r = static_cast<unsigned>(__builtin_ctz(m));
            fn(makeRegCell(r), regIn[r]);
        }
        for (const auto &[cell, value] : memIn)
            fn(cell, value);
    }

    /** Call @p fn(cell, value) for every live-out binding. */
    template <class Fn>
    void
    forEachLiveOut(Fn &&fn) const
    {
        for (uint32_t m = regDirty; m; m &= m - 1) {
            unsigned r = static_cast<unsigned>(__builtin_ctz(m));
            fn(makeRegCell(r), regCache[r]);
        }
        for (const auto &[cell, value] : memOut)
            fn(cell, value);
    }

    /** Live-in cells recorded (the liveInCells stat). */
    size_t
    liveInCells() const
    {
        return static_cast<size_t>(__builtin_popcount(regInMask)) +
               memIn.size();
    }

    /** Live-in bindings that disagree with @p arch: the task verifies
     *  iff this is 0 (live-in ⊑ arch, in the formal model's terms). */
    uint64_t
    liveInMismatches(const ArchState &arch) const
    {
        uint64_t n = 0;
        forEachLiveIn([&](CellId cell, uint32_t value) {
            n += arch.readCell(cell) != value;
        });
        return n;
    }

    /** Commit: superimpose the live-outs onto @p arch. */
    void
    applyLiveOut(ArchState &arch) const
    {
        forEachLiveOut([&](CellId cell, uint32_t value) {
            arch.writeCell(cell, value);
        });
    }

    /**
     * Return the task to its freshly-constructed state, keeping the
     * memory maps' (and output buffer's) allocated capacity so recycled
     * tasks skip the early grow-rehash churn entirely.
     */
    void
    reset()
    {
        id = 0;
        startPc = 0;
        endKnown = false;
        endPc = 0;
        endVisits = 1;
        runToHalt = false;
        checkpoint = Checkpoint{};
        memIn.clear();
        memOut.clear();
        outputs.clear();
        pc = 0;
        visits = 0;
        instCount = 0;
        end = TaskEnd::None;
        pausedAtForkSite = false;
        slaveId = -1;
        archReads = 0;
        // regIn and regCache are guarded by their masks.
        regInMask = 0;
        regDirty = 0;
    }
};

} // namespace mssp

#endif // MSSP_MSSP_TASK_HH
