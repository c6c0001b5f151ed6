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

    /** Values actually consumed, recorded at first read. */
    StateDelta liveIn;
    /** Values produced (local write buffer). */
    StateDelta liveOut;
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

    // -- Register fast path (pure optimization) -------------------------
    /** When bit r of regValid is set, regCache[r] holds the value the
     *  task currently observes for register r (its live-out if it has
     *  written r, otherwise its recorded live-in). Lets the slave skip
     *  the delta-map probes on repeat register accesses; the
     *  authoritative record stays in liveIn/liveOut. */
    std::array<uint32_t, NumRegs> regCache{};
    uint32_t regValid = 0;

    bool
    done() const
    {
        return end != TaskEnd::None;
    }

    /**
     * Return the task to its freshly-constructed state, keeping the
     * flat maps' (and output buffer's) allocated capacity so recycled
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
        liveIn.clear();
        liveOut.clear();
        outputs.clear();
        pc = 0;
        visits = 0;
        instCount = 0;
        end = TaskEnd::None;
        pausedAtForkSite = false;
        slaveId = -1;
        archReads = 0;
        regValid = 0;   // regCache is guarded by regValid bits
    }
};

} // namespace mssp

#endif // MSSP_MSSP_TASK_HH
