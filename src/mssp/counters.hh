/**
 * @file
 * The MSSP machine's counters, each declared exactly once.
 *
 * MSSP_COUNTERS is the one list: an X(name, description) entry per
 * counter. It generates the MsspCounters fields, and every rendering
 * walks it through forEachCounter — the `dumpStats` text table and
 * the `BM_MsspMachine` sim_* bench counters. A new counter is one
 * line here plus the increment in the machine.
 */

#ifndef MSSP_MSSP_COUNTERS_HH
#define MSSP_MSSP_COUNTERS_HH

#include <cstdint>

namespace mssp
{

// clang-format off
#define MSSP_COUNTERS(X)                                                  \
    X(tasksForked, "tasks spawned by the master")                         \
    X(tasksCommitted, "tasks committed")                                  \
    X(tasksSquashedLiveIn, "head squashes: live-in mismatch")             \
    X(tasksSquashedWrongPc, "head squashes: start-PC mismatch")           \
    X(tasksSquashedOverrun, "head squashes: runaway task")                \
    X(tasksSquashedCascade, "younger tasks discarded on squash")          \
    X(squashEvents, "squash events")                                      \
    X(watchdogSquashes, "squashes forced by the watchdog")                \
    X(masterInsts, "distilled instructions executed")                     \
    X(slaveInsts, "original instructions executed on slaves")            \
    X(wastedSlaveInsts, "slave instructions discarded by squashes")       \
    X(seqModeInsts, "instructions executed in sequential fallback")       \
    X(seqModeCycles, "cycles spent in sequential fallback")               \
    X(masterStallWindowFull,                                              \
      "cycles the master stalled on a full task window")                  \
    X(liveInCellsChecked, "live-in cells verified at commit")             \
    X(liveInCellsMismatched, "live-in cells that mismatched")             \
    X(archReads, "slave reads satisfied from architected state")          \
    X(seqBackoffEvents, "sequential-backoff episodes")                    \
    X(seqBackoffDecays, "commits that decayed an active backoff")         \
    X(tasksSquashedSpurious, "head squashes: injected spurious squash")   \
    X(watchdogEscalations, "watchdog firings escalated to Seq mode")      \
    X(masterRunawayKills, "masters stopped by the runaway kill-switch")   \
    X(masterDeadRestarts, "fast restarts of a dead master")               \
    X(mmioSerializations, "device accesses serialized non-speculatively") \
    X(l1Hits, "slave L1 hits on read-throughs")                           \
    X(l1Misses, "slave L1 misses on read-throughs")                       \
    X(slaveArchStallCycles, "slave cycles stalled on architected reads")  \
    X(slavePauseCycles, "slave cycles paused awaiting a task end")        \
    X(slaveIdleCycles, "slave cycles with no task")
// clang-format on

/**
 * Aggregated machine statistics, one field per MSSP_COUNTERS entry.
 * The last five (L1 and slave-cycle sums) are gathered from the slaves
 * whenever MsspMachine::counters() is read.
 */
struct MsspCounters
{
#define MSSP_COUNTER_FIELD(name, desc) uint64_t name = 0;
    MSSP_COUNTERS(MSSP_COUNTER_FIELD)
#undef MSSP_COUNTER_FIELD

    bool operator==(const MsspCounters &) const = default;
};

/** Call @p f(name, value, description) for every counter, in
 *  declaration order. */
template <typename F>
void
forEachCounter(const MsspCounters &c, F &&f)
{
#define MSSP_COUNTER_VISIT(name, desc) f(#name, c.name, desc);
    MSSP_COUNTERS(MSSP_COUNTER_VISIT)
#undef MSSP_COUNTER_VISIT
}

} // namespace mssp

#endif // MSSP_MSSP_COUNTERS_HH
