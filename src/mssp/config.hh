/**
 * @file
 * MSSP machine configuration (the paper's Table 1 analogue).
 */

#ifndef MSSP_MSSP_CONFIG_HH
#define MSSP_MSSP_CONFIG_HH

#include <cstdint>
#include <string>

#include "mem/cache.hh"
#include "sim/cycle.hh"

namespace mssp
{

/** All timing and policy knobs of the simulated MSSP machine. */
struct MsspConfig
{
    /** Number of slave processors. */
    unsigned numSlaves = 8;

    /** Maximum in-flight (uncommitted) tasks, including running. */
    unsigned maxInFlightTasks = 16;

    /** Cycles for a checkpoint to travel master -> slave. */
    Cycle forkLatency = 8;

    /** Verify/commit unit occupancy per committed task. */
    Cycle commitLatency = 8;

    /** Cycles to squash and restart the master from arch state. */
    Cycle squashPenalty = 16;

    /** Slave read-through latency to architected (L2) state. */
    Cycle archReadLatency = 2;

    /** Model a private L1 on each slave: memory read-throughs that
     *  hit a resident line are free; misses pay archReadLatency. The
     *  L1 holds speculative lines and is flash-invalidated whenever
     *  speculative state is discarded, as in the paper. */
    bool useSlaveL1 = true;
    CacheConfig slaveL1;

    /** Instructions per cycle of the master / slaves / baseline. */
    double masterIpc = 1.0;
    double slaveIpc = 1.0;

    /** Fork every k-th fork-site visit (task merging, >= 1). */
    unsigned forkInterval = 1;

    /** Speculative-task runaway cap (instructions). */
    uint64_t maxTaskInsts = 4000;

    /** Squash if no commit progress for this many cycles. */
    Cycle watchdogCycles = 20000;

    /**
     * After this many *consecutive* watchdog squashes (no commit in
     * between), the watchdog escalates: it forces a sequential-backoff
     * burst immediately instead of letting the master retry. Bounds
     * squash storms from masters that run but never produce a
     * verifiable task (a fault-campaign lesson; §6 of DESIGN.md).
     */
    unsigned watchdogEscalateAfter = 3;

    /**
     * Master runaway kill-switch: stop the master once it has executed
     * this many instructions since its last spawned fork. The watchdog
     * cannot catch this case while older tasks are still committing
     * (every commit resets it), so a corrupted master could otherwise
     * spin forever without forking. 0 disables.
     */
    uint64_t masterRunawayInsts = 100000;

    /** Consecutive failed master engagements before the machine backs
     *  off to sequential execution for a while. */
    unsigned maxEngageFailures = 4;

    /** Initial sequential-backoff length (instructions); doubles on
     *  repeated failure bursts, halves on every commit. */
    uint64_t seqBackoffInsts = 2048;

    /** Upper bound on the sequential backoff. */
    uint64_t maxSeqBackoffInsts = 1 << 20;

    /** Sweep the master write-delta against architected state when it
     *  grows beyond this many cells (keeps checkpoints small). */
    size_t checkpointSweepCells = 4096;

    std::string toString() const;
};

} // namespace mssp

#endif // MSSP_MSSP_CONFIG_HH
