/**
 * @file
 * The MSSP machine: master + slaves + verify/commit unit + recovery.
 *
 * Execution alternates between two modes, mirroring the paper's
 * dual-mode design:
 *
 *  - Spec: the master runs the distilled program and forks tasks;
 *    slaves execute them; the commit unit verifies and commits them in
 *    order. A verification failure squashes all speculative state
 *    (architected state is untouched) and restarts the master from the
 *    architected PC.
 *  - Seq: when the master cannot be (re)engaged — the architected PC
 *    is not a restart point, or speculation keeps failing — the
 *    machine executes the original program directly against
 *    architected state, re-engaging the master at the next fork-site
 *    PC it passes. This guarantees forward progress regardless of what
 *    the distilled program does.
 *
 * The first task the master forks after any (re)start begins exactly
 * at the architected PC with an empty checkpoint, so its live-ins are
 * read straight from architected state and it always verifies: that
 * task *is* the paper's non-speculative recovery task.
 */

#ifndef MSSP_MSSP_MACHINE_HH
#define MSSP_MSSP_MACHINE_HH

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "arch/arch_state.hh"
#include "asm/program.hh"
#include "distill/distiller.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "mssp/config.hh"
#include "mssp/counters.hh"
#include "mssp/fork_sites.hh"
#include "mssp/master.hh"
#include "mssp/slave.hh"
#include "mssp/task.hh"
#include "sim/cycle.hh"
#include "stats/stats.hh"

namespace mssp
{

class FaultInjector;
enum class FaultType : uint8_t;

/** Why a run ended (one authoritative reason, not three bools). */
enum class StopReason : uint8_t
{
    Halted,              ///< program ran to completion
    Faulted,             ///< program genuinely faulted
    TimedOut,            ///< hit the cycle limit while making progress
    WatchdogExhausted,   ///< hit the cycle limit mid watchdog storm
};

/** "halted" / "faulted" / "timed-out" / "watchdog-exhausted". */
const char *toString(StopReason r);

/**
 * Per-fork-site engage/squash attribution. Keyed by the *original*
 * fork-site PC (the task's startPc); squashes charge the site whose
 * task headed the window when verification failed. This is the
 * feedback signal the online adaptation loop (eval/adapt.hh) turns
 * into de-speculation decisions.
 */
struct ForkSiteStat
{
    uint64_t forked = 0;          ///< tasks spawned at this site
    uint64_t committed = 0;       ///< tasks verified and committed
    uint64_t squashedLiveIn = 0;  ///< live-in mismatches
    uint64_t squashedWrongPc = 0; ///< start-PC mismatches
    uint64_t squashedOther = 0;   ///< overrun / spurious / watchdog

    uint64_t
    squashed() const
    {
        return squashedLiveIn + squashedWrongPc + squashedOther;
    }

    /** Squash fraction of verification attempts (0 when none). */
    double
    squashRate() const
    {
        uint64_t attempts = committed + squashed();
        return attempts ? static_cast<double>(squashed()) /
                              static_cast<double>(attempts)
                        : 0.0;
    }
};

/** Result of an MSSP run. */
struct MsspResult
{
    StopReason stopReason = StopReason::TimedOut;
    /** Shorthand for `stopReason == StopReason::Halted`. */
    bool halted = false;
    uint64_t cycles = 0;
    uint64_t committedInsts = 0;
    OutputStream outputs;
    /** Original fork-site PC -> engage/squash attribution. */
    std::map<uint32_t, ForkSiteStat> siteStats;
};

/** Why an epoch step fell back to the cycle-stepped loop. */
enum class EpochFallback : uint8_t
{
    Ipc,          ///< masterIpc or slaveIpc is not 1.0
    FaultDraws,   ///< two per-cycle fault plans draw, or one may hit
    Undelivered,  ///< a spawned task is still waiting for a slave
    OpenHead,     ///< the running head task's end is still unknown
};

constexpr size_t NumEpochFallbacks = 4;

/** "ipc" / "fault-draws" / "undelivered" / "open-head". */
const char *toString(EpochFallback r);

/**
 * Host-side counts of the epoch rule (DESIGN.md §8). Deliberately
 * outside MSSP_COUNTERS: they describe how the simulator advanced,
 * not what the simulated machine did, so no output byte depends on
 * them.
 */
struct EpochStats
{
    /** Epoch steps that advanced at least one cycle. */
    uint64_t epochs = 0;
    /** Cycles those steps advanced (the rest went through stepCycle). */
    uint64_t batchedCycles = 0;
    /** Epoch steps refused, by reason. */
    std::array<uint64_t, NumEpochFallbacks> fallbacks{};

    uint64_t
    fallback(EpochFallback r) const
    {
        return fallbacks[static_cast<size_t>(r)];
    }
};

/** The full MSSP chip-multiprocessor model. */
class MsspMachine
{
  public:
    /**
     * @param orig the original program (loaded into architected state)
     * @param dist its distilled companion
     * @param cfg  machine configuration
     */
    MsspMachine(const Program &orig, const DistilledProgram &dist,
                const MsspConfig &cfg);

    /**
     * Run until the program halts/faults or @p max_cycles elapse.
     * May be called repeatedly to continue an unfinished run.
     *
     * Between cross-core events the machine advances every core in
     * one slice up to the next event (the epoch rule, DESIGN.md §8);
     * the result is cycle-identical to runCycleStepped().
     */
    MsspResult run(uint64_t max_cycles);

    /**
     * The reference semantics of run(): one stepCycle() per simulated
     * cycle, nothing batched. Exists so tests can hold run() to it in
     * lockstep (tests/test_machine_epochs.cpp); it is several times
     * slower.
     */
    MsspResult runCycleStepped(uint64_t max_cycles);

    /** How run() advanced so far (host-side; see EpochStats). */
    const EpochStats &epochStats() const { return epoch_stats_; }

    const ArchState &arch() const { return arch_; }
    const MsspConfig &config() const { return cfg_; }
    /** Current simulation time (valid inside hooks). */
    Cycle now() const { return now_; }
    /** Every counter as of now, the slave sums included (valid
     *  inside hooks too). */
    MsspCounters counters() const;
    const OutputStream &outputs() const { return outputs_; }

    /** Mean committed task size in instructions. */
    double meanTaskSize() const;

    /** Mean checkpoint size at fork in cells (checkpointCells). */
    double meanCheckpointCells() const;

    /** Dump a gem5-style statistics table: every counter, the fault
     *  injector's counts when one is attached, and the histograms. */
    void dumpStats(std::ostream &os) const;

    /**
     * Attach a fault injector (nullptr detaches). Non-owning; the
     * injector must outlive the run. Every consultation site is
     * guarded by this single pointer check, so a detached machine
     * pays one predictable branch per hook — see the BM_MsspMachine
     * A/B in EXPERIMENTS.md.
     */
    void setFaultInjector(FaultInjector *injector);

    /** Current sequential-backoff length (tests/diagnostics). */
    uint64_t currentSeqBackoff() const { return seq_backoff_; }

    /** Committed-task observer hook (used by the task-safety tests):
     *  called with each task right before its live-outs commit. */
    using CommitHook = std::function<void(const Task &,
                                          const ArchState &)>;
    void setCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

  private:
    enum class Mode : uint8_t { Spec, Seq, Restarting };

    /** Shared loop of run() and runCycleStepped(). */
    MsspResult runLoop(uint64_t max_cycles, bool batched);
    /** Simulate cycle now_ unit by unit and advance now_ (not when a
     *  commit halts or faults the program: the run ends at now_). */
    void stepCycle();
    /**
     * The epoch step: when batching is exact, advance every core
     * through [now_, E) in one slice each, E being the next cycle at
     * which anything crosses cores, and set now_ = E. Leaves now_
     * unchanged when cycle now_ itself is an event or a fallback
     * applies.
     */
    void advanceEpoch(Cycle max_cycles);
    /** The per-cycle fault draws an epoch from now_ stands for. */
    struct EpochDraws
    {
        /** The lone armed per-cycle plan drawing at now_ (None when
         *  nothing draws). */
        FaultType type{};
        /** First cycle whose draws may hit (stepped, never batched). */
        Cycle limit = ~Cycle{0};
        /** Slave plans: the slaves targeted, and the sum of their
         *  idle cycles at now_ (draws = busy slave-cycles). */
        unsigned slaves = 0;
        uint64_t idle = 0;
    };

    /** The reason batching cannot be exact at now_, if any; otherwise
     *  the fault draws the epoch must stop short of and skip. */
    bool epochFallback(EpochFallback *reason, EpochDraws *draws);
    /** False when fault draws force a stepped cycle at now_: two
     *  per-cycle plans draw, or the lone one may hit now. */
    bool planEpochDraws(EpochDraws *draws);
    /** True when per-cycle plan @p t draws at now_. */
    bool drawsNow(FaultType t);
    /** Idle cycles summed over the slaves plan @p t targets. */
    uint64_t targetedIdleCycles(FaultType t) const;
    /** The earliest event known before any core runs. */
    Cycle staticHorizon(Cycle max_cycles) const;
    /** Seq-mode epoch: one slice up to @p horizon, ending early at a
     *  re-engage point or the end of the program. */
    void advanceSeqEpoch(Cycle horizon);
    /** One Seq-mode engine slice of at most @p max_attempts attempts
     *  on architected state. Sets halted_/faulted_ and @p engage (a
     *  re-engage point is next); returns the attempts spent. */
    uint64_t runSeqSlice(uint64_t max_attempts, bool *engage);
    /** Advance every slave not yet at @p until up to it. */
    void advanceSlaves(Cycle until);

    void tickCommit();
    void tickSpawnDelivery();
    void tickSlaves();
    void tickMaster();
    void tickSeq();
    void checkWatchdog();

    void squash(TaskOutcome reason);
    void engageMaster();
    void commitFront();
    /** Count a failed engagement; escalate to Seq backoff past the
     *  limit (shared by squash() and the master-dead fast path). */
    void noteEngageFailure();
    /** Master dead (faulted/killed/halted-without-final-task) with an
     *  empty pipeline: restart now instead of waiting for the
     *  watchdog to notice the silence. */
    void noteMasterDead();
    /** Fault hooks (only reached with an injector attached). */
    void injectMasterFaults();
    void injectSlaveFaults();
    /** Get a fresh (or recycled) task shell. */
    std::unique_ptr<Task> allocTask();
    /** Return a retired task shell to the pool. */
    void recycleTask(std::unique_ptr<Task> task);
    /** Discard every speculative task (slaves released, L1s
     *  invalidated, work counted as wasted), stop the master and
     *  restart after the squash penalty. Shared by squash() and
     *  serializeSpeculation(). */
    void dropSpeculation();
    /** Drop speculative state to serialize a device access; unlike
     *  squash(), this is planned work, not a failure. */
    void serializeSpeculation();

    /** The youngest (most recently forked) in-flight task. */
    Task *youngest() { return window_.empty() ? nullptr
                                              : window_.back().get(); }

    // -- Construction-ordered members (arch before master!) -------------
    MsspConfig cfg_;
    Program orig_;
    DistilledProgram dist_;
    ArchState arch_;
    MmioDevice device_;
    MasterCore master_;
    /** Predecode cache of the original image, shared by all slaves
     *  and the sequential fallback (code is immutable). */
    DecodeCache orig_decode_{orig_};
    ForkSiteSet fork_site_pcs_;
    /** Slaves live by value: stepCycle ticks each one, and an epoch
     *  step advances each one in a single slice. */
    std::vector<SlaveCore> slaves_;

    std::deque<std::unique_ptr<Task>> window_;   ///< fork order
    std::deque<Task *> arrived_;   ///< spawned, awaiting a slave

    /** An in-flight fork: the task reaches a slave at cycle @c due. */
    struct PendingSpawn
    {
        Cycle due;
        Task *task;
    };
    /** Forked tasks in transit (FIFO: fork order, fixed latency).
     *  Replaces a generic event queue on the once-per-fork path.
     *  Injected SpawnDelay faults can make a head entry due later
     *  than its successors; delivery then head-of-line blocks, like
     *  a congested interconnect would. */
    std::deque<PendingSpawn> spawn_queue_;

    /** Retired Task shells for reuse (their maps keep capacity). */
    std::vector<std::unique_ptr<Task>> task_pool_;

    Mode mode_ = Mode::Restarting;
    Cycle restart_at_ = 0;
    Cycle now_ = 0;
    /** First cycle the commit unit may act on the head task: its
     *  occupancy after the last commit, or, when an epoch ran the head
     *  ahead to completion at cycle c, c + 1. */
    Cycle commit_busy_until_ = 0;
    Cycle last_commit_cycle_ = 0;
    unsigned engage_failures_ = 0;
    /** Watchdog firings since the last commit (escalation trigger). */
    unsigned consecutive_watchdog_ = 0;
    /** Master inst count at its last spawned fork (runaway switch). */
    uint64_t master_insts_at_last_fork_ = 0;
    /** Current sequential-backoff length (0 = no backoff active). */
    uint64_t seq_backoff_ = 0;
    /** Instructions left to execute sequentially before the machine
     *  may try to re-engage the master. */
    uint64_t seq_insts_remaining_ = 0;
    /** Minimum sequential steps after a device serialization (ensures
     *  the device access itself executes even when it sits exactly at
     *  a fork site). */
    uint64_t force_seq_insts_ = 0;

    double master_budget_ = 0.0;
    double seq_budget_ = 0.0;

    bool halted_ = false;
    bool faulted_ = false;
    uint64_t next_task_id_ = 1;

    EpochStats epoch_stats_;

    OutputStream outputs_;
    /** The machine's own counts; the slave sums are left at zero here
     *  and filled in by counters(). */
    MsspCounters ctrs_;
    /** Per-fork-site engage/squash attribution (MsspResult). */
    std::map<uint32_t, ForkSiteStat> site_stats_;
    CommitHook commit_hook_;
    /** Fault injector (null = no hooks fire; see setFaultInjector). */
    FaultInjector *injector_ = nullptr;
    /** Patchable distilled-code addresses (built on injector attach;
     *  ImagePatch targets). */
    std::vector<uint32_t> dist_code_addrs_;

    // Histograms (dumpStats prints them after the counters).
    stats::Group stats_root_{"mssp"};
    stats::Distribution task_size_dist_{&stats_root_, "taskSize",
        "committed task size (insts)", 0, 2000, 20};
    stats::Distribution checkpoint_dist_{&stats_root_, "checkpointCells",
        "checkpoint size at fork (cells)", 0, 4096, 16};
    stats::Distribution livein_dist_{&stats_root_, "liveInCells",
        "live-in set size at commit (cells)", 0, 512, 16};
};

} // namespace mssp

#endif // MSSP_MSSP_MACHINE_HH
