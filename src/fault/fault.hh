/**
 * @file
 * Deterministic, seeded fault injection for the MSSP machine.
 *
 * The paper's central robustness claim is that the distilled program
 * is *only a performance hint*: arbitrary corruption of the master,
 * its checkpoints, or the task-delivery fabric must be caught by the
 * verify/commit unit, with the sequential fallback guaranteeing
 * forward progress. This layer makes that claim executable. A
 * FaultInjector holds a set of FaultPlans (type x rate x seed x
 * target); the MsspMachine consults it at well-defined hook points
 * (fork, spawn delivery, master tick, slave tick, commit) and applies
 * exactly the corruption the injector grants. All randomness flows
 * through sim/rng.hh, so a (plan, workload, config) triple replays
 * bit-identically.
 *
 * Every hook in the machine is guarded by a single null-pointer check
 * (no injector attached => no work, no virtual dispatch), so the
 * injection layer is zero-cost on the fault-free hot path — see
 * BM_MsspMachine A/B in EXPERIMENTS.md.
 *
 * The fault menu deliberately stays inside the paper's protected
 * surface: predictions (checkpoints, master state, distilled image)
 * and plumbing (delivery, slave liveness, commit pacing). Slave
 * *results* are never corrupted — the machine trusts task execution,
 * exactly as the paper's hardware does; the verify/commit unit
 * protects against wrong predictions, not broken ALUs.
 */

#ifndef MSSP_FAULT_FAULT_HH
#define MSSP_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mssp/checkpoint.hh"
#include "sim/cycle.hh"
#include "sim/rng.hh"

namespace mssp
{

/** One injectable fault class (DESIGN.md §6 maps each to the paper
 *  claim it stresses). */
enum class FaultType : uint8_t
{
    None = 0,
    CheckpointCorrupt,   ///< insert/drop a cell in the fork checkpoint
    LiveInFlip,          ///< flip one bit of a predicted live-in value
    MasterRegFlip,       ///< flip one bit of a master register mid-run
    MasterPcCorrupt,     ///< redirect the master PC to a random word
    SpawnDelay,          ///< delay a task delivery by extra cycles
    SpawnDrop,           ///< drop a task delivery entirely
    SlaveStall,          ///< freeze a busy slave for stallCycles
    SlaveKill,           ///< kill a slave's task mid-flight
    SpuriousSquash,      ///< squash a head task that would verify
    ImagePatch,          ///< overwrite a distilled-image word at runtime
};

constexpr size_t NumFaultTypes = 11;   // including None

/** Kebab-case name ("checkpoint-corrupt", ...). */
const char *toString(FaultType t);

/** Parse a kebab-case name; FaultType::None when unknown. */
FaultType faultTypeFromString(const std::string &name);

/** The ten real fault types, in enum order. */
const std::vector<FaultType> &allFaultTypes();

/** One armed fault: what to inject, how often, from which seed. */
struct FaultPlan
{
    FaultType type = FaultType::None;
    /** Bernoulli probability per opportunity. The opportunity grain
     *  is per fork (checkpoint/live-in/spawn faults), per commit
     *  attempt (spurious squash), per cycle the Spec-mode master runs
     *  (master faults, image patch) or per cycle per slave holding an
     *  unfinished task, paused or stalled ones included (stall/kill).
     *  When one per-cycle plan is armed alone, the machine batches the
     *  cycles whose draws miss and skips those draws in the stream;
     *  only a cycle that may hit is stepped (DESIGN.md §8). */
    double rate = 0.0;
    uint64_t seed = 1;
    /** Restrict to one target (slave id for slave faults, register
     *  for reg flips); -1 = any, chosen at random per injection. */
    int target = -1;
    Cycle delayCycles = 512;    ///< SpawnDelay: extra transit time
    Cycle stallCycles = 256;    ///< SlaveStall: freeze length
    uint64_t maxInjections = 0; ///< stop after this many (0 = unbounded)

    std::string toString() const;
};

/** Per-type injection counts (proof that a fault actually fired). */
struct FaultCounters
{
    std::array<uint64_t, NumFaultTypes> injected{};

    uint64_t
    count(FaultType t) const
    {
        return injected[static_cast<size_t>(t)];
    }

    uint64_t total() const;
};

/**
 * The injector the machine consults. Decision + corruption content
 * are both drawn here so a plan replays deterministically; the
 * machine only supplies the state to corrupt.
 */
class FaultInjector
{
  public:
    FaultInjector(uint64_t seed, std::vector<FaultPlan> plans);

    /** Single-plan convenience (seeded from the plan's own seed). */
    explicit FaultInjector(const FaultPlan &plan)
        : FaultInjector(plan.seed, {plan})
    {}

    /** True when any plan of type @p t is armed and under budget. */
    bool
    armed(FaultType t) const
    {
        const FaultPlan &p = plans_[static_cast<size_t>(t)];
        if (p.rate <= 0.0)
            return false;
        return p.maxInjections == 0 ||
               counters_.count(t) < p.maxInjections;
    }

    /**
     * Bernoulli draw for one opportunity of type @p t. Counts the
     * injection — callers must apply the granted corruption.
     */
    bool
    fire(FaultType t)
    {
        if (!armed(t))
            return false;
        if (!rng_.chance(plans_[static_cast<size_t>(t)].rate))
            return false;
        ++counters_.injected[static_cast<size_t>(t)];
        return true;
    }

    // -- Draw horizons (the machine's epoch rule, DESIGN.md §8) ----------

    /** Longest look-ahead of missesBeforeHit(): past it, the next
     *  draw is treated as a possible hit. */
    static constexpr uint64_t MaxHitScan = uint64_t{1} << 22;

    /**
     * How many of the stream's next draws miss type @p t's rate before
     * one that may hit (at most MaxHitScan). Consumes nothing; @p t
     * must be armed. Draws other consumers take before that hit miss
     * for every consumer, so the hit's stream position is cached and
     * the answer stays exact until the position itself is consumed.
     */
    uint64_t missesBeforeHit(FaultType t);

    /** Consume @p n draws known to miss (see missesBeforeHit). */
    void skip(uint64_t n) { rng_.skip(n); }

    /** The most draws one fork can take: corruptCheckpoint, dropSpawn
     *  and spawnDelay with the plans armed now. */
    unsigned forkDrawBound() const;

    // -- Fork hook --------------------------------------------------------

    /**
     * Checkpoint faults (CheckpointCorrupt + LiveInFlip) for a task
     * being forked with checkpoint @p ckpt, applied to it in place
     * (a checkpoint's edits are its own; the master's journal is
     * never touched).
     */
    void corruptCheckpoint(Checkpoint &ckpt);

    // -- Spawn-delivery hook ----------------------------------------------

    /** SpawnDrop draw for one delivery. */
    bool dropSpawn() { return fire(FaultType::SpawnDrop); }

    /** SpawnDelay draw: extra transit cycles (0 = on time). */
    Cycle
    spawnDelay()
    {
        if (!fire(FaultType::SpawnDelay))
            return 0;
        return plans_[static_cast<size_t>(FaultType::SpawnDelay)]
            .delayCycles;
    }

    // -- Slave hook -------------------------------------------------------

    /**
     * Draw for one slave holding an unfinished task (running, paused
     * or stalled) on one cycle. @p kill_task is set when the slave
     * must drop its task mid-flight (the task then never completes
     * and the watchdog recovers it).
     *
     * @return stall cycles to add (0 = none)
     */
    Cycle onSlaveTick(int slave_id, bool *kill_task);

    /** True when type @p t's plan may target slave @p slave_id. */
    bool
    targetsSlave(FaultType t, int slave_id) const
    {
        int target = plans_[static_cast<size_t>(t)].target;
        return target < 0 || target == slave_id;
    }

    // -- Draw primitives for machine-applied faults -----------------------
    // (MasterRegFlip / MasterPcCorrupt / ImagePatch corrupt state the
    // injector cannot see; the machine calls fire() then shapes the
    // corruption with these.)

    /** Uniform value below @p bound (bound >= 1). */
    uint64_t pick(uint64_t bound) { return rng_.below(bound); }

    /** Random 32-bit word. */
    uint32_t word() { return static_cast<uint32_t>(rng_.next()); }

    /** Single random bit mask. */
    uint32_t bit32() { return 1u << (rng_.next() & 31); }

    /** The plan armed for @p t (zero-rate default when absent). */
    const FaultPlan &
    plan(FaultType t) const
    {
        return plans_[static_cast<size_t>(t)];
    }

    const FaultCounters &counters() const { return counters_; }

    /** One line per armed type with its injection count. */
    void dump(std::ostream &os) const;

  private:
    /** One plan slot per type (the last plan of a type wins). */
    std::array<FaultPlan, NumFaultTypes> plans_;
    FaultCounters counters_;
    Rng rng_;
    /** missesBeforeHit's cache: the type scanned last and the stream
     *  position of its hit (or of the draw past the scan cap). */
    FaultType scan_type_ = FaultType::None;
    uint64_t scan_hit_ = 0;
};

} // namespace mssp

#endif // MSSP_FAULT_FAULT_HH
