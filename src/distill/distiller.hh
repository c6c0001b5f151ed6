/**
 * @file
 * The program distiller.
 *
 * Produces the *distilled program* the MSSP master executes: a
 * profile-guided, speculatively optimized translation of the original
 * binary. Passes in pipeline order:
 *
 *   1. branch pruning        (approximate: hard-wires biased branches)
 *   2. unreachable-code elimination
 *   3. constant folding       (semantics-preserving, block-local)
 *   4. dead-code elimination  (semantics-preserving, global liveness)
 *   5. silent-store elimination (approximate, optional)
 *   6. load-value speculation   (approximate, optional)
 *   7. fork insertion + layout/relink
 *
 * "Approximate" passes may change program behaviour — MSSP's
 * verify/commit unit makes that safe, and the adversarial test suite
 * (tests/test_refinement.cpp) checks that even a *corrupted* distilled
 * program cannot affect program output.
 */

#ifndef MSSP_DISTILL_DISTILLER_HH
#define MSSP_DISTILL_DISTILLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/alias.hh"
#include "asm/program.hh"
#include "distill/ir.hh"
#include "profile/fork_select.hh"
#include "profile/profile_data.hh"

namespace mssp
{

namespace analysis
{
struct SpecPlanCandidate;   // analysis/specplan.hh
} // namespace analysis

/** Distiller tuning knobs (E8/E9 ablate these). */
struct DistillerOptions
{
    /** Branch-prune bias threshold θ. A branch direction is pruned
     *  when it was *never* observed in training, or when its rareness
     *  clears θ (taken-bias >= θ hard-wires taken; <= 1-θ hard-wires
     *  not-taken). The default θ = 1.0 prunes never-observed
     *  directions only — lower values are more aggressive and are
     *  what experiment E9 sweeps. */
    double biasThreshold = 1.0;
    /** Branches sampled fewer times than this are never pruned. */
    uint64_t minBranchSamples = 16;

    bool enableBranchPrune = true;
    bool enableConstFold = true;
    bool enableDce = true;

    bool enableSilentStoreElim = false;
    double silentStoreThreshold = 0.999;

    /**
     * Load-value speculation. The safe form replaces a load whose
     * *address* is invariant and was never stored to in training with
     * the value from the program image being distilled (link-time
     * constant propagation — immune to train/ref data differences).
     */
    bool enableValueSpec = false;
    double valueSpecThreshold = 0.999;

    /** Risky form: additionally replace loads whose *profiled value*
     *  is invariant with the training value — this can bake training
     *  data into the distilled binary (experiment E9 sweeps it). */
    bool valueSpecFromProfile = false;

    /** Loads/stores sampled fewer times than this are left alone. */
    uint64_t minMemSamples = 32;

    ForkSelectOptions forkSelect;

    /** When nonempty, use exactly these original PCs as fork sites
     *  (plus the entry) instead of running selection. */
    std::vector<uint32_t> explicitForkSites;

    /**
     * The configuration the evaluation uses (the paper's distiller):
     * all passes on, including the speculative memory optimizations
     * (silent-store elimination and load-value speculation).
     */
    static DistillerOptions
    paperPreset()
    {
        DistillerOptions opts;
        opts.enableSilentStoreElim = true;
        opts.silentStoreThreshold = 0.995;
        opts.enableValueSpec = true;
        opts.valueSpecThreshold = 0.999;
        return opts;
    }
};

/**
 * One recorded program edit, for pass provenance.
 *
 * The distiller logs every instruction-level change it makes:
 * *approximate* edits deliberately change behaviour (MSSP's
 * verify/commit unit makes that safe), *semantics-preserving* edits
 * must not change any architected live-out. mssp-lint replays the
 * log against the original binary to check each claim
 * (analysis/verifier.hh; docs/LINT.md).
 */
struct DistillEdit
{
    enum class Pass : uint8_t
    {
        BranchPrune,        ///< approximate
        UnreachableElim,    ///< semantics-preserving
        ConstFold,          ///< semantics-preserving
        Dce,                ///< semantics-preserving
        SilentStoreElim,    ///< approximate
        ValueSpec,          ///< approximate
    };

    Pass pass = Pass::ConstFold;
    /** Original-program PC of the edited instruction (block leader
     *  for UnreachableElim). */
    uint32_t origPc = UINT32_MAX;
    /** Destination register of the edited instruction, when it has
     *  one (ConstFold/Dce/ValueSpec); 0 otherwise. */
    uint8_t reg = 0;

    // -- Semantic metadata (consumed by the translation validator) --
    /** True when @c value below is meaningful for this pass. */
    bool hasValue = false;
    /** ConstFold/ValueSpec: the constant baked into the image.
     *  BranchPrune and branch ConstFolds: the hard-wired direction
     *  (1 = taken, 0 = fall-through). */
    uint32_t value = 0;
    /** Leader of the original-CFG block containing origPc (stamped
     *  once by distill(); validated against a recomputation). */
    uint32_t regionStart = UINT32_MAX;
    /** Register live-out mask of that original block. */
    RegMask liveOut = 0;
};

/**
 * Speculation-safety class of one static load in a distilled image
 * (analysis/specsafe.hh, DESIGN.md §5.3). The future value-
 * speculating distiller may only bake in loads the classifier proved
 * invariant; the runtime recovers from the rest.
 */
enum class LoadSpecClass : uint8_t
{
    /** No store in the analyzed image may alias the load: its value
     *  can never change, on any execution. */
    ProvablyInvariant,
    /** Aliasing stores exist, but none shares a fork region with the
     *  load — invariant between fork boundaries, not across them. */
    RegionInvariant,
    /** An aliasing store may execute in the load's own region (or
     *  the address could not be proven at all). */
    Risky,
};

/** Stable lower-case class name ("provably-invariant", ...). */
const char *loadSpecClassName(LoadSpecClass cls);

/** Parse a class name; @retval false when unknown. */
bool loadSpecClassFromName(const std::string &name,
                           LoadSpecClass &cls);

/**
 * Proof strength of a predicted load value in a speculation plan
 * (analysis/valueflow.hh, DESIGN.md §5.4). Proven candidates may
 * observe exactly one value on any execution of the merged image —
 * a dynamic counterexample fails the crossval gate outright; Likely
 * candidates have a small non-singleton feasible constant set.
 */
enum class ValueProof : uint8_t
{
    Proven,
    Likely,
};

/** Stable lower-case proof name ("proven" / "likely"). */
const char *valueProofName(ValueProof proof);

/** Parse a proof name; @retval false when unknown. */
bool valueProofFromName(const std::string &name, ValueProof &proof);

/**
 * One persisted speculation-plan candidate: a load the planner ranked
 * worth speculating, with its predicted value and proof strength
 * (.mdo format v4 `specplan` lines; the full derivation lives in
 * analysis/specplan.hh and is revalidated by mssp-lint --plan).
 */
struct SpecPlanEntry
{
    uint32_t pc = 0;         ///< distilled PC of the load
    ValueProof proof = ValueProof::Proven;
    uint32_t value = 0;      ///< predicted value
    /** Expected benefit score in micro-units (integer so the .mdo
     *  round-trips byte-exactly; analysis/specplan.hh). */
    uint64_t benefitMicro = 0;
    /** Feasible constant set, ascending (singleton for Proven). */
    std::vector<uint32_t> feasible;

    bool operator==(const SpecPlanEntry &) const = default;
};

/**
 * One *speculated* edit: a load the value-speculating pass
 * (distill/speculate.cc, DESIGN.md §13) rewrote into a baked
 * constant, with enough provenance to police it statically
 * (mssp-lint decodes the image word at @c distPc and checks it
 * materializes @c value) and dynamically (the adaptation loop maps
 * per-fork-site squash rates back onto edits through @c policedBy).
 * Persisted as `specedit` lines in the .mdo (format v5).
 */
struct SpecEdit
{
    /** Original-program PC of the replaced load. */
    uint32_t origPc = UINT32_MAX;
    /** Distilled PC of the first word of the baked constant. */
    uint32_t distPc = UINT32_MAX;
    /** Destination register of the load. */
    uint8_t reg = 0;
    /** Constant address the load read. */
    uint32_t addr = 0;
    /** Proof strength of the plan candidate this edit came from. */
    ValueProof proof = ValueProof::Proven;
    /** The baked value. */
    uint32_t value = 0;
    /** Planner benefit score (micro-units, from the plan entry). */
    uint64_t benefitMicro = 0;
    /** Original fork-site PCs whose tasks verify the regions this
     *  load executes in — the sites whose squash rate the adaptation
     *  loop attributes to this edit (ascending). */
    std::vector<uint32_t> policedBy;

    bool operator==(const SpecEdit &) const = default;
};

/** Knobs of the value-speculating distiller pass. */
struct SpeculateOptions
{
    /** Bake Likely candidates too (Proven are always baked). */
    bool bakeLikely = false;
    /** Minimum benefitMicro a Likely candidate must clear. */
    uint64_t minLikelyBenefitMicro = 50000000;
    /** Original load PCs the adaptation loop de-speculated: never
     *  bake these again (ascending; .mdo `specdrop` lines). */
    std::vector<uint32_t> despeculated;
    /** Feedback generation counter (0 = no feedback yet; .mdo
     *  `specgen` line). */
    uint32_t generation = 0;
};

/** Lower-case pass name ("branch-prune", "dce", ...). */
const char *distillPassName(DistillEdit::Pass pass);

/** Parse a pass name; @retval false when unknown. */
bool distillPassFromName(const std::string &name,
                         DistillEdit::Pass &pass);

/** @return true for passes that may change program behaviour. */
bool distillPassIsApproximate(DistillEdit::Pass pass);

/** What the distiller did (one row of the E1/E8 tables). */
struct DistillReport
{
    size_t origStaticInsts = 0;
    size_t distilledStaticInsts = 0;
    uint64_t branchesToJump = 0;     ///< pruned to unconditional
    uint64_t branchesToFall = 0;     ///< pruned to fallthrough
    uint64_t blocksRemoved = 0;
    uint64_t constFolded = 0;
    uint64_t dceRemoved = 0;
    uint64_t storesElided = 0;
    uint64_t loadsValueSpeced = 0;
    size_t forkSites = 0;

    /** Every instruction-level edit, in pass order (provenance for
     *  mssp-lint). */
    std::vector<DistillEdit> edits;

    std::string toString() const;
};

/** The distiller's output. */
struct DistilledProgram
{
    /** Distilled code image; entry() is the distilled entry point.
     *  Code lives at DistilledCodeBase and shares the data address
     *  space with the original program. */
    Program prog;

    /** taskMap[i] = original-program PC of fork site i. */
    std::vector<uint32_t> taskMap;

    /** taskIntervals[i] = fork every k-th visit of site i (per-site
     *  task merging so expected task size is uniform across program
     *  phases). */
    std::vector<uint32_t> taskIntervals;

    /** Original fork-site PC -> distilled PC of that block's FORK
     *  (master restart points; includes the program entry). */
    std::map<uint32_t, uint32_t> entryMap;

    /**
     * Indirect-branch translation map: original block-leader PC ->
     * distilled PC, for every surviving block. The master uses it to
     * translate jalr targets that hold *original* code addresses —
     * e.g. a return address seeded from architected state after a
     * restart inside a function, or one reloaded from a committed
     * stack slot. (Standard dynamic-binary-translation machinery.)
     */
    std::map<uint32_t, uint32_t> addrMap;

    /**
     * Checkpoint map: original fork-site PC -> register live-in mask
     * of the task starting there, computed from the original
     * program's CFG liveness. This is the distiller's static claim
     * of task completeness (formal spec, Definition 9): every
     * register a task may read before writing is in the mask.
     * mssp-lint recomputes the live-in sets independently and flags
     * under-approximations as errors (they would guarantee
     * misspeculation if the checkpoint were trusted) and
     * over-approximations as wasted checkpoint bandwidth.
     */
    std::map<uint32_t, RegMask> checkpointRegs;

    /**
     * Speculation-safety metadata: distilled PC of every static load
     * in the image -> its invariance class, stamped by distill() from
     * the store-set analysis (analysis/specsafe.hh) and persisted in
     * the .mdo format (format v3). mssp-lint --specsafe recomputes
     * the classification and rejects images whose persisted classes
     * disagree (docs/LINT.md).
     */
    std::map<uint32_t, LoadSpecClass> loadClasses;

    /**
     * Speculation plan: the candidates the static planner ranked
     * worth value-speculating, in rank order (highest benefit
     * first), stamped by distill() from the value-flow analysis
     * (analysis/specplan.hh) and persisted in the .mdo (format v4).
     * mssp-lint --plan recomputes the plan and rejects images whose
     * persisted candidates disagree (docs/LINT.md).
     */
    std::vector<SpecPlanEntry> specPlan;

    /**
     * Speculated edits: the plan candidates distillSpeculated() baked
     * into the image, in bake order (plan rank order). Empty for
     * images the speculation pass never touched. Persisted as
     * `specedit` lines (.mdo v5) and re-validated by mssp-lint.
     */
    std::vector<SpecEdit> specEdits;

    /** Original load PCs the squash-feedback loop de-speculated
     *  (ascending; .mdo `specdrop` lines). */
    std::vector<uint32_t> specDropped;

    /** Feedback generation that produced this image (0 = one-shot;
     *  .mdo `specgen` line). */
    uint32_t specGeneration = 0;

    /**
     * Distilled PC -> original PC for every emitted body instruction
     * (first word of multi-word expansions). In-memory provenance for
     * the speculation pass; not persisted in the .mdo.
     */
    std::map<uint32_t, uint32_t> pcOrigin;

    DistillReport report;

    /** Distilled PC for restarting the master at original @p pc
     *  (UINT32_MAX when @p pc is not a restart point). */
    uint32_t
    distilledPcFor(uint32_t orig_pc) const
    {
        auto it = entryMap.find(orig_pc);
        return it == entryMap.end() ? UINT32_MAX : it->second;
    }
};

/**
 * Distill @p orig using @p profile.
 *
 * @param orig    the original program (entry at orig.entry())
 * @param profile training-run profile
 * @param opts    tuning knobs
 */
DistilledProgram distill(const Program &orig,
                         const ProfileData &profile,
                         const DistillerOptions &opts);

/**
 * Distill @p orig, then *value-speculate* the result
 * (distill/speculate.cc, DESIGN.md §13): bake every Proven (and,
 * optionally, high-benefit Likely) candidate of the image's
 * speculation plan into a load-immediate, re-run constant folding and
 * DCE over the shortened code, re-place fork boundaries, and stamp
 * fresh metadata. The returned image carries one SpecEdit per baked
 * load. Deterministic: same inputs produce byte-identical images.
 */
DistilledProgram distillSpeculated(const Program &orig,
                                   const ProfileData &profile,
                                   const DistillerOptions &opts,
                                   const SpeculateOptions &sopts);

// Individual passes, exposed for unit testing and ablation ------------

/** Pass 1: hard-wire heavily biased branches. */
void passBranchPrune(DistillIr &ir, const ProfileData &profile,
                     const DistillerOptions &opts,
                     DistillReport &report);

/** Pass 2: kill blocks unreachable from the entry. */
void passUnreachableElim(DistillIr &ir, DistillReport &report);

/** Pass 3: block-local constant propagation and folding. */
void passConstFold(DistillIr &ir, DistillReport &report);

/** Pass 4: remove dead pure instructions (global liveness). */
void passDce(DistillIr &ir, DistillReport &report);

/** Pass 5: drop stores that are almost always silent. */
void passSilentStoreElim(DistillIr &ir, const ProfileData &profile,
                         const DistillerOptions &opts,
                         DistillReport &report);

/** Pass 6: replace invariant loads with constants (see
 *  DistillerOptions::enableValueSpec). @p orig supplies the image for
 *  the safe (link-time) form. */
void passValueSpec(DistillIr &ir, const ProfileData &profile,
                   const DistillerOptions &opts, const Program &orig,
                   DistillReport &report);

/** Pass 7a: mark fork sites (entry is always included).
 *  @p intervals is parallel to @p sites (empty = all ones). */
void passMarkForkSites(DistillIr &ir,
                       const std::vector<uint32_t> &sites,
                       const std::vector<uint32_t> &intervals,
                       DistillReport &report);

/** Pass 7b: lay out the IR as a binary and build the maps. */
DistilledProgram layout(const DistillIr &ir, DistillReport report);

// Shared pipeline stages (distill() and distillSpeculated()) ----------

/** Passes 1–6 in pipeline order on @p ir, honouring @p opts.
 *  @p orig supplies the image for the safe value-spec form. */
void runDistillPasses(DistillIr &ir, const ProfileData &profile,
                      const DistillerOptions &opts,
                      const Program &orig, DistillReport &report);

/** The speculation plan finalizeDistilled() stamps, in the full form
 *  distillSpeculated() picks its bakes from. */
struct StampedPlan
{
    /** Candidates in rank order (benefit descending, PC ascending). */
    std::vector<analysis::SpecPlanCandidate> candidates;
    /** Fork-region in-state per merged-image block leader. */
    std::map<uint32_t, analysis::RegionMask> blockRegions;
};

/** The metadata tail of distill(): stamp checkpoint masks, per-edit
 *  region/live-out metadata, load classes and the speculation plan
 *  onto the laid-out @p out, from one merged-image analysis. @p cfg
 *  is the original program's CFG and @p origAi its abstract
 *  interpretation. */
StampedPlan finalizeDistilled(DistilledProgram &out,
                              const Program &orig, const Cfg &cfg,
                              const analysis::AbsintResult &origAi);

} // namespace mssp

#endif // MSSP_DISTILL_DISTILLER_HH
