/**
 * @file
 * mssp-lint: static verifier for distilled programs.
 *
 * The distiller is allowed to be *approximately* wrong — MSSP's
 * verify/commit unit recovers from bad predictions — but a distilled
 * image can still be structurally broken in ways that make the master
 * useless (it faults, spins, or predicts garbage on every task). The
 * verifier checks the static contract between distiller and runtime
 * (DESIGN.md "The distilled-program contract"):
 *
 *  1. Control-flow integrity: every branch/jump/fallthrough in the
 *     image lands on decodable code, every FORK names a task-map
 *     entry whose PC is an original-program block leader, and the
 *     restart/addr maps are mutually consistent with the image.
 *  2. Checkpoint soundness: the checkpoint register mask claimed for
 *     each fork site covers the statically computed live-in set of
 *     the original task (under-approximation is an error — a trusted
 *     checkpoint would guarantee misspeculation; over-approximation
 *     is wasted bandwidth, a warning with a waste metric).
 *  3. Superimposition safety: the recorded edit log is replayed
 *     against the original binary — approximate passes may only
 *     touch the instruction kinds they claim (a branch, a store, a
 *     load), semantics-preserving passes may only rewrite pure
 *     register-writing instructions, and every edit must lie inside
 *     the reachable original program.
 *  4. Use-before-def: a register read on some path from a restart
 *     point before any write, yet absent from that task's checkpoint
 *     set, makes the master's output depend on unchecked state.
 *     Indirect jumps (jalr) are graph exits and call continuations
 *     are analysis roots with an empty garbage set — the documented
 *     conservative treatment (no false positives, may miss paths
 *     through calls).
 *
 * Findings carry severity, PC, block, pass provenance and a message,
 * and render as human text or JSON (schema in docs/LINT.md). The
 * same checks back `tools/mssp-lint.cc` and `mssp-distill --verify`.
 */

#ifndef MSSP_ANALYSIS_VERIFIER_HH
#define MSSP_ANALYSIS_VERIFIER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "distill/distiller.hh"

namespace mssp::analysis
{

enum class Severity : uint8_t
{
    Warning,   ///< suspicious or wasteful, master still usable
    Error,     ///< contract violation; reject the image
};

/** Check identifiers (stable names in lintCheckName / the JSON). */
enum class LintCheck : uint8_t
{
    DecodeFault,            ///< reachable undecodable word / off-image
    BranchTarget,           ///< control transfer to a non-block
    ForkIndex,              ///< FORK imm outside the task map
    ForkTarget,             ///< task-map PC not an original leader
    RestartMap,             ///< entryMap vs. image FORKs inconsistent
    AddrMap,                ///< addrMap entry names a non-block
    InescapableLoop,        ///< cyclic region with no exit
    CheckpointMissing,      ///< fork site without a checkpoint mask
    CheckpointUnderApprox,  ///< live-in register not checkpointed
    CheckpointOverApprox,   ///< checkpointed register never read
    UseBeforeDef,           ///< read of an unchecked restart value
    EditTarget,             ///< pass edited a disallowed instruction
    EditOutsideProgram,     ///< edit PC outside reachable orig code

    // Semantic translation-validation checks (verifyDistilledSemantic;
    // DESIGN.md §5.2). Abstract interpretation of the original
    // program decides whether each recorded edit preserves the
    // superimposition relation "<-" (DESIGN.md §5.1).
    SemanticBranch,         ///< hard-wired branch can go the other way
    SemanticConst,          ///< folded constant contradicts absint
    SemanticLoad,           ///< value-spec'd load has an interferer
    SemanticStore,          ///< elided store is provably not silent
    SemanticLiveOut,        ///< live-out diverges between O and D
    SemanticUnreachable,    ///< removed block is abstractly reachable
    EditMetadata,           ///< region/live-out/value metadata broken

    // Speculation-safety metadata checks (analysis/specsafe.hh).
    SpecSafeMismatch,       ///< persisted load class != recomputed
    SpecSafeCoverage,       ///< load unclassified / stale class entry

    // Speculation-plan metadata checks (analysis/specplan.hh).
    SpecPlanMismatch,       ///< persisted candidate != recomputed
    SpecPlanCoverage,       ///< candidate missing / stale plan entry

    // Speculated-edit record checks (distill/speculate.cc, .mdo v5).
    SpecEditMismatch,       ///< baked word / load / site disagrees
    SpecEditCoverage,       ///< specedit without edit-log provenance
};

const char *severityName(Severity sev);
const char *lintCheckName(LintCheck check);

/** One verifier finding. */
struct Finding
{
    Severity severity = Severity::Error;
    LintCheck check = LintCheck::DecodeFault;
    /** PC the finding anchors to (distilled or original, per check;
     *  UINT32_MAX when not applicable). */
    uint32_t pc = UINT32_MAX;
    /** Start PC of the containing block (UINT32_MAX when n/a). */
    uint32_t block = UINT32_MAX;
    /** Pass provenance for edit-log findings. */
    bool hasPass = false;
    DistillEdit::Pass pass = DistillEdit::Pass::ConstFold;
    std::string message;
};

/** All findings of one verification run. */
struct LintReport
{
    std::vector<Finding> findings;

    size_t errors() const;
    size_t warnings() const;
    bool clean() const { return findings.empty(); }

    /** One line per finding plus a summary line. */
    std::string toText() const;

    /** JSON object {"errors":N,"warnings":N,"findings":[...]} (see
     *  docs/LINT.md for the schema). */
    std::string toJson() const;
};

/**
 * The distilled image's own CFG. Discovery roots are every entryMap
 * and addrMap target: layout lowers calls to `loadimm ra; jal r0`,
 * so call continuations are unreachable from the entry alone.
 */
Cfg distilledCfg(const DistilledProgram &dist);

/**
 * Verify @p dist against the original program @p orig it was
 * distilled from. Pure static analysis; neither program is executed.
 */
LintReport verifyDistilled(const Program &orig,
                           const DistilledProgram &dist);

// -- Semantic translation validation (analysis/semantic.cc) -----------

/** Risk class of one distiller edit under abstract interpretation. */
enum class EditRisk : uint8_t
{
    /** The edit provably preserves the superimposition relation: no
     *  reachable original execution can diverge at it. */
    Proven,
    /** A counterexample exists in the abstraction: some abstract
     *  path reaches the edit in a state where it changes a live-out
     *  (may still be dynamically rare — MSSP recovers). */
    Risky,
    /** The abstraction is too coarse to decide either way. */
    Unknown,
};

const char *editRiskName(EditRisk risk);

/** Per-edit verdict of the translation validator. */
struct EditVerdict
{
    size_t index = 0;       ///< position in report.edits
    DistillEdit edit;
    EditRisk risk = EditRisk::Unknown;
    /** Human-readable justification: the proof sketch for Proven,
     *  the counterexample path / interfering store / unproven range
     *  for Risky and Unknown. */
    std::string detail;
};

/** All edit verdicts of one semantic validation run. */
struct SemanticReport
{
    std::vector<EditVerdict> verdicts;

    size_t proven() const;
    size_t risky() const;
    size_t unknown() const;

    /** One line per verdict plus a summary line. */
    std::string toText() const;
};

/** Combined structural + semantic verification result. */
struct SemanticResult
{
    LintReport lint;            ///< semantic findings only
    SemanticReport semantic;    ///< one verdict per edit

    /** The LintReport JSON object extended with an "edits" array of
     *  per-edit risk verdicts (schema in docs/LINT.md). */
    std::string toJson() const;
};

/**
 * Translation validation of the distiller's edit log: abstractly
 * execute the original program (analysis/absint.hh), classify every
 * recorded edit as Proven/Risky/Unknown, and prove live-out
 * consistency of each edited region against its distilled
 * counterpart under the superimposition relation. Risky edits of
 * *approximate* passes are warnings (MSSP recovers at runtime);
 * risky edits of semantics-preserving passes and metadata
 * inconsistencies are errors.
 */
SemanticResult verifyDistilledSemantic(const Program &orig,
                                       const DistilledProgram &dist);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_VERIFIER_HH
