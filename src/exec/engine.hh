/**
 * @file
 * The engine contract and the reference engine.
 *
 * Every machine in the system retires instructions through an engine
 * call. Two engines implement it, each with exactly one set of
 * consumers:
 *
 *  - **`ref`** (runRefEngine below) — the template interpreter
 *    (`executeDecodedOn`'s switch). It is the semantic oracle: the
 *    single implementation of μRISC semantics that blockjit is
 *    differentially checked against (tests/test_backend_fuzz.cpp).
 *    It runs every hooked consumer: master slices, slave tasks, the
 *    Seq fallback and the profiler. At the paper's default IPC of 1.0
 *    each hooked call retires one instruction, so a faster dispatch
 *    loop has nothing to speed up.
 *  - **`blockjit`** — a block-compiling engine (exec/blockjit.hh)
 *    that turns hot decoded basic blocks into chains of
 *    pre-specialized superinstructions, deopting to per-instruction
 *    stepping at cold code, budget tails and faults. It runs the
 *    unobserved SeqMachine, the SEQ run every MSSP result is checked
 *    against, and takes no hook.
 *
 * The engines share one contract so their architectural effects are
 * bit-identical by construction:
 *
 *  - The engine runs from a DecodeCache at a starting pc for at most
 *    `maxSteps` *retired* instructions against a Ctx (any
 *    ExecContext-shaped class; `final` classes devirtualize).
 *  - Halting and faulting stop the engine with the pc pinned at the
 *    halt/fault instruction; a faulting attempt does not retire.
 *
 * The reference engine takes a per-step Hook, which observes and
 * steers execution: `preStep(pc, inst) -> bool` runs before the
 * instruction (false = stop without executing it); `postStep(pc, res)
 * -> StepVerdict` runs after it and may Continue, Stop (retire, apply
 * nextPc, then stop), or Discard (un-retire the step: pc does not
 * advance — the slaves' MMIO-abort and the master's
 * Jalr-translation-fault semantics). postStep receives the StepResult
 * *mutable* so hooks may redirect nextPc (the master's
 * distilled-address translation). Tests run it with the default
 * NullHook, whose inline no-ops fold away.
 */

#ifndef MSSP_EXEC_ENGINE_HH
#define MSSP_EXEC_ENGINE_HH

#include <cstdint>

#include "exec/decode_cache.hh"
#include "exec/executor.hh"

namespace mssp
{

/** Hook verdict after an executed step. */
enum class StepVerdict : uint8_t
{
    Continue,  ///< keep running
    Stop,      ///< retire this step, then stop
    Discard,   ///< un-retire this step: pc does not advance; stop
};

/** The no-op hook (tests): its inline no-ops fold away. */
struct NullHook
{
    bool preStep(uint32_t, const Instruction &) { return true; }
    StepVerdict postStep(uint32_t, StepResult &)
    {
        return StepVerdict::Continue;
    }
};

/** What an engine run did. */
struct EngineResult
{
    /** Ok = stopped by budget or hook; else Halted/Illegal. */
    StepStatus status = StepStatus::Ok;
    /** Instructions retired (a faulting attempt is not retired). */
    uint64_t retired = 0;
    /** Where execution stopped. Pinned at the halt/fault instruction
     *  on Halted/Illegal and at the un-advanced pc on Discard. */
    uint32_t pc = 0;
};

/**
 * The reference engine. One canonical loop around
 * executeDecodedOn — this *is* the semantics; blockjit is checked
 * against it.
 */
template <class Ctx, class Hook = NullHook>
inline EngineResult
runRefEngine(DecodeCache &dc, uint32_t pc, uint64_t max_steps, Ctx &ctx,
             Hook &&hook = {})
{
    EngineResult r;
    while (r.retired < max_steps) {
        const Instruction &inst = dc.at(pc);
        if (!hook.preStep(pc, inst))
            break;
        StepResult res = executeDecodedOn(pc, inst, ctx);
        if (res.status == StepStatus::Illegal) {
            r.status = StepStatus::Illegal;
            break;
        }
        StepVerdict v = hook.postStep(pc, res);
        if (v == StepVerdict::Discard)
            break;
        ++r.retired;
        if (res.status == StepStatus::Halted) {
            r.status = StepStatus::Halted;
            break;
        }
        pc = res.nextPc;
        if (v == StepVerdict::Stop)
            break;
    }
    r.pc = pc;
    return r;
}

} // namespace mssp

#endif // MSSP_EXEC_ENGINE_HH
