#include "exec/seq_machine.hh"

#include <algorithm>

#include "exec/blockjit.hh"
#include "sim/supervisor.hh"

namespace mssp
{

namespace
{

/** Supervised slice size: small enough that a wall-clock deadline is
 *  observed within a fraction of a millisecond at SEQ speed
 *  (~150-400M insts/s), large enough that the between-slice poll is
 *  noise. */
constexpr uint64_t kSuperviseSliceInsts = 16384;

} // anonymous namespace

SeqMachine::SeqMachine(const Program &prog)
{
    state_.loadProgram(prog);
}

SeqMachine::~SeqMachine() = default;

void
SeqMachine::applyStep(const StepResult &res)
{
    switch (res.status) {
      case StepStatus::Ok:
        state_.setPc(res.nextPc);
        state_.addInstret(1);
        ++inst_count_;
        break;
      case StepStatus::Halted:
        halted_ = true;
        state_.addInstret(1);
        ++inst_count_;
        break;
      case StepStatus::Illegal:
        faulted_ = true;
        break;
    }
}

StepResult
SeqMachine::step()
{
    uint32_t pc = state_.pc();
    StepResult res = executeDecodedOn(pc, decode_.at(pc), *this);
    applyStep(res);
    if (observer_)
        observer_->onStep(pc, res);
    return res;
}

// hot + aligned for the same layout-stability reason as
// executeDecodedOn (exec/executor.hh): the batched run loop and the
// engine it calls should sit together in .text.hot with fixed
// alignment, immune to unrelated code growth elsewhere.
__attribute__((hot, aligned(64))) SeqRunResult
SeqMachine::runLoop(uint64_t max_insts)
{
    SeqRunResult result;

    if (observer_) {
        // Observed runs step through the reference semantics with
        // exact per-step bookkeeping.
        while (!halted_ && !faulted_ && result.instCount < max_insts) {
            step();
            ++result.instCount;
        }
    } else if (!halted_ && !faulted_) {
        // Hot path: blockjit runs with pc and retirement in locals;
        // storage accesses devirtualize (SeqMachine is final). It is
        // architecturally interchangeable with the observed path
        // (tests/test_backend_fuzz.cpp).
        if (!jit_)
            jit_ = std::make_unique<BlockJit>(decode_);
        EngineResult er = jit_->run(state_.pc(), max_insts, *this);
        halted_ = er.status == StepStatus::Halted;
        faulted_ = er.status == StepStatus::Illegal;
        state_.setPc(er.pc);
        state_.addInstret(er.retired);
        inst_count_ += er.retired;
        // instCount counts attempts: a faulting attempt is included
        // even though it does not retire (RunRespectsMaxInsts).
        result.instCount = er.retired + (faulted_ ? 1 : 0);
    }

    result.halted = halted_;
    result.faulted = faulted_;
    result.finalPc = state_.pc();
    return result;
}

SeqRunResult
SeqMachine::run(uint64_t max_insts)
{
    Supervision *sup = currentSupervision();
    if (!sup)
        return runLoop(max_insts);

    // Supervised: run bounded slices (a bounded engine call is the
    // budget mechanism the engine already implements), polling
    // between slices. Trips throw at a slice boundary, leaving the
    // machine consistent.
    SeqRunResult total;
    while (!halted_ && !faulted_ && total.instCount < max_insts) {
        sup->checkOrThrow();
        uint64_t budget = sup->instsRemaining();
        if (budget == 0)
            sup->tripInstLimit();   // work left, none allowed: trip
        uint64_t slice = std::min(
            {max_insts - total.instCount, kSuperviseSliceInsts,
             budget});
        SeqRunResult part = runLoop(slice);
        total.instCount += part.instCount;
        // Attempted == retired for SEQ (a faulting attempt counts as
        // executed work and ends the loop anyway).
        sup->consume(part.instCount, part.instCount);
    }
    total.halted = halted_;
    total.faulted = faulted_;
    total.finalPc = state_.pc();
    return total;
}

} // namespace mssp
