#include "exec/seq_machine.hh"

#include "exec/blockjit.hh"

namespace mssp
{

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
SeqMachine::run(uint64_t max_insts)
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

} // namespace mssp
