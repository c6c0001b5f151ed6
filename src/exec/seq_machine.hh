/**
 * @file
 * The sequential reference machine (the formal model's SEQ).
 *
 * SEQ executes a program directly against an ArchState, one
 * instruction at a time. It is the correctness oracle for every MSSP
 * configuration (jumping-refinement tests compare MSSP output and
 * final state against SEQ), the profiler's execution engine, and the
 * single-core performance baseline.
 *
 * The run loop is the simulator's hottest path: it executes through a
 * predecode cache over the machine's own loaded memory and a
 * devirtualized executor instantiation (SeqMachine is final), keeping
 * the PC and retirement counters in locals. The reference stepAt path
 * is differential-tested against it in tests/test_decode_cache.cpp.
 */

#ifndef MSSP_EXEC_SEQ_MACHINE_HH
#define MSSP_EXEC_SEQ_MACHINE_HH

#include <cstdint>
#include <memory>

#include "arch/arch_state.hh"
#include "arch/mmio.hh"
#include "asm/program.hh"
#include "exec/blockjit.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/executor.hh"

namespace mssp
{

/** Result of a (possibly partial) sequential run. */
struct SeqRunResult
{
    bool halted = false;
    bool faulted = false;
    uint64_t instCount = 0;
    uint32_t finalPc = 0;
};

/** The SEQ reference machine. */
class SeqMachine final : public ExecContext
{
  public:
    /** Per-instruction observation hook (crossval's watchers). */
    class Observer
    {
      public:
        virtual ~Observer() = default;

        /** Called after each executed instruction. */
        virtual void onStep(uint32_t pc, const StepResult &res) = 0;
    };

    /** Construct with the program loaded and PC at its entry. The
     *  image is copied into architected memory; @p prog may die.
     *  Executes on the process-default backend unless setBackend is
     *  called. */
    explicit SeqMachine(const Program &prog);

    ~SeqMachine();

    /** Movable (the decode cache rebinds to the moved-in memory and
     *  refills lazily; compiled blocks recompile lazily); not
     *  copyable. */
    SeqMachine(SeqMachine &&other) noexcept
        : state_(std::move(other.state_)),
          device_(std::move(other.device_)),
          outputs_(std::move(other.outputs_)),
          observer_(other.observer_),
          inst_count_(other.inst_count_),
          halted_(other.halted_),
          faulted_(other.faulted_),
          backend_(other.backend_)
    {}

    /** Select the execution tier. */
    void setBackend(BackendKind kind) { backend_ = kind; }

    /** The block cache, when the blockjit tier has run (tests). */
    const BlockJit *blockJit() const { return jit_.get(); }

    /**
     * Run until HALT, a fault, or @p max_insts instructions.
     * May be called repeatedly to continue an unfinished run.
     *
     * Supervised runs: when a Supervision is installed on the calling
     * thread (sim/supervisor.hh SupervisionScope), execution proceeds
     * in bounded engine slices on whichever backend tier is selected,
     * polling the budget between slices and throwing StatusError on a
     * trip — always at a slice boundary, so the machine stays
     * architecturally consistent and resumable (clear the token and
     * call run() again to continue). The instruction cap is exact:
     * slices clamp to the budget's remainder. Unsupervised runs take
     * the unchanged single-call hot path.
     */
    SeqRunResult run(uint64_t max_insts);

    /** Execute exactly one instruction. */
    StepResult step();

    ArchState &state() { return state_; }
    const ArchState &state() const { return state_; }

    const OutputStream &outputs() const { return outputs_; }

    uint64_t instCount() const { return inst_count_; }
    bool halted() const { return halted_; }
    bool faulted() const { return faulted_; }

    void setObserver(Observer *obs) { observer_ = obs; }

    /** The predecode cache over this machine's loaded code. */
    const DecodeCache &decodeCache() const { return decode_; }

    // -- ExecContext ------------------------------------------------------
    /** Raw register storage (see ArchState::rawRegs): lets the blockjit
     *  chain executor skip the r0 guards its compiler enforces. */
    uint32_t *rawRegs() { return state_.rawRegs(); }

    uint32_t readReg(unsigned r) override { return state_.readReg(r); }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        state_.writeReg(r, v);
    }
    uint32_t
    readMem(uint32_t addr) override
    {
        if (isMmio(addr))
            return device_.read(addr);
        return state_.readMem(addr);
    }
    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr)) {
            device_.write(addr, v, outputs_);
            return;
        }
        state_.writeMem(addr, v);
    }
    uint32_t fetch(uint32_t pc) override { return state_.readMem(pc); }
    void
    output(uint16_t port, uint32_t value) override
    {
        outputs_.push_back({port, value});
    }

    const MmioDevice &device() const { return device_; }

  private:
    /** Bookkeeping shared by step() and the batched run loop. */
    void applyStep(const StepResult &res);

    /** The unsupervised run body (the historical hot path). */
    SeqRunResult runLoop(uint64_t max_insts);

    ArchState state_;
    DecodeCache decode_{state_.mem()};
    MmioDevice device_;
    OutputStream outputs_;
    Observer *observer_ = nullptr;
    uint64_t inst_count_ = 0;
    bool halted_ = false;
    bool faulted_ = false;
    BackendKind backend_ = defaultBackend();
    std::unique_ptr<BlockJit> jit_;  ///< lazy; only on the blockjit tier
};

} // namespace mssp

#endif // MSSP_EXEC_SEQ_MACHINE_HH
