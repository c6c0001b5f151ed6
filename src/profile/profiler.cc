#include "profile/profiler.hh"

#include "arch/arch_state.hh"
#include "arch/mmio.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/engine.hh"
#include "exec/executor.hh"

namespace mssp
{

namespace
{

/** ExecContext that records memory observations for one step. */
class ProfilingContext final : public ExecContext
{
  public:
    explicit ProfilingContext(ArchState &state) : state_(state) {}

    // Per-step observations, reset before each instruction.
    bool sawLoad = false;
    uint32_t loadValue = 0;
    uint32_t loadAddr = 0;
    bool sawStore = false;
    bool storeSilent = false;
    std::unordered_set<uint32_t> *writtenAddrs = nullptr;

    void
    beginStep()
    {
        sawLoad = false;
        sawStore = false;
        storeSilent = false;
    }

    uint32_t readReg(unsigned r) override { return state_.readReg(r); }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        state_.writeReg(r, v);
    }

    uint32_t
    readMem(uint32_t addr) override
    {
        if (isMmio(addr)) {
            // Device reads are real (training runs the program for
            // real) but are never profiled as speculation candidates.
            return device_.read(addr);
        }
        uint32_t v = state_.readMem(addr);
        sawLoad = true;
        loadValue = v;
        loadAddr = addr;
        return v;
    }

    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr)) {
            OutputStream sink;
            device_.write(addr, v, sink);
            return;
        }
        sawStore = true;
        storeSilent = state_.readMem(addr) == v;
        if (writtenAddrs)
            writtenAddrs->insert(addr);
        state_.writeMem(addr, v);
    }

    uint32_t fetch(uint32_t pc) override { return state_.readMem(pc); }

    void output(uint16_t, uint32_t) override {}

  private:
    ArchState &state_;
    MmioDevice device_;
};

/** Per-step observation recording, as an engine hook. */
struct ProfileHook
{
    ProfilingContext &ctx;
    ProfileData &data;

    bool
    preStep(uint32_t, const Instruction &)
    {
        ctx.beginStep();
        return true;
    }

    StepVerdict
    postStep(uint32_t pc, StepResult &res)
    {
        ++data.pcCount[pc];
        ++data.totalInsts;

        if (isCondBranch(res.inst.op)) {
            auto &bp = data.branches[pc];
            ++bp.total;
            if (res.branchTaken)
                ++bp.taken;
        }
        if (ctx.sawLoad && res.inst.op == Opcode::Lw) {
            auto &lp = data.loads[pc];
            if (lp.count == 0) {
                lp.firstValue = ctx.loadValue;
                lp.firstAddr = ctx.loadAddr;
            }
            ++lp.count;
            if (ctx.loadValue == lp.firstValue)
                ++lp.sameAsFirst;
            if (ctx.loadAddr == lp.firstAddr)
                ++lp.sameAddr;
        }
        if (ctx.sawStore) {
            auto &sp = data.stores[pc];
            ++sp.count;
            if (ctx.storeSilent)
                ++sp.silent;
        }

        if (res.status == StepStatus::Halted)
            data.ranToCompletion = true;
        return StepVerdict::Continue;
    }
};

} // anonymous namespace

// hot + aligned for the same layout-stability reason as
// executeDecodedOn (exec/executor.hh): the profiling engine loop is
// inlined here, and its throughput swung by a quarter with the link
// address alone when unrelated objects grew.
__attribute__((hot, aligned(64))) ProfileData
profileProgram(const Program &prog, uint64_t max_insts)
{
    ArchState state;
    state.loadProgram(prog);
    ProfilingContext ctx(state);
    DecodeCache decode(prog);
    ProfileData data;
    ctx.writtenAddrs = &data.writtenAddrs;

    ProfileHook hook{ctx, data};
    runRefEngine(decode, state.pc(), max_insts, ctx, hook);
    return data;
}

} // namespace mssp
