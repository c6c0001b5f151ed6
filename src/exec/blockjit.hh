/**
 * @file
 * `blockjit`: superinstruction block-compiling engine, the engine of
 * the unobserved SeqMachine run loop (exec/engine.hh).
 *
 * The predecode cache's hit counters (kept here, per block leader)
 * pick hot decoded regions; each is "compiled" once into a chain of
 * pre-specialized superinstruction micro-ops:
 *
 *  - the source opcode is baked into the micro-op *kind*, so the
 *    shared evalAlu switch constant-folds away at compile time and
 *    executing e.g. an `add` is just `rd = a + x`,
 *  - every operand is pre-resolved at compile time (immOperand
 *    applied, Out ports and Fork indices extracted), and constant
 *    producers (`lui`, `li`, zero-source ALU ops, `jal` link writes)
 *    fold to a single `rd = c` move,
 *  - unconditional constant jumps (`j`/`jal`) do not end a block:
 *    compilation continues at the target, so the tiny tail blocks
 *    branchy control flow chops code into are merged back into one
 *    superop chain (nInsts still counts every retired source
 *    instruction, including the folded jumps),
 *  - strongly-biased conditional branches do not end a block either:
 *    the deopt interpreter trains a saturating per-branch bias
 *    counter while the region is still cold, and compilation folds
 *    branches that always went one way into *guard* micro-ops — the
 *    block continues down the observed direction and side-exits with
 *    an exact retire count if the branch ever goes the other way
 *    (always architecturally correct; the bias only steers block
 *    shape),
 *  - blocks link directly to their successors: each block caches
 *    Block pointers for both branch directions, and the chain
 *    executor follows them *inside* its dispatch loop — a hot
 *    block-to-block transfer is a handful of ALU ops and one indirect
 *    jump, with no lookup, no function call and no returned exit
 *    record. Dispatch uses the GNU address-of-label extension
 *    (GCC and Clang, the compilers the rest of the repo already
 *    requires).
 *
 * Deopt rules (DESIGN.md §11): execution falls back to
 * per-instruction stepping (the shared semantic helpers) at cold
 * code, when the remaining retire budget is smaller than a block, and
 * at anything a block cannot contain — faults (Illegal never compiles
 * into a block) and MMIO (device accesses go through the same
 * ctx.readMem/writeMem as the reference engine, so MMIO *correctness*
 * is the context's). The engine takes no per-step hook: machines that
 * must react per step, e.g. the slaves' MMIO abort, run on the
 * reference engine.
 *
 * Self-modification safety: the cache watches its DecodeCache's
 * version counter and drops every compiled block — and with them all
 * direct links — when the underlying image is invalidated
 * (fault-injection image patches).
 */

#ifndef MSSP_EXEC_BLOCKJIT_HH
#define MSSP_EXEC_BLOCKJIT_HH

#include <array>
#include <concepts>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/engine.hh"

namespace mssp
{

namespace exec_detail
{

/** Contexts exposing raw register storage (ArchState::rawRegs):
 *  storage slot 0 is pinned to zero, so trusted loops may read it
 *  unguarded and skip the write guard for known-nonzero
 *  destinations. */
template <class Ctx>
inline constexpr bool kHasRawRegs =
    requires(Ctx &c) { { c.rawRegs() } -> std::same_as<uint32_t *>; };

} // namespace exec_detail

/** Per-DecodeCache block compiler + block cache. */
class BlockJit
{
  public:
    /** Compile a leader once its hit counter reaches this. */
    static constexpr uint32_t HotThreshold = 8;
    /** Cap block length (retired instructions per block). */
    static constexpr uint32_t MaxBlockInsts = 64;
    /** Saturation bound of the per-branch bias counters. */
    static constexpr int8_t BiasMax = 8;
    /** |bias| needed before a branch folds into a guard. */
    static constexpr int8_t GuardBias = 6;

    explicit BlockJit(DecodeCache &dc) : dc_(&dc) {}

    BlockJit(const BlockJit &) = delete;
    BlockJit &operator=(const BlockJit &) = delete;

    /** Engine entry point; same contract as runRefEngine, without
     *  the hook. */
    template <class Ctx>
    EngineResult run(uint32_t pc, uint64_t max_steps, Ctx &ctx);

    // -- stats (tests / debugging) --------------------------------------
    size_t numBlocks() const { return blocks_.size(); }
    uint64_t blocksEntered() const { return blocks_entered_; }
    uint64_t instsInBlocks() const { return insts_in_blocks_; }

  private:
    /**
     * Micro-op kinds. The source opcode is encoded in the kind so
     * every handler runs with a compile-time-constant operation.
     * Order is load-bearing: End must stay first so a default MicroOp
     * terminates a body, Add..Sltu and AddC..SraC mirror the Opcode
     * enum's R-type and I-type ALU groups (static_asserts in
     * blockjit.cc pin the offsets), and the computed-goto tables in
     * execChain are indexed by these values.
     */
    enum class MKind : uint8_t
    {
        End,    ///< body sentinel: proceed to the terminator
        Const,  ///< rd = c  (lui / li / folded constants / jal links)
        Lw,     ///< rd = mem[r(ra) + c]
        Sw,     ///< mem[r(ra) + c] = r(rb)
        OutP,   ///< output port c <- r(ra)
        ForkT,  ///< ctx.fork(c)
        // R-type ALU, x = r(rb): mirrors Opcode Add..Sltu.
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt,
        Sltu,
        // I-type ALU, x = c (immOperand pre-applied): mirrors Opcode
        // Addi..Srai.
        AddC, AndC, OrC, XorC, SltC, SltuC, SllC, SrlC, SraC,
        // Folded-branch guards (both groups mirror Opcode Beq..Bgeu).
        // GT*: the block continues on the taken path, exits to c (the
        // fall-through pc) otherwise. GF*: continues on fall-through,
        // exits to c (the taken pc). rd holds the exact retire count
        // up to and including the guarded branch.
        GTbeq, GTbne, GTblt, GTbge, GTbltu, GTbgeu,
        GFbeq, GFbne, GFblt, GFbge, GFbltu, GFbgeu,
    };
    static constexpr size_t NumMKinds =
        static_cast<size_t>(MKind::GFbgeu) + 1;

    /** One pre-specialized superinstruction (8 bytes). */
    struct MicroOp
    {
        MKind kind = MKind::End;
        uint8_t rd = 0, ra = 0, rb = 0;
        uint32_t c = 0;
    };

    /** Terminator kinds; Beq..Bgeu mirror the Opcode branch group. */
    enum class TKind : uint8_t
    {
        Beq, Bne, Blt, Bge, Bltu, Bgeu,
        JumpReg,      ///< jalr: link rd = c, target r(ra) + imm
        HaltT,        ///< halt instruction (pc pinned at fallPc)
        FallThrough,  ///< block cap / stops short of a fault
    };
    static constexpr size_t NumTKinds =
        static_cast<size_t>(TKind::FallThrough) + 1;

    struct Terminator
    {
        TKind kind = TKind::FallThrough;
        uint8_t ra = 0, rb = 0, rd = 0;
        uint32_t takenPc = 0;  ///< branch taken target
        uint32_t fallPc = 0;   ///< fall-through / halt / cap pc
        uint32_t imm = 0;      ///< jalr displacement
        uint32_t c = 0;        ///< jalr link value (pc + 1)
    };

    struct Block
    {
        uint32_t start = 0;
        uint32_t nInsts = 0;  ///< 0 marks an uncompilable leader
        std::vector<MicroOp> body;  ///< always End-terminated
        Terminator term;
        // Direct successor links, resolved lazily from the block
        // cache (null until the successor compiles). Block pointers
        // are stable (node-based map); the links die with the blocks
        // on every invalidation flush.
        Block *takenLink = nullptr;
        Block *fallLink = nullptr;
    };

    /** Where a chain of linked blocks stopped. */
    struct ChainResult
    {
        uint32_t pc = 0;
        bool halted = false;
        uint64_t retired = 0;  ///< insts retired across the chain
        uint64_t entered = 0;  ///< blocks entered across the chain
    };

    static constexpr unsigned DmapBits = 10;
    struct Slot
    {
        uint32_t tag = 0xffffffffu;
        Block *block = nullptr;
    };

    size_t slotFor(uint32_t pc) const
    {
        return (pc * 2654435761u) >> (32 - DmapBits);
    }

    /** Drop all compiled state when the decode cache was invalidated
     *  (image patch): stale superops must never execute. */
    void
    syncVersion()
    {
        if (version_ != dc_->version()) {
            blocks_.clear();
            heat_.clear();
            bias_.clear();
            dmap_.fill(Slot{});
            version_ = dc_->version();
        }
    }

    Block *
    lookup(uint32_t pc)
    {
        Slot &s = dmap_[slotFor(pc)];
        if (s.tag == pc)
            return s.block;
        auto it = blocks_.find(pc);
        if (it == blocks_.end() || it->second->nInsts == 0)
            return nullptr;
        s.tag = pc;
        s.block = it->second.get();
        return s.block;
    }

    /** Count a leader hit; compile when hot. @return the block when
     *  one is (now) available. */
    Block *
    train(uint32_t pc)
    {
        if (blocks_.count(pc))
            return lookup(pc);
        uint32_t &h = heat_[pc];
        if (++h < HotThreshold)
            return nullptr;
        compile(pc);
        return lookup(pc);
    }

    void compile(uint32_t leader);

    /** Deopt-path branch observation: saturating taken/not-taken
     *  counter per branch pc, read by compile() to decide guard
     *  folding. Pure heuristic — never affects architectural state. */
    void
    observeBranch(uint32_t pc, bool taken)
    {
        int8_t &bc = bias_[pc];
        if (taken) {
            if (bc < BiasMax)
                ++bc;
        } else {
            if (bc > -BiasMax)
                --bc;
        }
    }

    template <class Ctx>
    ChainResult execChain(Block *b, Ctx &ctx, uint64_t budget);

    DecodeCache *dc_;
    uint64_t version_ = ~0ull;  ///< forces initial sync
    std::unordered_map<uint32_t, std::unique_ptr<Block>> blocks_;
    std::unordered_map<uint32_t, uint32_t> heat_;
    std::unordered_map<uint32_t, int8_t> bias_;
    std::array<Slot, 1u << DmapBits> dmap_{};
    uint64_t blocks_entered_ = 0;
    uint64_t insts_in_blocks_ = 0;
};

/**
 * Execute the chain of linked blocks starting at @p b until a cold
 * edge, an exhausted budget, a guard side-exit, a jalr to an
 * uncompiled target, or halt. Precondition: b->nInsts <= budget.
 * Every block is entered only while the remaining budget covers it
 * whole (a guard side-exit may retire less than nInsts, never more),
 * and every block retires at least one instruction, so the chain
 * always terminates.
 */
template <class Ctx>
inline BlockJit::ChainResult
BlockJit::execChain(Block *b, Ctx &ctx, uint64_t budget)
{
    using exec_detail::rread;
    using exec_detail::rwrite;

    uint64_t done = 0;     // insts retired by completed blocks
    uint64_t entered = 1;  // blocks entered (counting this one)
    uint32_t next_pc = 0;
    Block **slot = nullptr;

    // Register accessors. Contexts with raw register storage skip
    // the r0 guards: reads of slot 0 see the pinned zero, and
    // compile() never emits an ALU/Const write to r0 (rsetNZ);
    // destinations that may legally be r0 (loads, jalr links) go
    // through rset, which keeps the guard.
    auto rget = [&](unsigned r) -> uint32_t {
        if constexpr (exec_detail::kHasRawRegs<Ctx>)
            return ctx.rawRegs()[r];
        else
            return rread(ctx, r);
    };
    auto rsetNZ = [&](unsigned r, uint32_t v) {
        if constexpr (exec_detail::kHasRawRegs<Ctx>)
            ctx.rawRegs()[r] = v;
        else
            rwrite(ctx, r, v);
    };
    auto rset = [&](unsigned r, uint32_t v) {
        if constexpr (exec_detail::kHasRawRegs<Ctx>) {
            if (r != 0)
                ctx.rawRegs()[r] = v;
        } else {
            rwrite(ctx, r, v);
        }
    };

    // Indexed by MKind / TKind; must match the enum orders exactly.
    static const void *const ktab[] = {
        &&mk_end, &&mk_const, &&mk_lw, &&mk_sw, &&mk_out, &&mk_fork,
        &&mk_add, &&mk_sub, &&mk_mul, &&mk_div, &&mk_rem, &&mk_and,
        &&mk_or, &&mk_xor, &&mk_sll, &&mk_srl, &&mk_sra, &&mk_slt,
        &&mk_sltu,
        &&mk_addc, &&mk_andc, &&mk_orc, &&mk_xorc, &&mk_sltc,
        &&mk_sltuc, &&mk_sllc, &&mk_srlc, &&mk_srac,
        &&mk_gtbeq, &&mk_gtbne, &&mk_gtblt, &&mk_gtbge, &&mk_gtbltu,
        &&mk_gtbgeu,
        &&mk_gfbeq, &&mk_gfbne, &&mk_gfblt, &&mk_gfbge, &&mk_gfbltu,
        &&mk_gfbgeu,
    };
    static_assert(sizeof(ktab) / sizeof(ktab[0]) == NumMKinds);
    static const void *const ttab[] = {
        &&tk_beq, &&tk_bne, &&tk_blt, &&tk_bge, &&tk_bltu, &&tk_bgeu,
        &&tk_jreg, &&tk_halt, &&tk_fall,
    };
    static_assert(sizeof(ttab) / sizeof(ttab[0]) == NumTKinds);

    const MicroOp *m = b->body.data();
    const Terminator *t = &b->term;
    goto *ktab[static_cast<size_t>(m->kind)];

// Each handler dispatches its successor itself (threaded dispatch):
// the indirect branches are distributed, so the BTB learns the
// block's actual micro-op sequence.
#define MSSP_T2_NEXT                                                  \
    do {                                                              \
        ++m;                                                          \
        goto *ktab[static_cast<size_t>(m->kind)];                     \
    } while (0)

#define MSSP_T2_ALU_RR(name, OP)                                      \
    mk_##name: {                                                      \
        uint32_t a = rget(m->ra);                                     \
        uint32_t x = rget(m->rb);                                     \
        uint32_t o;                                                   \
        evalAlu(Opcode::OP, a, x, o);                                 \
        rsetNZ(m->rd, o);                                             \
        MSSP_T2_NEXT;                                                 \
    }

#define MSSP_T2_ALU_RC(name, OP)                                      \
    mk_##name: {                                                      \
        uint32_t a = rget(m->ra);                                     \
        uint32_t o;                                                   \
        evalAlu(Opcode::OP, a, m->c, o);                              \
        rsetNZ(m->rd, o);                                             \
        MSSP_T2_NEXT;                                                 \
    }

mk_const:
    rsetNZ(m->rd, m->c);
    MSSP_T2_NEXT;
mk_lw:
    rset(m->rd, ctx.readMem(rget(m->ra) + m->c));
    MSSP_T2_NEXT;
mk_sw:
    ctx.writeMem(rget(m->ra) + m->c, rget(m->rb));
    MSSP_T2_NEXT;
mk_out:
    ctx.output(static_cast<uint16_t>(m->c), rget(m->ra));
    MSSP_T2_NEXT;
mk_fork:
    ctx.fork(m->c);
    MSSP_T2_NEXT;

    MSSP_T2_ALU_RR(add, Add)
    MSSP_T2_ALU_RR(sub, Sub)
    MSSP_T2_ALU_RR(mul, Mul)
    MSSP_T2_ALU_RR(div, Div)
    MSSP_T2_ALU_RR(rem, Rem)
    MSSP_T2_ALU_RR(and, And)
    MSSP_T2_ALU_RR(or, Or)
    MSSP_T2_ALU_RR(xor, Xor)
    MSSP_T2_ALU_RR(sll, Sll)
    MSSP_T2_ALU_RR(srl, Srl)
    MSSP_T2_ALU_RR(sra, Sra)
    MSSP_T2_ALU_RR(slt, Slt)
    MSSP_T2_ALU_RR(sltu, Sltu)

    MSSP_T2_ALU_RC(addc, Add)
    MSSP_T2_ALU_RC(andc, And)
    MSSP_T2_ALU_RC(orc, Or)
    MSSP_T2_ALU_RC(xorc, Xor)
    MSSP_T2_ALU_RC(sltc, Slt)
    MSSP_T2_ALU_RC(sltuc, Sltu)
    MSSP_T2_ALU_RC(sllc, Sll)
    MSSP_T2_ALU_RC(srlc, Srl)
    MSSP_T2_ALU_RC(srac, Sra)

// Guard: keep running while the branch goes the compiled way, else
// side-exit with the exact retire count baked into the micro-op.
#define MSSP_T2_GUARD(name, cmp, cont_on)                             \
    mk_##name: {                                                      \
        uint32_t a = rget(m->ra);                                     \
        uint32_t bb = rget(m->rb);                                    \
        auto sa = static_cast<int32_t>(a);                            \
        auto sb = static_cast<int32_t>(bb);                           \
        (void)sa; (void)sb;                                           \
        if ((cmp) == (cont_on))                                       \
            MSSP_T2_NEXT;                                             \
        return {m->c, false, done + m->rd, entered};                  \
    }

    MSSP_T2_GUARD(gtbeq, a == bb, true)
    MSSP_T2_GUARD(gtbne, a != bb, true)
    MSSP_T2_GUARD(gtblt, sa < sb, true)
    MSSP_T2_GUARD(gtbge, sa >= sb, true)
    MSSP_T2_GUARD(gtbltu, a < bb, true)
    MSSP_T2_GUARD(gtbgeu, a >= bb, true)
    MSSP_T2_GUARD(gfbeq, a == bb, false)
    MSSP_T2_GUARD(gfbne, a != bb, false)
    MSSP_T2_GUARD(gfblt, sa < sb, false)
    MSSP_T2_GUARD(gfbge, sa >= sb, false)
    MSSP_T2_GUARD(gfbltu, a < bb, false)
    MSSP_T2_GUARD(gfbgeu, a >= bb, false)

mk_end:
    t = &b->term;
    goto *ttab[static_cast<size_t>(t->kind)];

#define MSSP_T2_BR(name, cmp)                                         \
    tk_##name: {                                                      \
        uint32_t a = rget(t->ra);                                     \
        uint32_t bb = rget(t->rb);                                    \
        auto sa = static_cast<int32_t>(a);                            \
        auto sb = static_cast<int32_t>(bb);                           \
        (void)sa; (void)sb;                                           \
        if (cmp) {                                                    \
            next_pc = t->takenPc;                                     \
            slot = &b->takenLink;                                     \
        } else {                                                      \
            next_pc = t->fallPc;                                      \
            slot = &b->fallLink;                                      \
        }                                                             \
        goto chain;                                                   \
    }

    MSSP_T2_BR(beq, a == bb)
    MSSP_T2_BR(bne, a != bb)
    MSSP_T2_BR(blt, sa < sb)
    MSSP_T2_BR(bge, sa >= sb)
    MSSP_T2_BR(bltu, a < bb)
    MSSP_T2_BR(bgeu, a >= bb)

tk_jreg: {
        uint32_t target = rget(t->ra) + t->imm;
        rset(t->rd, t->c);
        done += b->nInsts;
        budget -= b->nInsts;
        // No link slot for register-indirect targets; chain through
        // the lookup tables when the target happens to be compiled.
        Block *nb = lookup(target);
        if (nb != nullptr && nb->nInsts <= budget) {
            b = nb;
            ++entered;
            m = b->body.data();
            goto *ktab[static_cast<size_t>(m->kind)];
        }
        return {target, false, done, entered};
    }
tk_halt:
    return {t->fallPc, true, done + b->nInsts, entered};
tk_fall:
    next_pc = t->fallPc;
    slot = &b->fallLink;
    goto chain;

// Block-to-block transfer: charge the finished block, resolve the
// direct link (filling it from the lookup tables the first time), and
// jump straight into the successor's body.
chain: {
        done += b->nInsts;
        budget -= b->nInsts;
        Block *nb = *slot;
        if (nb == nullptr && (nb = lookup(next_pc)) != nullptr)
            *slot = nb;
        if (nb != nullptr && nb->nInsts <= budget) {
            b = nb;
            ++entered;
            m = b->body.data();
            goto *ktab[static_cast<size_t>(m->kind)];
        }
        return {next_pc, false, done, entered};
    }

#undef MSSP_T2_BR
#undef MSSP_T2_GUARD
#undef MSSP_T2_ALU_RC
#undef MSSP_T2_ALU_RR
#undef MSSP_T2_NEXT
}

template <class Ctx>
EngineResult
BlockJit::run(uint32_t pc, uint64_t max_steps, Ctx &ctx)
{
    syncVersion();

    EngineResult r;
    // Leaders are engine entry points and control-transfer targets;
    // only there can a block begin, so only there do we pay a lookup.
    bool at_leader = true;
    while (r.retired < max_steps) {
        if (at_leader) {
            Block *b = lookup(pc);
            if (b == nullptr)
                b = train(pc);
            if (b != nullptr && b->nInsts <= max_steps - r.retired) {
                // Fast path: the chain executor follows direct links
                // internally and comes back only at a cold edge, an
                // exhausted budget, or halt.
                ChainResult cr =
                    execChain(b, ctx, max_steps - r.retired);
                r.retired += cr.retired;
                blocks_entered_ += cr.entered;
                insts_in_blocks_ += cr.retired;
                pc = cr.pc;
                if (cr.halted) {
                    r.status = StepStatus::Halted;
                    r.pc = pc;  // pinned at the halt instruction
                    return r;
                }
                continue;  // new leader: give train() its heat tick
            }
        }
        // Deopt path: cold code or budget tail — single step.
        const Instruction &inst = dc_->at(pc);
        StepResult res = executeDecodedOn(pc, inst, ctx);
        if (res.status == StepStatus::Illegal) {
            r.status = StepStatus::Illegal;
            break;
        }
        ++r.retired;
        if (res.status == StepStatus::Halted) {
            r.status = StepStatus::Halted;
            break;
        }
        if (isCondBranch(inst.op)) {
            // Train the guard-folding heuristic while the region is
            // interpreted (it stays warm for later recompiles too).
            observeBranch(pc, res.branchTaken);
            at_leader = true;
        } else {
            at_leader = isControl(inst.op);
        }
        pc = res.nextPc;
    }
    r.pc = pc;
    return r;
}

} // namespace mssp

#endif // MSSP_EXEC_BLOCKJIT_HH
