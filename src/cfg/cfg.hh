/**
 * @file
 * Control-flow graph over a μRISC binary.
 *
 * The CFG is reconstructed by decoding reachable code from the entry
 * point: branch targets, jump targets, call targets and call return
 * points all become block leaders. Indirect jumps (jalr) have unknown
 * targets; the CFG treats them as graph exits and the liveness
 * analysis assumes everything is live across them, which is the
 * conservative choice for the distiller (DESIGN.md §3.9: indirect
 * control flow is only used for returns in our workloads, and return
 * points are discovered via the corresponding call).
 */

#ifndef MSSP_CFG_CFG_HH
#define MSSP_CFG_CFG_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "asm/program.hh"
#include "isa/isa.hh"

namespace mssp
{

/** How a basic block transfers control. */
enum class TermKind : uint8_t
{
    FallThrough,    ///< runs into the next block
    CondBranch,     ///< two successors: taken target + fallthrough
    Jump,           ///< jal (unconditional; may also be a call)
    IndirectJump,   ///< jalr: unknown target, treated as an exit
    Halt,           ///< halt instruction
    Fault,          ///< undecodable instruction terminates the block
};

/** A maximal straight-line sequence of instructions. */
struct BasicBlock
{
    uint32_t start = 0;                 ///< PC of the first instruction
    std::vector<Instruction> insts;     ///< all instructions, in order
    TermKind term = TermKind::FallThrough;

    /** Taken target (CondBranch) or jump target (Jump). */
    uint32_t takenTarget = 0;
    /** Fallthrough PC (CondBranch / FallThrough / call return). */
    uint32_t fallthrough = 0;
    /** True when the terminator is a jal with rd != 0 (a call). */
    bool isCall = false;

    /** All successor block-start PCs. */
    std::vector<uint32_t> succs;

    /** PC of the i-th instruction. */
    uint32_t pcOf(size_t i) const
    {
        return start + static_cast<uint32_t>(i);
    }

    /** PC one past the last instruction. */
    uint32_t
    endPc() const
    {
        return start + static_cast<uint32_t>(insts.size());
    }
};

/** The control-flow graph of one program. */
class Cfg
{
  public:
    /**
     * Build the CFG of @p prog starting at @p entry.
     *
     * @p extra_roots adds more discovery roots (and block leaders):
     * code only reachable through an indirect transfer whose targets
     * the caller knows, e.g. the restart points of a distilled image
     * (mssp-lint) whose calls are laid out as plain jumps.
     */
    static Cfg build(const Program &prog, uint32_t entry,
                     const std::vector<uint32_t> &extra_roots = {});

    /** Entry plus the extra roots that named existing code. */
    const std::vector<uint32_t> &roots() const { return roots_; }

    const std::map<uint32_t, BasicBlock> &blocks() const
    {
        return blocks_;
    }

    bool hasBlock(uint32_t start) const { return blocks_.count(start); }

    const BasicBlock &
    blockAt(uint32_t start) const
    {
        return blocks_.at(start);
    }

    /** Predecessor block-start PCs of a block. */
    const std::vector<uint32_t> &preds(uint32_t start) const;

    uint32_t entry() const { return entry_; }

    /**
     * Loop headers: targets of back edges found by DFS from the
     * entry (an edge u->v is a back edge when v is on the DFS stack).
     */
    const std::set<uint32_t> &loopHeaders() const
    {
        return loop_headers_;
    }

    /** Total number of instructions across all blocks. */
    size_t numInsts() const;

    /** Multi-line dump (block leaders, terminators, successors). */
    std::string toString() const;

  private:
    std::map<uint32_t, BasicBlock> blocks_;
    std::map<uint32_t, std::vector<uint32_t>> preds_;
    std::set<uint32_t> loop_headers_;
    std::vector<uint32_t> roots_;
    uint32_t entry_ = 0;

    void computeLoopHeaders();
};

/** Register bitmask: bit r set means register r is in the set. */
using RegMask = uint32_t;

/** Per-block liveness results. */
struct BlockLiveness
{
    RegMask liveIn = 0;
    RegMask liveOut = 0;
};

/**
 * Global backward register-liveness analysis.
 *
 * Indirect jumps and faults are treated as "all registers live";
 * halt blocks have empty live-out (memory effects are never subject
 * to liveness). Implemented on the shared dataflow solver in
 * src/analysis/liveness.cc.
 *
 * @return per-block live-in/live-out masks keyed by block start PC
 */
std::map<uint32_t, BlockLiveness> computeLiveness(const Cfg &cfg);

/** def/use masks of one instruction (for in-block backward walks). */
void instDefUse(const Instruction &inst, RegMask &def, RegMask &use);

} // namespace mssp

#endif // MSSP_CFG_CFG_HH
