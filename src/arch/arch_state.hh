/**
 * @file
 * The architected (non-speculative) machine state.
 *
 * This is the state the formal model calls S: every ISA-visible cell.
 * In an MSSP machine it is the contents of the shared L2/DRAM plus the
 * architected register file; it is only ever modified by the
 * verify/commit unit (task commit) or by non-speculative sequential
 * execution.
 */

#ifndef MSSP_ARCH_ARCH_STATE_HH
#define MSSP_ARCH_ARCH_STATE_HH

#include <array>
#include <cstdint>

#include "arch/cell.hh"
#include "arch/paged_mem.hh"
#include "asm/program.hh"

namespace mssp
{

/** Full architected state: registers, PC and memory. */
class ArchState
{
  public:
    ArchState() { regs_.fill(0); }

    // -- Register / memory / pc accessors --------------------------------

    uint32_t
    readReg(unsigned r) const
    {
        return r == 0 ? 0 : regs_[r];
    }

    void
    writeReg(unsigned r, uint32_t v)
    {
        if (r != 0)
            regs_[r] = v;
    }

    /**
     * Raw register storage for trusted hot loops (the blockjit chain
     * executor). Slot 0 is pinned to zero — zero-filled at
     * construction and never written by writeReg — so reads may index
     * it unguarded; callers must never store through index 0.
     */
    uint32_t *rawRegs() { return regs_.data(); }

    uint32_t readMem(uint32_t addr) const { return mem_.read(addr); }
    void writeMem(uint32_t addr, uint32_t v) { mem_.write(addr, v); }

    uint32_t pc() const { return pc_; }
    void setPc(uint32_t pc) { pc_ = pc; }

    // -- Cell-granular interface (used by verify/commit) -----------------

    /** Read any cell by id. */
    uint32_t
    readCell(CellId cell) const
    {
        switch (cellKind(cell)) {
          case CellKind::Reg:
            return readReg(cellIndex(cell));
          case CellKind::Mem:
            return readMem(cellIndex(cell));
          case CellKind::Pc:
            return pc_;
        }
        return 0;
    }

    /** Write any cell by id. */
    void
    writeCell(CellId cell, uint32_t v)
    {
        switch (cellKind(cell)) {
          case CellKind::Reg:
            writeReg(cellIndex(cell), v);
            break;
          case CellKind::Mem:
            writeMem(cellIndex(cell), v);
            break;
          case CellKind::Pc:
            pc_ = v;
            break;
        }
    }

    // -- Program loading --------------------------------------------------

    /** Load a program image and set the PC to its entry. */
    void loadProgram(const Program &prog);

    /** Retired (committed) instruction count. */
    uint64_t instret() const { return instret_; }
    void addInstret(uint64_t n) { instret_ += n; }

    const PagedMem &mem() const { return mem_; }
    const std::array<uint32_t, NumRegs> &regs() const { return regs_; }

  private:
    std::array<uint32_t, NumRegs> regs_;
    uint32_t pc_ = 0;
    uint64_t instret_ = 0;
    PagedMem mem_;
};

} // namespace mssp

#endif // MSSP_ARCH_ARCH_STATE_HH
