/**
 * @file
 * Two-pass μRISC assembler.
 *
 * Syntax overview (see README for the full reference):
 *
 *   ; comment   # comment   // comment
 *   .org 0x1000          set the location counter
 *   .equ NAME, expr      define an assembly-time constant
 *   .entry label         set the program entry point
 *   .word v, v, ...      emit data words (numbers or symbols)
 *   .space n             reserve n zero words
 *   label:               define a label (may share a line with code)
 *
 *   add rd, rs1, rs2     R-type ops
 *   addi rd, rs1, imm    I-type ops
 *   lw rd, off(rs1)      load;  sw rs2, off(rs1)  store
 *   beq rs1, rs2, label  branches
 *   jal rd, label        jump-and-link; jalr rd, rs1, imm
 *   out rs, port         program output
 *
 * Pseudo-instructions: li, la, mv, j, call, ret, beqz, bnez, bgt,
 * ble, bgtu, bleu, neg, subi, nop, halt.
 *
 * Note on logical immediates: andi/ori/xori zero-extend their 16-bit
 * immediate (MIPS-style) so that `lui+ori` composes 32-bit constants;
 * addi/slti/sltiu sign-extend.
 */

#ifndef MSSP_ASM_ASSEMBLER_HH
#define MSSP_ASM_ASSEMBLER_HH

#include <string>

#include "asm/program.hh"

namespace mssp
{

/**
 * Assemble μRISC source text into a Program.
 *
 * @param source full assembly source
 * @return the assembled program
 * @throws FatalError with a "line N: ..." message on any syntax or
 *         range error
 */
Program assemble(const std::string &source);

} // namespace mssp

#endif // MSSP_ASM_ASSEMBLER_HH
