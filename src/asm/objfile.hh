/**
 * @file
 * Object-file serialization.
 *
 * A simple line-oriented text format ("mssp-object v1") that stores a
 * Program (image + entry + symbols), and an extended form
 * ("mssp-distilled v1") that additionally stores a DistilledProgram's
 * task map, per-site fork intervals, entry map, address map and
 * report. Used by the CLI tools (tools/) so the assemble / distill /
 * run steps can be separate processes, like a real toolchain.
 *
 * The loaders (loadProgram/loadDistilled) are the trust boundary for
 * bytes read from disk: malformed input throws FatalError with a line
 * number, which every CLI catches, and nothing else. All paths are
 * bounds-checked; in particular a hostile `fork` index cannot force a
 * multi-gigabyte task-map allocation (kMaxForkIndex). The seeded
 * mutation fuzzer (tests/test_objfile_fuzz.cpp) drives these loaders
 * and asserts no crash and no rejection other than a FatalError.
 */

#ifndef MSSP_ASM_OBJFILE_HH
#define MSSP_ASM_OBJFILE_HH

#include <string>

#include "asm/program.hh"
#include "distill/distiller.hh"

namespace mssp
{

/** Serialize a Program. */
std::string saveProgram(const Program &prog);

/** Parse a Program; fatal() with a line number on malformed input. */
Program loadProgram(const std::string &text);

/** Serialize a DistilledProgram. */
std::string saveDistilled(const DistilledProgram &dist);

/** Parse a DistilledProgram; fatal() on malformed input. */
DistilledProgram loadDistilled(const std::string &text);

/** Largest accepted `fork` site index. Generous (the distiller emits
 *  a few dozen sites) while keeping the task-map allocation a
 *  malformed or hostile index can force bounded. */
constexpr size_t kMaxForkIndex = 1u << 20;

} // namespace mssp

#endif // MSSP_ASM_OBJFILE_HH
