/**
 * @file
 * The profiling executor.
 *
 * Runs a program sequentially (training input) while recording the
 * profile the distiller consumes. Implemented as its own ExecContext
 * so that per-access observations (loaded values, silent stores) are
 * captured without burdening the hot SEQ/slave execution paths.
 */

#ifndef MSSP_PROFILE_PROFILER_HH
#define MSSP_PROFILE_PROFILER_HH

#include <cstdint>

#include "asm/program.hh"
#include "profile/profile_data.hh"

namespace mssp
{

/**
 * Execute @p prog for up to @p max_insts instructions, collecting a
 * ProfileData. The run is purely observational: program semantics are
 * identical to SEQ. Observation rides a per-step hook on the reference
 * engine.
 */
ProfileData profileProgram(const Program &prog, uint64_t max_insts);

} // namespace mssp

#endif // MSSP_PROFILE_PROFILER_HH
