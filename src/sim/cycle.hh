/**
 * @file
 * Simulated time.
 */

#ifndef MSSP_SIM_CYCLE_HH
#define MSSP_SIM_CYCLE_HH

#include <cstdint>

namespace mssp
{

/** Simulation time in cycles. */
using Cycle = uint64_t;

} // namespace mssp

#endif // MSSP_SIM_CYCLE_HH
