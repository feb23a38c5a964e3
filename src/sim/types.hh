/**
 * @file
 * Fundamental scalar types and unit constants shared by every module.
 */

#ifndef A4_SIM_TYPES_HH
#define A4_SIM_TYPES_HH

#include <cstdint>

namespace a4
{

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** Dense identifier of a registered workload (0 is reserved: "none"). */
using WorkloadId = std::uint16_t;

/** Dense identifier of a CPU core. */
using CoreId = std::uint16_t;

/** Identifier of a PCIe root port (one per attached I/O device). */
using PortId = std::uint16_t;

/** Workload id meaning "no workload / unattributed". */
inline constexpr WorkloadId kNoWorkload = 0;

/** @name Time units (all Ticks are nanoseconds). @{ */
inline constexpr Tick kNsec = 1;
inline constexpr Tick kUsec = 1000;
inline constexpr Tick kMsec = 1000 * kUsec;
inline constexpr Tick kSec = 1000 * kMsec;
/** @} */

/** @name Capacity units. @{ */
inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;
/** @} */

/** Cache line geometry (fixed, as on all modeled CPUs). */
inline constexpr unsigned kLineShift = 6;
inline constexpr unsigned kLineBytes = 1u << kLineShift;

/** Simulated address-space size: the cache model keeps line numbers
 *  in a 32-bit field, so addresses stay below 2^(32 + kLineShift). */
inline constexpr unsigned kLineFieldBits = 32;
inline constexpr std::uint64_t kAddrSpaceBytes =
    std::uint64_t(1) << (kLineFieldBits + kLineShift);

/** Align @p bytes up to a whole number of cache lines. */
constexpr std::uint64_t
linesIn(std::uint64_t bytes)
{
    return (bytes + kLineBytes - 1) >> kLineShift;
}

/** Line-granular address (byte address with the offset stripped). */
constexpr Addr
lineOf(Addr byte_addr)
{
    return byte_addr >> kLineShift;
}

} // namespace a4

#endif // A4_SIM_TYPES_HH
