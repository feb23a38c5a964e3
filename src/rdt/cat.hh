/**
 * @file
 * Intel Cache Allocation Technology (CAT) model.
 *
 * Mirrors the semantics of the real intel-cmt-cat/pqos interface that
 * the A4 daemon drives:
 *  - a small number of classes of service (CLOS), each with an 11-bit
 *    LLC capacity mask;
 *  - masks must be contiguous and non-empty (hardware restriction);
 *  - each core is associated with exactly one CLOS;
 *  - masks constrain only *new* allocations — changing a mask never
 *    flushes lines already resident.
 *
 * Way-index convention: way 0 is the leftmost LLC way (the first DCA
 * way); way 10 is the rightmost (the last inclusive way). The paper
 * prints masks with way 0 as the most-significant bit (way[0:1] =
 * 0x600); paperHex() converts to that convention for display.
 */

#ifndef A4_RDT_CAT_HH
#define A4_RDT_CAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace a4
{

/** Bit i set = way i may be allocated (internal convention). */
using WayMask = std::uint32_t;

/** CAT controller: CLOS masks + core association. */
class CatController
{
  public:
    /**
     * @param num_ways LLC associativity (11 on Skylake-SP).
     * @param num_cores cores on the socket.
     * @param num_clos classes of service (16 on Skylake-SP).
     */
    CatController(unsigned num_ways, unsigned num_cores,
                  unsigned num_clos = 16);

    /** Number of LLC ways under management. */
    unsigned numWays() const { return n_ways; }

    /** Number of classes of service. */
    unsigned numClos() const { return static_cast<unsigned>(masks.size()); }

    /**
     * Program the capacity mask of a CLOS.
     * @throws FatalError if the mask is empty, non-contiguous, or has
     *         bits beyond the way count (same rejection as pqos).
     */
    void setClosMask(unsigned clos, WayMask mask);

    /** Current mask of a CLOS. */
    WayMask closMask(unsigned clos) const;

    /** Associate a core with a CLOS. */
    void assignCore(CoreId core, unsigned clos);

    /** CLOS a core is associated with (default 0). */
    unsigned closOfCore(CoreId core) const;

    /** Allocation mask in force for a core. */
    WayMask maskForCore(CoreId core) const;

    /** Reset every CLOS to the full mask and all cores to CLOS 0. */
    void resetAll();

    /** True iff the set bits of @p mask form one contiguous run. */
    static bool isContiguous(WayMask mask);

    /** Mask covering ways [lo, hi] inclusive (paper "way[lo:hi]"). */
    static WayMask makeMask(unsigned lo_way, unsigned hi_way);

    /** Full mask for @p ways ways. */
    static WayMask fullMask(unsigned ways) { return (1u << ways) - 1; }

    /** Render in the paper's hex convention (way 0 = MSB). */
    std::string paperHex(WayMask mask) const;

  private:
    void checkClos(unsigned clos) const;

    unsigned n_ways;
    std::vector<WayMask> masks;
    std::vector<unsigned> core_clos;
};

/** One tenant's observed signals for CLOS grouping. */
struct ClosTenant
{
    unsigned id = 0;        ///< stable tie-break (workload id)
    double miss_rate = 0.0; ///< observed LLC miss rate
    double mpa = 0.0;       ///< observed LLC misses per MLC access
};

/**
 * IOCA-style tenant grouping under CLOS exhaustion: cluster
 * @p tenants into at most @p budget groups by miss-rate/MPA
 * similarity (hardware exposes ~16 CLOS; a fleet-scale tenant count
 * cannot get one each, so tenants with similar cache behavior share
 * one).
 *
 * The tenants sort by (miss_rate, mpa, id) and the sorted sequence
 * splits at the budget-1 widest miss-rate gaps (ties broken by MPA
 * gap, then by position), so the clustering is deterministic for
 * deterministic inputs. Returns one group index in [0, budget) per
 * tenant, parallel to the input order; with budget >= tenants each
 * tenant gets its own group. @p budget must be nonzero.
 */
std::vector<unsigned> groupTenants(const std::vector<ClosTenant> &tenants,
                                   unsigned budget);

} // namespace a4

#endif // A4_RDT_CAT_HH
