/**
 * @file
 * A deliberately naive reference model of the cache hierarchy, used as
 * a differential oracle for CacheSystem.
 *
 * It is written from the ten placement rules in the header comment of
 * cache/hierarchy.hh, not from hierarchy.cc, and picks the obvious
 * layout over a fast one: a struct per way, a std::vector of ways per
 * set, and LRU kept as a recency list of way indices. SRRIP runs the
 * textbook loop (evict the first way at RRPV 3, else age every
 * candidate and rescan). Where the rules leave a choice open, the
 * readings it implements are listed in docs/ARCHITECTURE.md ("Cache
 * model readings").
 */

#ifndef A4_TESTS_ORACLE_REF_CACHE_HH
#define A4_TESTS_ORACLE_REF_CACHE_HH

#include <span>
#include <vector>

#include "cache/counters.hh"
#include "cache/geometry.hh"
#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"

namespace a4::test
{

class RefCache
{
  public:
    RefCache(const CacheGeometry &geom, const CacheLatencies &lat,
             Dram &dram, const CatController &cat);

    AccessResult coreRead(Tick now, CoreId core, Addr addr, WorkloadId wl);
    AccessResult coreWrite(Tick now, CoreId core, Addr addr, WorkloadId wl);
    void dmaWriteLine(Tick now, Addr addr, WorkloadId owner,
                      std::span<const CoreId> consumers, bool allocating);
    bool dmaReadLine(Tick now, Addr addr, WorkloadId owner,
                     std::span<const CoreId> cores);

    /** @name The line runs, replayed as that many single-line calls.
     *  @{ */
    template <typename OnLine>
    void
    coreRun(Tick now, CoreId core, Addr addr, std::uint64_t lines,
            WorkloadId wl, bool is_write, OnLine &&on_line)
    {
        for (std::uint64_t i = 0; i < lines; ++i) {
            const Addr a = addr + i * kLineBytes;
            on_line(is_write ? coreWrite(now, core, a, wl)
                             : coreRead(now, core, a, wl));
        }
    }

    void
    dmaWriteRun(Tick now, Addr addr, std::uint64_t lines, WorkloadId owner,
                std::span<const CoreId> consumers, bool allocating)
    {
        for (std::uint64_t i = 0; i < lines; ++i)
            dmaWriteLine(now, addr + i * kLineBytes, owner, consumers,
                         allocating);
    }

    std::uint64_t
    dmaReadRun(Tick now, Addr addr, std::uint64_t lines, WorkloadId owner,
               std::span<const CoreId> cores)
    {
        std::uint64_t served = 0;
        for (std::uint64_t i = 0; i < lines; ++i)
            served += dmaReadLine(now, addr + i * kLineBytes, owner, cores);
        return served;
    }
    /** @} */

    WorkloadCounters &wl(WorkloadId id);
    const GlobalCacheCounters &global() const { return gstats; }
    std::vector<std::uint64_t> llcWayOccupancyOf(WorkloadId id) const;

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        bool dirty = false;
        bool io = false;
        bool consumed = false;
        bool in_mlc = false; ///< LLC only: an MLC holds a copy too
        CoreId mlc_core = 0; ///< LLC only: the core holding that copy
        WorkloadId owner = 0;
        unsigned rrpv = 0;   ///< LLC under SRRIP
    };

    struct Set
    {
        std::vector<Way> ways;
        std::vector<unsigned> recency; ///< way indices, LRU first
    };

    enum class Cause { Capacity, Migration, DmaAlloc };

    AccessResult access(Tick now, CoreId core, Addr line, WorkloadId wl,
                        bool write);
    Set &llcSet(Addr line);
    Set &mlcSet(CoreId core, Addr line);
    static int find(const Set &s, Addr line);
    static void touchLru(Set &s, unsigned way);
    void touchLlc(Set &s, unsigned way);
    unsigned llcAllocate(Tick now, Set &s, const Way &fill, WayMask mask,
                         Cause cause);
    void llcEvict(Tick now, Set &s, unsigned way, Cause cause);
    void mlcFill(Tick now, CoreId core, const Way &fill);
    void dropMlcCopy(CoreId core, Addr line);

    CacheGeometry geom;
    CacheLatencies lat;
    Dram &dram;
    const CatController &cat;
    std::vector<Set> llc;
    std::vector<Set> mlc; ///< core-major
    std::vector<WorkloadCounters> wl_stats;
    GlobalCacheCounters gstats;
};

} // namespace a4::test

#endif // A4_TESTS_ORACLE_REF_CACHE_HH
