/**
 * @file
 * Simulated physical address allocator.
 *
 * Buffers (rings, I/O buffers, working sets, KV stores) are carved out
 * of a single flat address space with a bump allocator. Regions are
 * page-aligned and never recycled — the space is 64-bit, and keeping
 * regions disjoint makes ownership unambiguous in the cache model.
 */

#ifndef A4_SIM_ADDRMAP_HH
#define A4_SIM_ADDRMAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace a4
{

/** Flat bump allocator for simulated physical memory regions. */
class AddressMap
{
  public:
    struct Region
    {
        std::string name;
        Addr base;
        std::uint64_t bytes;
    };

    AddressMap() : next(0x1000'0000ull) {}

    /** Allocate @p bytes (page-aligned); returns the base address. */
    Addr
    alloc(std::uint64_t bytes, const std::string &name = "")
    {
        if (bytes == 0)
            fatal("AddressMap: zero-byte allocation for '" + name + "'");
        constexpr std::uint64_t page = 4096;
        if (bytes > kAddrSpaceBytes - next)
            fatal(sformat("AddressMap: allocating %llu bytes for '%s' "
                          "passes the 2^%u-byte address space",
                          static_cast<unsigned long long>(bytes),
                          name.c_str(), kLineFieldBits + kLineShift));
        Addr base = next;
        next += (bytes + page - 1) & ~(page - 1);
        regions_.push_back(Region{name, base, bytes});
        return base;
    }

    const std::vector<Region> &regions() const { return regions_; }

  private:
    Addr next;
    std::vector<Region> regions_;
};

} // namespace a4

#endif // A4_SIM_ADDRMAP_HH
