/**
 * @file
 * DMA engine: the path every device transfer takes into the hierarchy.
 *
 * Consults the DDIO controller per write to choose the allocating
 * (DCA) or non-allocating flow, and accounts per-port PCIe traffic.
 */

#ifndef A4_IODEV_DMA_HH
#define A4_IODEV_DMA_HH

#include <span>

#include "cache/hierarchy.hh"
#include "iodev/ddio.hh"
#include "iodev/pcie.hh"
#include "sim/types.hh"

namespace a4
{

/** Device-side DMA into/out of the cache hierarchy. */
class DmaEngine
{
  public:
    DmaEngine(CacheSystem &cache, DdioController &ddio, PcieTopology &pcie)
        : cache(cache), ddio(ddio), pcie(pcie)
    {}

    /** The hierarchy this engine writes into. Devices that batch
     *  their accesses (Nic) register with it as DeferredIoSources. */
    CacheSystem &cacheSystem() { return cache; }

    /**
     * Device-to-host write of @p bytes starting at @p addr.
     * Line-granular; partial tail lines count as whole lines, as on
     * the wire.
     */
    void
    write(Tick now, PortId port, Addr addr, std::uint64_t bytes,
          WorkloadId owner, std::span<const CoreId> consumers)
    {
        cache.dmaWriteRun(now, addr, linesIn(bytes), owner, consumers,
                          ddio.allocatingWrites(port));
        pcie.port(port).ingress_bytes.add(bytes);
    }

    /** Host-to-device read (egress) of @p bytes starting at @p addr. */
    void
    read(Tick now, PortId port, Addr addr, std::uint64_t bytes,
         WorkloadId owner, std::span<const CoreId> cores)
    {
        cache.dmaReadRun(now, addr, linesIn(bytes), owner, cores);
        pcie.port(port).egress_bytes.add(bytes);
    }

  private:
    CacheSystem &cache;
    DdioController &ddio;
    PcieTopology &pcie;
};

} // namespace a4

#endif // A4_IODEV_DMA_HH
