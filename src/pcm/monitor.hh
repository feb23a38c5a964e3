/**
 * @file
 * Performance Counter Monitor facade.
 *
 * The A4 daemon on real hardware observes the system exclusively
 * through Intel PCM: per-core cache events, DDIO hit/miss, memory
 * channel bandwidth, and per-port IIO (PCIe) traffic. This facade
 * provides the same observables from the simulator's counters, with
 * the same snapshot-delta semantics (counters are monotonic; a
 * monitor holds its own previous snapshot per counter set, so
 * multiple monitors — the A4 daemon and the experiment harness —
 * never perturb each other).
 *
 * Sampling first applies any deferred (batched) device arrivals up
 * to now() through the cache's observation barrier, so a sample
 * taken mid-burst-interval reads exactly the counters a per-packet
 * event schedule would have produced. Because the A4 daemon samples
 * at the top of every tick, all of its CAT/DDIO reconfiguration
 * decisions — and the register flips themselves — land at the same
 * point of the applied access stream in both arrival modes.
 */

#ifndef A4_PCM_MONITOR_HH
#define A4_PCM_MONITOR_HH

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "iodev/pcie.hh"
#include "mem/dram.hh"
#include "sim/engine.hh"

namespace a4
{

/** Interval delta of one workload's cache/DMA events. */
struct WorkloadSample
{
    std::uint64_t mlc_hit = 0;
    std::uint64_t mlc_miss = 0;
    std::uint64_t llc_hit = 0;
    std::uint64_t llc_miss = 0;
    std::uint64_t dma_written = 0;
    std::uint64_t dma_update = 0;
    std::uint64_t dma_alloc = 0;
    std::uint64_t dma_leaked = 0;
    std::uint64_t dma_nonalloc = 0;
    std::uint64_t mem_rd_lines = 0;
    std::uint64_t mem_wr_lines = 0;
    std::uint64_t bloat_inserts = 0;
    std::uint64_t migrated = 0;

    double
    llcHitRate() const
    {
        return ratio(double(llc_hit), double(llc_hit + llc_miss));
    }

    double llcMissRate() const
    {
        return ratio(double(llc_miss), double(llc_hit + llc_miss));
    }

    double
    mlcMissRate() const
    {
        return ratio(double(mlc_miss), double(mlc_hit + mlc_miss));
    }

    /** Misses per access across the hierarchy (Fig. 3's y-axis). */
    double
    missesPerAccess() const
    {
        return ratio(double(llc_miss), double(mlc_hit + mlc_miss));
    }

    /** Fraction of DMA-written lines evicted unconsumed ("DCA miss"). */
    double
    dcaMissRate() const
    {
        return ratio(double(dma_leaked), double(dma_written));
    }
};

/** Per-port PCIe traffic during the interval. */
struct PortSample
{
    DeviceClass dev_class = DeviceClass::Other;
    std::uint64_t ingress_bytes = 0; ///< device-to-host ("PCIe write")
    std::uint64_t egress_bytes = 0;
};

/** System-wide interval sample. */
struct SystemSample
{
    Tick interval_ns = 0;
    std::uint64_t mem_rd_bytes = 0;
    std::uint64_t mem_wr_bytes = 0;
    std::vector<PortSample> ports;

    double
    memReadBwBps() const
    {
        return interval_ns
                   ? double(mem_rd_bytes) * 1e9 / double(interval_ns)
                   : 0.0;
    }

    double
    memWriteBwBps() const
    {
        return interval_ns
                   ? double(mem_wr_bytes) * 1e9 / double(interval_ns)
                   : 0.0;
    }

    /** Total device-to-host bytes this interval. */
    std::uint64_t
    totalIngress() const
    {
        std::uint64_t sum = 0;
        for (const auto &p : ports)
            sum += p.ingress_bytes;
        return sum;
    }

    /** Share of ingress contributed by one port, in [0, 1]. */
    double
    ingressShare(PortId port) const
    {
        std::uint64_t total = totalIngress();
        if (!total || port >= ports.size())
            return 0.0;
        return double(ports[port].ingress_bytes) / double(total);
    }
};

/** Snapshot-delta monitor over the simulated counters. */
class PcmMonitor
{
  public:
    PcmMonitor(Engine &eng, CacheSystem &cache, Dram &dram,
               PcieTopology &pcie)
        : eng(eng), cache(cache), dram(dram), pcie(pcie)
    {}

    /** Delta of @p id's counters since this monitor's last sample. */
    WorkloadSample sampleWorkload(WorkloadId id);

    /** Delta of system-wide counters since the last system sample. */
    SystemSample sampleSystem();

  private:
    struct WlPrev
    {
        std::uint64_t mlc_hit = 0, mlc_miss = 0;
        std::uint64_t llc_hit = 0, llc_miss = 0;
        std::uint64_t dma_written = 0, dma_update = 0, dma_alloc = 0;
        std::uint64_t dma_leaked = 0, dma_nonalloc = 0;
        std::uint64_t mem_rd = 0, mem_wr = 0;
        std::uint64_t bloat = 0, migrated = 0;
    };

    struct PortPrev
    {
        std::uint64_t ingress = 0, egress = 0;
    };

    Engine &eng;
    CacheSystem &cache;
    Dram &dram;
    PcieTopology &pcie;

    std::unordered_map<WorkloadId, WlPrev> prev_wl;
    std::vector<PortPrev> prev_ports;
    std::uint64_t prev_rd = 0;
    std::uint64_t prev_wr = 0;
    Tick prev_time = 0;
};

} // namespace a4

#endif // A4_PCM_MONITOR_HH
