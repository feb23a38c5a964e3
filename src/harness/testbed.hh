/**
 * @file
 * Experiment testbed: owns every substrate and wires them together
 * exactly as Table 1 describes the server machine.
 *
 * A Testbed is the programmatic equivalent of the paper's server:
 * one socket (18 cores, 11-way 24.75 MiB LLC), a 100 Gbps NIC port,
 * and NVMe SSD ports, plus the control plane (CAT, DDIO registers)
 * and PCM. Benches and examples construct one, add devices and
 * workloads, pick a management scheme, and run warm-up/measure
 * windows.
 *
 * `ServerConfig::scale` divides every capacity (cache sets, working
 * sets, bandwidths) by the same factor so that all the paper's
 * capacity ratios are preserved while simulation runs fast; reported
 * throughputs are scaled back to paper-equivalent units.
 */

#ifndef A4_HARNESS_TESTBED_HH
#define A4_HARNESS_TESTBED_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/a4.hh"
#include "core/baseline.hh"
#include "iodev/ddio.hh"
#include "iodev/dma.hh"
#include "iodev/nic.hh"
#include "iodev/nvme.hh"
#include "iodev/pcie.hh"
#include "mem/dram.hh"
#include "pcm/monitor.hh"
#include "rdt/cat.hh"
#include "sim/addrmap.hh"
#include "sim/engine.hh"
#include "workload/workload.hh"

namespace a4
{

/** Server-machine configuration (Table 1 defaults). */
struct ServerConfig
{
    /** Capacity divisor: caches, buffers, and bandwidths all / scale. */
    unsigned scale = 1;

    CacheGeometry geometry;    ///< pre-scale geometry
    CacheLatencies latencies;
    double mem_peak_bw_bps = 128e9; ///< 6-channel DDR4, pre-scale
    double mem_base_latency_ns = 90.0;

    unsigned max_ports = 8;
    unsigned dca_ways = 2;

    /** Scale-adjusted geometry. */
    CacheGeometry
    scaledGeometry() const
    {
        return geometry.scaled(scale);
    }

    /** Scale-adjusted DRAM configuration. */
    DramConfig
    dramConfig() const
    {
        DramConfig d;
        d.base_latency_ns = mem_base_latency_ns;
        d.peak_bw_bps = mem_peak_bw_bps / scale;
        return d;
    }

    /** Full-fidelity configuration (slow; for spot-validation). */
    static ServerConfig paper() { return ServerConfig{}; }

    /**
     * Fast configuration for benches/tests: capacities and bandwidths
     * scaled by 1/4, preserving every ratio in the paper.
     */
    static ServerConfig
    fast()
    {
        ServerConfig c;
        c.scale = 4;
        return c;
    }
};

/** The assembled server machine. */
class Testbed
{
  public:
    explicit Testbed(const ServerConfig &cfg = ServerConfig::fast());

    /** @name Substrate access. @{ */
    Engine &engine() { return eng; }
    Dram &dram() { return dram_; }
    CatController &cat() { return cat_; }
    DdioController &ddio() { return ddio_; }
    PcieTopology &pcie() { return pcie_; }
    CacheSystem &cache() { return *cache_; }
    DmaEngine &dma() { return dma_; }
    AddressMap &addrs() { return addrs_; }
    const ServerConfig &config() const { return cfg; }
    /** @} */

    /** Attach a NIC on a fresh PCIe port (bandwidth pre-scale Gbps). */
    Nic &addNic(NicConfig cfg);

    /** Attach an SSD array on a fresh port (bandwidth pre-scale). */
    SsdArray &addSsd(SsdConfig cfg, const std::string &name = "ssd");

    /** Next unused workload id (ids are dense, starting at 1). */
    WorkloadId allocWorkloadId() { return next_wl_id++; }

    /** Allocate @p n consecutive cores (fatal when exhausted). */
    std::vector<CoreId> allocCores(unsigned n);

    /** Track a workload object (keeps ownership; returns ref). */
    template <typename T>
    T &
    adopt(std::unique_ptr<T> w)
    {
        T &ref = *w;
        workloads_.push_back(std::move(w));
        return ref;
    }

    const std::vector<std::unique_ptr<Workload>> &
    workloads() const
    {
        return workloads_;
    }

    /** Fresh monitor with its own snapshot state. */
    PcmMonitor
    makeMonitor()
    {
        return PcmMonitor(eng, *cache_, dram_, pcie_);
    }

    /** Build a WorkloadDesc for registration with a manager. */
    static WorkloadDesc
    describe(const Workload &w, QosPriority prio)
    {
        WorkloadDesc d;
        d.id = w.id();
        d.name = w.name();
        d.cores = w.cores();
        d.priority = prio;
        d.is_io = w.isIo();
        d.port = w.ioPort();
        d.io_class = w.ioClass();
        return d;
    }

    /** Run all started actors for @p duration simulated time. */
    void
    run(Tick duration)
    {
        eng.runFor(duration);
    }

  private:
    ServerConfig cfg;
    Engine eng;
    Dram dram_;
    CatController cat_;
    DdioController ddio_;
    PcieTopology pcie_;
    std::unique_ptr<CacheSystem> cache_;
    DmaEngine dma_;
    AddressMap addrs_;

    std::vector<std::unique_ptr<Nic>> nics_;
    std::vector<std::unique_ptr<SsdArray>> ssds_;
    std::vector<std::unique_ptr<Workload>> workloads_;

    WorkloadId next_wl_id = 1;
    CoreId next_core = 0;
};

} // namespace a4

#endif // A4_HARNESS_TESTBED_HH
