#include "harness/testbed.hh"

#include "sim/log.hh"

namespace a4
{

Testbed::Testbed(const ServerConfig &config)
    : cfg(config), dram_(cfg.dramConfig()),
      cat_(cfg.geometry.llc_ways, cfg.geometry.num_cores),
      ddio_(cfg.max_ports, cfg.dca_ways),
      cache_(std::make_unique<CacheSystem>(cfg.scaledGeometry(),
                                           cfg.latencies, dram_, cat_)),
      dma_(*cache_, ddio_, pcie_)
{
}

Nic &
Testbed::addNic(NicConfig nic_cfg)
{
    PortId port = pcie_.addPort(sformat("nic%zu", nics_.size()),
                                DeviceClass::Network);
    // Bandwidth and ring capacity scale with the machine.
    nic_cfg.offered_gbps /= cfg.scale;
    nic_cfg.ring_entries =
        std::max(16u, nic_cfg.ring_entries / cfg.scale);
    nics_.push_back(std::make_unique<Nic>(eng, dma_, addrs_, port,
                                          nic_cfg));
    return *nics_.back();
}

SsdArray &
Testbed::addSsd(SsdConfig ssd_cfg, const std::string &name)
{
    PortId port = pcie_.addPort(name, DeviceClass::Storage);
    ssd_cfg.link_bw_bps /= cfg.scale;
    ssds_.push_back(std::make_unique<SsdArray>(eng, dma_, port,
                                               ssd_cfg));
    return *ssds_.back();
}

std::vector<CoreId>
Testbed::allocCores(unsigned n)
{
    if (next_core + n > cfg.geometry.num_cores)
        fatal(sformat("Testbed: out of cores (%u requested, %u free)",
                      n, cfg.geometry.num_cores - next_core));
    std::vector<CoreId> out;
    out.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        out.push_back(next_core++);
    return out;
}

} // namespace a4
