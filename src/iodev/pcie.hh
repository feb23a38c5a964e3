/**
 * @file
 * PCIe root-port registry with per-port traffic accounting.
 *
 * Each attached I/O device (NIC, SSD array) owns one root port. The
 * port records ingress (device-to-host DMA write) and egress
 * (host-to-device DMA read) byte counters; A4's DMA-leak detector
 * reads per-class PCIe write throughput from here, exactly as the
 * real daemon reads IIO counters through PCM.
 */

#ifndef A4_IODEV_PCIE_HH
#define A4_IODEV_PCIE_HH

#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace a4
{

/** Broad device class, used by policy (network vs storage). */
enum class DeviceClass { Network, Storage, Other };

/** One PCIe root port with an attached device. */
struct PciePort
{
    std::string name;
    DeviceClass dev_class = DeviceClass::Other;
    /** Device-to-host DMA write bytes ("PCIe write" in the paper). */
    SnapshotCounter ingress_bytes;
    /** Host-to-device DMA read bytes. */
    SnapshotCounter egress_bytes;
};

/** Registry of root ports. */
class PcieTopology
{
  public:
    /** Register a port; returns its id. */
    PortId
    addPort(const std::string &name, DeviceClass cls)
    {
        ports_.push_back(PciePort{name, cls, {}, {}});
        return static_cast<PortId>(ports_.size() - 1);
    }

    PciePort &
    port(PortId id)
    {
        if (id >= ports_.size())
            fatal(sformat("PCIe: port %u out of range", id));
        return ports_[id];
    }

    const PciePort &
    port(PortId id) const
    {
        if (id >= ports_.size())
            fatal(sformat("PCIe: port %u out of range", id));
        return ports_[id];
    }

    unsigned numPorts() const
    {
        return static_cast<unsigned>(ports_.size());
    }

  private:
    std::vector<PciePort> ports_;
};

} // namespace a4

#endif // A4_IODEV_PCIE_HH
