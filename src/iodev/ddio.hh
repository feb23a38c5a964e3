/**
 * @file
 * Data Direct I/O (DDIO) control model.
 *
 * Two knobs exist on the modeled Xeon, and both are reproduced:
 *
 *  1. The BIOS-level global DCA switch (all I/O devices at once).
 *  2. The hidden per-PCIe-port register `perfctrlsts_0` with the
 *     `NoSnoopOpWrEn` and `Use_Allocating_Flow_Wr` bits. Setting
 *     NoSnoopOpWrEn and clearing Use_Allocating_Flow_Wr turns DMA
 *     writes arriving at that port into non-allocating writes — this
 *     is the knob A4's (F2) uses to disable DCA for storage devices
 *     only, at runtime.
 *
 * The number of LLC ways DDIO may allocate into (the DCA ways) is
 * also a register on real parts; it defaults to the leftmost 2 ways.
 */

#ifndef A4_IODEV_DDIO_HH
#define A4_IODEV_DDIO_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace a4
{

/** Per-root-port `perfctrlsts_0` register image (modeled bits only). */
struct PerfCtrlSts
{
    /** When set, DMA writes use non-allocating (no-snoop-op) flows. */
    bool no_snoop_op_wr_en = false;
    /** When set, DMA writes use the allocating (DDIO) flow. */
    bool use_allocating_flow_wr = true;
};

/** DDIO controller: global BIOS knob + per-port hidden registers. */
class DdioController
{
  public:
    /** @param num_ports number of PCIe root ports with devices. */
    explicit DdioController(unsigned num_ports, unsigned dca_ways = 2);

    /** True iff a DMA write arriving at @p port allocates in the LLC. */
    bool allocatingWrites(PortId port) const;

    /** BIOS-level switch for every port at once. */
    void setBiosDca(bool enabled) { bios_dca = enabled; }
    bool biosDca() const { return bios_dca; }

    /**
     * Runtime per-port disable, as A4 (F2) performs it: set
     * NoSnoopOpWrEn and clear Use_Allocating_Flow_Wr.
     */
    void disableDcaForPort(PortId port);

    /** Restore the port to the default allocating behaviour. */
    void enableDcaForPort(PortId port);

    /** Raw register access (tests poke individual bits). */
    PerfCtrlSts &reg(PortId port);
    const PerfCtrlSts &reg(PortId port) const;

    /** Number of LLC ways DDIO allocates into (leftmost ways). */
    unsigned dcaWayCount() const { return dca_ways; }

    unsigned numPorts() const
    {
        return static_cast<unsigned>(regs.size());
    }

  private:
    std::vector<PerfCtrlSts> regs;
    bool bios_dca = true;
    unsigned dca_ways;
};

} // namespace a4

#endif // A4_IODEV_DDIO_HH
