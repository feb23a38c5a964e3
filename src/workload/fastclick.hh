/**
 * @file
 * Fastclick proxy: DPDK-based packet forwarding (Table 2).
 *
 * Extends the DPDK-T processing loop with egress transmission (the
 * NIC DMA-reads the processed packet back out) and captures the
 * three-part latency breakdown the paper reports in Fig. 14a:
 * NIC-to-host (wire + ring wait), packet-pointer access, and packet
 * processing.
 */

#ifndef A4_WORKLOAD_FASTCLICK_HH
#define A4_WORKLOAD_FASTCLICK_HH

#include "workload/dpdk.hh"

namespace a4
{

/** Fastclick-style forwarding workload with latency breakdown. */
class FastclickWorkload : public DpdkWorkload
{
  public:
    FastclickWorkload(std::string name, WorkloadId id,
                      std::vector<CoreId> cores, Engine &eng,
                      CacheSystem &cache, Nic &nic,
                      const DpdkConfig &cfg)
        : DpdkWorkload(std::move(name), id, std::move(cores), eng,
                       cache, nic, cfg)
    {}

    /** @name Fig. 14a latency components. @{ */
    LatencyStat &nicToHost() { return nic_to_host; }
    LatencyStat &pointerAccess() { return pointer_access; }
    LatencyStat &processing() { return processing_; }
    /** @} */

    void
    resetWindow() override
    {
        DpdkWorkload::resetWindow();
        nic_to_host.reset();
        pointer_access.reset();
        processing_.reset();
    }

  protected:
    double processPacket(unsigned q, const Nic::RxPacket &pkt,
                         double wait_ns) override;

  private:
    LatencyStat nic_to_host;
    LatencyStat pointer_access;
    LatencyStat processing_;
};

} // namespace a4

#endif // A4_WORKLOAD_FASTCLICK_HH
