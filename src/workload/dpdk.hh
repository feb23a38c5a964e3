/**
 * @file
 * DPDK-style kernel-bypass packet-processing workloads (§3.1).
 *
 * DPDK-T Touches every payload line of a received packet and drops it
 * (deep-packet-inspection-like). DPDK-NT does Not Touch packets — it
 * drops them from the ring without ever bringing I/O lines into its
 * MLCs, which is precisely why it causes neither DMA bloat nor
 * directory contention in Fig. 3a.
 *
 * One poll-mode actor per core/queue: drain up to a burst of packets,
 * charging per-line access latency (overlapped by the payload MLP)
 * plus fixed per-packet CPU work; packet latency = NIC wire latency +
 * ring wait + service.
 *
 * Arrival-timing contract: Nic::pop() first applies every deferred
 * arrival up to now() (the NIC generates arrivals in batches, see
 * nic.hh), so a poll observes exactly the ring contents a per-packet
 * event schedule would have produced — RxPacket::arrival carries the
 * true wire timestamp either way, which keeps the ring-wait term of
 * the latency breakdown exact.
 *
 * Idle polls sleep: a poll that finds its ring empty would re-poll
 * every idle_poll_ns and find it empty until the queue's next
 * arrival (Nic::nextArrival), so it sleeps (Recurring::sleep) to the
 * first tick of that re-poll grid at or after the arrival, firing in
 * the same slot of the event order. A low-load tenant thus costs
 * engine events per packet, not per idle_poll_ns.
 */

#ifndef A4_WORKLOAD_DPDK_HH
#define A4_WORKLOAD_DPDK_HH

#include "cache/hierarchy.hh"
#include "iodev/nic.hh"
#include "sim/engine.hh"
#include "workload/workload.hh"

namespace a4
{

/** DPDK workload configuration. */
struct DpdkConfig
{
    bool touch = true;          ///< DPDK-T (true) vs DPDK-NT (false)
    unsigned burst = 32;        ///< rte_rx_burst size
    double per_packet_cpu_ns = 120.0;
    double payload_mlp = 8.0;   ///< prefetch overlap on payload reads
    Tick idle_poll_ns = 500;    ///< re-poll grid when the ring is empty
};

/** Poll-mode packet processor over the NIC's Rx queues. */
class DpdkWorkload : public Workload
{
  public:
    /**
     * @param cores one core per NIC queue (size must equal the NIC's
     *        queue count).
     */
    DpdkWorkload(std::string name, WorkloadId id,
                 std::vector<CoreId> cores, Engine &eng,
                 CacheSystem &cache, Nic &nic, const DpdkConfig &cfg);

    void start() override;
    void stop() override;

    bool isIo() const override { return true; }
    PortId ioPort() const override { return nic.portId(); }
    DeviceClass ioClass() const override { return DeviceClass::Network; }

    const DpdkConfig &config() const { return cfg; }
    Nic &nicDevice() { return nic; }

  protected:
    /**
     * Process one packet; returns its service time (ns). Subclasses
     * (Fastclick) extend this with forwarding and breakdown capture.
     */
    virtual double processPacket(unsigned q, const Nic::RxPacket &pkt,
                                 double wait_ns);

    Engine &eng;
    CacheSystem &cache;
    Nic &nic;
    DpdkConfig cfg;

  private:
    void poll(unsigned q);

    std::vector<Engine::Recurring> poll_ev; ///< one poll actor per queue
};

} // namespace a4

#endif // A4_WORKLOAD_DPDK_HH
