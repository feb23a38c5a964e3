/**
 * @file
 * End-to-end storage server: NIC receive -> parse -> NVMe -> NIC
 * transmit, all inside one QoS domain.
 *
 * Every registered kind before this one was NIC-driven (dpdk,
 * fastclick, memcached-udp) *or* NVMe-driven (fio); a request's real
 * datacenter life is both. Each received packet is a GET or PUT over
 * a key->block map driven by the YCSB scrambled-zipfian generator:
 *
 *  - parse burns `per_op_cpu_ns` and probes one index line;
 *  - GETs whose key falls in the RAM-resident fraction (`mem_frac`)
 *    walk the value lines in memory and transmit the response
 *    immediately — the memcached fast path;
 *  - GET misses submit an NVMe read of `block_bytes` into a
 *    per-queue I/O slot; the completed block is scanned by the
 *    owning core (so storage blocks demonstrably travel through its
 *    MLC, like FIO's consume loop) and then transmitted;
 *  - PUTs prepare the block in a slot (core writes) and submit an
 *    NVMe write; completion transmits a fixed-size ack.
 *
 * Both device paths share the workload's cores and QoS class, so the
 * NIC's DDIO leak and the SSD's DCA traffic collide in the same LLC
 * ways — the cross-device contention A4's device-aware allocation
 * exists for.
 *
 * Determinism contract (pinned by tests/workload/
 * test_storage_server.cc): NIC burst vs per-packet and NVMe lazy vs
 * per-completion modes are byte-identical. Completion callbacks only
 * queue state (with their virtual-time `done_at` ticks); every cache
 * access and latency record runs from engine events (the inherited
 * DPDK poll actors and the per-queue consume pump, which drains the
 * observation barrier before looking at the completed set).
 */

#ifndef A4_WORKLOAD_STORAGE_SERVER_HH
#define A4_WORKLOAD_STORAGE_SERVER_HH

#include <deque>
#include <vector>

#include "iodev/nvme.hh"
#include "sim/addrmap.hh"
#include "sim/rng.hh"
#include "workload/dpdk.hh"
#include "workload/ycsb.hh"

namespace a4
{

/** Storage-server service configuration (on top of the NIC's
 *  DpdkConfig and the SSD's SsdConfig). */
struct StorageServerConfig
{
    std::uint64_t num_keys = 16384; ///< records in the key->block map
    std::uint64_t block_bytes = 32 * kKiB; ///< on-SSD record size
    double get_ratio = 0.9;      ///< GET share (rest are PUTs)
    double mem_frac = 0.5;       ///< keyspace fraction resident in RAM
    double per_op_cpu_ns = 150.0; ///< fixed parse/dispatch cost
    double mlp = 4.0;            ///< overlap on block line walks
    double zipf_theta = 0.99;    ///< request-key skew
    unsigned iodepth = 16;       ///< outstanding NVMe slots per queue
    unsigned ack_bytes = 64;     ///< PUT-ack / overflow response size
    std::uint64_t seed = 30211;  ///< request-stream RNG
};

/** NIC-fed key-value store with an NVMe backing array. */
class StorageServerWorkload : public DpdkWorkload
{
  public:
    StorageServerWorkload(std::string name, WorkloadId id,
                          std::vector<CoreId> cores, Engine &eng,
                          CacheSystem &cache, AddressMap &addrs,
                          Nic &nic, SsdArray &ssd,
                          const DpdkConfig &cfg,
                          const StorageServerConfig &ss);

    void start() override;

    const StorageServerConfig &ssConfig() const { return ss; }

    /** The storage side's PCIe port (the NIC stays `ioPort()`). */
    PortId ssdPort() const { return ssd.portId(); }

    /** Requests rejected because every I/O slot was in flight. */
    std::uint64_t overflows() const { return overflows_; }

  protected:
    double processPacket(unsigned q, const Nic::RxPacket &pkt,
                         double wait_ns) override;

  private:
    /** One outstanding NVMe request (a block-sized host buffer). */
    struct Slot
    {
        Addr base;
        bool is_get = false;
        Tick arrival = 0; ///< request wire timestamp (latency t0)
    };

    /** Per-NIC-queue service state (one core per queue). */
    struct Queue
    {
        std::vector<Slot> slots;
        std::deque<unsigned> free_slots; ///< available slot indices
        std::deque<unsigned> completed;  ///< slots ready to consume
        bool consuming = false;      ///< a consume continuation is live
        bool pump_scheduled = false; ///< an idle re-poll is queued
        unsigned consume_slot = 0;   ///< slot the live consume works on
        Engine::Recurring pump_ev;   ///< idle re-poll actor
        Engine::Recurring consume_done_ev; ///< consume-finished actor
    };

    void onIoDone(Tick done_at, unsigned q, unsigned slot);
    void schedulePump(unsigned q, Tick delay);
    void consumeNext(unsigned q);
    void onConsumeDone(unsigned q);

    AddressMap &addrs;
    SsdArray &ssd;
    StorageServerConfig ss;
    ZipfianGenerator zipf;
    Rng rng;
    std::vector<Queue> queues;

    Addr index_base;          ///< key->block map (one line per key)
    Addr value_base;          ///< RAM-resident value store
    std::uint64_t block_lines;
    std::uint64_t mem_keys;   ///< scrambled key ids below this are RAM
    std::uint64_t overflows_ = 0;
};

} // namespace a4

#endif // A4_WORKLOAD_STORAGE_SERVER_HH
