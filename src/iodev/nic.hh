/**
 * @file
 * Network interface model: per-queue Rx rings fed by a packet
 * generator (the client machine running DPDK Pktgen in the paper).
 *
 * Each Rx queue owns a ring of fixed-size packet buffers in host
 * memory. An arrival DMA-writes the packet into the next ring slot
 * (through the DMA engine, so DDIO/DCA semantics apply) and enqueues
 * a descriptor for the consumer. If the ring is full the packet is
 * dropped — exactly the overload behaviour that turns DMA-leak
 * slowdowns into latency/throughput loss.
 *
 * Arrival generation is *deferred* (see DeferredIoSource): the NIC
 * keeps one pending next-arrival per queue (a tiny merge heap over
 * the shared seeded RNG) and applies arrivals — DMA write, ring push,
 * counters, next-gap draw — lazily, in global timestamp order,
 * whenever anything observes shared state. Two carrier modes decide
 * how many *engine events* drive that application forward:
 *
 *  - per-packet (`burst_interval == 0`): one Recurring armed at the
 *    next arrival tick — the classical one-event-per-packet schedule,
 *    kept as the equivalence baseline;
 *  - burst (default): one Engine::Batch firing per interval that
 *    expands into every arrival of the interval, cutting engine
 *    event volume by roughly interval/mean-gap (~10x at 100 Gbps).
 *
 * Both modes produce the *identical* access stream — same ticks, same
 * order, same RNG draws — because application is driven by the
 * cache's observation barrier, not by the carrier events; the carrier
 * only guarantees forward progress. One deliberate normalisation vs
 * the historical one-event-per-packet implementation: when an arrival
 * and an observer (a poll, a PCM sample) land on the same tick, the
 * arrival is now always applied first — timestamp order — where the
 * old code broke the tie by event-queue insertion order. That rule is
 * what both modes share; it makes same-tick behaviour deterministic
 * by construction instead of by scheduling history. See
 * docs/ARCHITECTURE.md.
 *
 * Because arrivals are drawn one per queue ahead of time,
 * nextArrival(q) tells a poll-mode consumer when its ring can next
 * grow, so an idle poll can sleep until then (Recurring::sleep). Only
 * start() draws arrivals out of order, so it is the one place that
 * has to wake a sleeping poller early (attachConsumer()'s poller).
 */

#ifndef A4_IODEV_NIC_HH
#define A4_IODEV_NIC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "iodev/dma.hh"
#include "sim/addrmap.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace a4
{

/** NIC configuration (defaults: paper's ConnectX-6 setup). */
struct NicConfig
{
    unsigned num_queues = 4;     ///< one per consumer core
    unsigned ring_entries = 2048;
    unsigned packet_bytes = 1024;
    double offered_gbps = 100.0; ///< aggregate offered load
    bool poisson = true;         ///< exponential vs deterministic gaps
    Tick wire_latency = 2 * kUsec; ///< NIC-to-host fixed latency
    std::uint64_t seed = 42;

    /** Default burst interval when $A4_NIC_BURST enables batching. */
    static constexpr Tick kDefaultBurstInterval = 4 * kUsec;

    /**
     * Arrival batching interval in nanoseconds; 0 = one engine event
     * per packet arrival (the equivalence baseline). Defaults from
     * $A4_NIC_BURST via burstFromEnv().
     */
    Tick burst_interval = burstFromEnv();

    /**
     * $A4_NIC_BURST as a burst interval:
     *
     *  - unset, "1", "on", "true"          -> kDefaultBurstInterval;
     *  - "0", "off", "false", "per-packet" -> 0 (per-packet events);
     *  - an integer 2..1e9                 -> that interval in ns.
     *
     * Anything else (including out-of-range intervals) is rejected
     * whole with one warning per offending value and falls back to
     * the default — same contract as the window knobs.
     */
    static Tick burstFromEnv();
};

/** Rx-side NIC with DMA into ring buffers. */
class Nic : public DeferredIoSource
{
  public:
    /** A received packet awaiting consumption. */
    struct RxPacket
    {
        Tick arrival;  ///< DMA completion time
        Addr buf;      ///< first byte of the packet buffer
        unsigned bytes;
    };

    Nic(Engine &eng, DmaEngine &dma, AddressMap &addrs, PortId port,
        const NicConfig &cfg);
    ~Nic() override;

    Nic(const Nic &) = delete;
    Nic &operator=(const Nic &) = delete;

    /**
     * Attach the consumer of queue @p q: the owning workload (buffer
     * attribution), the core whose MLC may cache ring lines and,
     * optionally, the poll actor that may sleep until nextArrival(q)
     * (start() wakes it by the new first arrival).
     */
    void attachConsumer(unsigned q, WorkloadId wl, CoreId core,
                        Engine::Recurring *poller = nullptr);

    /** Begin generating traffic. */
    void start();

    /** Stop generating traffic (in-flight ring contents remain;
     *  arrivals up to now() are applied first). */
    void stop();

    /** Pop the oldest pending packet of queue @p q. */
    bool pop(unsigned q, RxPacket &out);

    /** Pending packets in queue @p q (ring occupancy). */
    std::size_t pending(unsigned q);

    /**
     * Tick of queue @p q's next arrival, Engine::kNever while
     * stopped. Arrivals up to now() are applied, so after pop() or
     * pending() it is the first tick at which the ring can grow.
     */
    Tick
    nextArrival(unsigned q) const
    {
        return running ? queues[q].next_tick : Engine::kNever;
    }

    /**
     * Transmit (egress): device DMA-reads @p bytes at @p addr on
     * behalf of queue @p q's consumer.
     */
    void tx(Addr addr, unsigned bytes, unsigned q);

    /** @name Counters (reading applies arrivals up to now()). @{ */
    const SnapshotCounter &delivered();
    const SnapshotCounter &dropped();
    const SnapshotCounter &txPackets() const { return tx_pkts; }
    /** @} */

    const NicConfig &config() const { return cfg; }
    PortId portId() const { return port; }

    /** @name DeferredIoSource (the cache's observation barrier). @{ */
    Tick deferredTick() const override;
    void applyDeferredAccess() override;
    /** @} */

  private:
    struct Queue
    {
        Addr ring_base = 0; ///< slot s is at ring_base + s * slot_bytes
        std::deque<RxPacket> pending;
        unsigned next_slot = 0;
        WorkloadId owner = kNoWorkload;
        CoreId consumer = 0;
        Engine::Recurring *poller = nullptr; ///< may sleep on next_tick
        Tick next_tick = 0;          ///< pending arrival timestamp
        std::uint64_t next_seq = 0;  ///< generation order (tie-break)
    };

    /** Queue holding the earliest pending arrival (tick, then seq). */
    unsigned minQueue() const;
    /** Draw the next arrival for @p q from the shared RNG. */
    void drawNext(unsigned q, Tick from);
    Tick interarrival();

    Engine &eng;
    DmaEngine &dma;
    CacheSystem &csys; ///< drain registration (dma.cacheSystem())
    PortId port;
    NicConfig cfg;
    std::uint64_t slot_bytes; ///< one packet, rounded up to lines
    Rng rng;
    std::vector<Queue> queues;
    bool running = false;

    std::uint64_t gen_seq = 0;     ///< next arrival generation number
    std::uint64_t applied = 0;     ///< arrivals applied so far
    std::uint64_t reported = 0;    ///< ... reported to Engine::Batch
    Engine::Recurring step_ev;     ///< per-packet carrier
    Engine::Batch burst_ev;        ///< per-interval carrier

    SnapshotCounter delivered_pkts;
    SnapshotCounter dropped_pkts;
    SnapshotCounter tx_pkts;
};

} // namespace a4

#endif // A4_IODEV_NIC_HH
