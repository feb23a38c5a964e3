/**
 * @file
 * NVMe SSD array model (the paper's RAID-0 of four 980 PROs behind a
 * PCIe Gen3 x16 RAID controller).
 *
 * Commands experience a flash-access overhead (overlapped across
 * internal parallelism) followed by a serialized transfer on the
 * shared host link, which caps aggregate throughput. Completion
 * DMA-writes the block into the host buffer through the DMA engine,
 * so DDIO/DCA semantics (and A4's per-port disable) apply.
 *
 * Completion delivery is *deferred* (the NIC's burst-arrival pattern,
 * see DeferredIoSource in cache/hierarchy.hh): once a command starts,
 * its completion tick is fully determined (flash overhead + its slot
 * on the serialized link), so the array keeps a FIFO of pending
 * completions and applies them — DMA transfer, counters, the caller's
 * completion callback, and the starts of queued commands, all in
 * virtual time at the exact completion tick — lazily, whenever
 * anything observes shared state through the cache's observation
 * barrier. Two carrier modes decide which *engine events* guarantee
 * forward progress:
 *
 *  - lazy (default): no per-completion events at all — consumers
 *    (FIO's poll loop, PCM samples, any core access) drain the
 *    barrier, so steady-state completion delivery costs zero engine
 *    events;
 *  - per-completion (`lazy_completions == false`, $A4_NVME_LAZY=0):
 *    one recurring carrier event armed at the earliest pending
 *    completion — the classical schedule, kept as the equivalence
 *    baseline.
 *
 * Both modes produce the identical access stream and statistics
 * because completions carry their own timestamps and the barrier
 * applies them, merged across all deferred sources, before any state
 * can be observed. Callbacks receive the completion tick and must use
 * it (not Engine::now(), which may be later under lazy delivery) for
 * latency accounting and chained submissions. As with the NIC's
 * burst path, one deliberate normalisation vs the historical
 * one-event-per-completion implementation: when a completion and an
 * observer (a poll, a consume step) land on the same tick, the
 * completion is now always applied first — timestamp order — where
 * the old code broke the tie by event-queue insertion order. Both
 * modes share that rule, which is what makes them byte-identical to
 * each other by construction instead of by scheduling history.
 *
 * The resulting throughput curve reproduces the paper's Fig. 5 shape:
 * per-command overhead dominates small blocks; the link cap flattens
 * the curve beyond ~64-128 KiB regardless of DCA.
 */

#ifndef A4_IODEV_NVME_HH
#define A4_IODEV_NVME_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "iodev/dma.hh"
#include "sim/engine.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace a4
{

/** SSD array configuration (defaults: the paper's 4-SSD RAID-0). */
struct SsdConfig
{
    /** Shared host-link bandwidth in bytes/s (PCIe Gen3 x16). */
    double link_bw_bps = 12.8e9;
    /** Commands serviced concurrently by the array (flash channels). */
    unsigned parallelism = 16;
    /** Flash/command overhead per I/O (ns). */
    Tick cmd_overhead = 60 * kUsec;

    /**
     * Completion delivery: deferred behind the cache observation
     * barrier (true, the default) vs one engine event per completion
     * (false, the equivalence baseline). Defaults from $A4_NVME_LAZY
     * via lazyFromEnv().
     */
    bool lazy_completions = lazyFromEnv();

    /**
     * $A4_NVME_LAZY as the delivery mode:
     *
     *  - unset, "1", "on", "true"  -> lazy (no completion events);
     *  - "0", "off", "false"       -> per-completion carrier events.
     *
     * Anything else is rejected whole with one warning per offending
     * value and falls back to the default — same contract as the
     * window and burst knobs.
     */
    static bool lazyFromEnv();
};

/** NVMe SSD array with read (ingress DMA) and write (egress) commands. */
class SsdArray : public DeferredIoSource
{
  public:
    /** Invoked at command completion; @p done_at is the completion
     *  tick (<= Engine::now() under lazy delivery — use it, not
     *  now(), for latency accounting and chained submissions). */
    using Completion = std::function<void(Tick done_at)>;

    SsdArray(Engine &eng, DmaEngine &dma, PortId port,
             const SsdConfig &cfg);
    ~SsdArray() override;

    SsdArray(const SsdArray &) = delete;
    SsdArray &operator=(const SsdArray &) = delete;

    /**
     * Submit a read at time @p now (Engine::now() for event-driven
     * submitters; the completion tick when chaining from a completion
     * callback): the device fetches @p bytes and DMA-writes them to
     * host buffer @p buf, then calls @p done.
     *
     * @param owner workload owning the buffer.
     * @param consumers cores that will consume the block.
     */
    void submitRead(Tick now, Addr buf, std::uint64_t bytes,
                    WorkloadId owner, std::vector<CoreId> consumers,
                    Completion done);

    /**
     * Submit a write at time @p now: the device DMA-reads @p bytes
     * from host buffer @p buf (egress), then calls @p done.
     */
    void submitWrite(Tick now, Addr buf, std::uint64_t bytes,
                     WorkloadId owner, std::vector<CoreId> cores,
                     Completion done);

    /** Commands currently in flight inside the device (reading
     *  applies completions up to Engine::now() first). */
    unsigned inFlight();

    /** @name Completed command counts (reading applies completions
     *  up to Engine::now() first). @{ */
    const SnapshotCounter &completedReads();
    const SnapshotCounter &completedWrites();
    /** @} */

    PortId portId() const { return port; }
    const SsdConfig &config() const { return cfg; }

    /** @name DeferredIoSource (the cache's observation barrier). @{ */
    Tick deferredTick() const override;
    void applyDeferredAccess() override;
    /** @} */

  private:
    struct Command
    {
        bool is_read;
        Addr buf;
        std::uint64_t bytes;
        WorkloadId owner;
        std::vector<CoreId> cores;
        Completion done;
        Tick done_at = 0; ///< completion tick (set at start)
    };

    void tryStart(Tick now);
    void startCommand(Tick now, Command cmd);
    /** Apply the completion parked in @p slot, in virtual time. */
    void finish(std::uint32_t slot);

    Engine &eng;
    DmaEngine &dma;
    CacheSystem &csys; ///< drain registration (dma.cacheSystem())
    PortId port;
    SsdConfig cfg;

    std::deque<Command> queue;
    /** In-flight commands live in recycled slots so pending
     *  completions carry a 4-byte index instead of the whole
     *  Command. */
    std::vector<Command> inflight;
    std::vector<std::uint32_t> free_slots;
    /** Slots with computed-but-unapplied completions, in completion
     *  order (the serialized link makes that the start order). */
    std::deque<std::uint32_t> pending_done;
    unsigned active = 0;
    Tick link_free_at = 0;

    Engine::Recurring step_ev; ///< per-completion carrier (lazy off)
    bool step_armed = false;

    SnapshotCounter reads_done;
    SnapshotCounter writes_done;
};

} // namespace a4

#endif // A4_IODEV_NVME_HH
