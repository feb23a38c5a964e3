#include "iodev/nic.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/log.hh"

namespace a4
{

Tick
NicConfig::burstFromEnv()
{
    const char *env = std::getenv("A4_NIC_BURST");
    if (env == nullptr)
        return kDefaultBurstInterval;
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "false") == 0 ||
        std::strcmp(env, "per-packet") == 0)
        return 0;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
        std::strcmp(env, "true") == 0)
        return kDefaultBurstInterval;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    // Cap at one simulated second: longer intervals only delay
    // carrier progress without saving further events.
    constexpr unsigned long long max_interval = 1000ull * 1000 * 1000;
    if (end != nullptr && end != env && *end == '\0' && v >= 2 &&
        v <= max_interval)
        return static_cast<Tick>(v);
    static std::string warned;
    warnOncePerValue(warned, env,
                     "warning: A4_NIC_BURST: ignoring malformed value "
                     "'%s' (want 0/off, 1/on, or an interval in "
                     "2..1e9 ns)\n");
    return kDefaultBurstInterval;
}

Nic::Nic(Engine &eng_, DmaEngine &dma_, AddressMap &addrs, PortId port_,
         const NicConfig &config)
    : eng(eng_), dma(dma_), csys(dma_.cacheSystem()), port(port_),
      cfg(config), slot_bytes(linesIn(cfg.packet_bytes) * kLineBytes),
      rng(mixSeed(cfg.seed))
{
    if (cfg.num_queues == 0 || cfg.ring_entries == 0)
        fatal("Nic: queues and ring entries must be non-zero");
    // interarrival() divides by both: zero, negative or non-finite
    // rates would cast inf/NaN gaps to Tick.
    if (!(cfg.offered_gbps > 0.0) || !std::isfinite(cfg.offered_gbps))
        fatal(sformat("Nic: offered_gbps must be finite and > 0 (got "
                      "%g)", cfg.offered_gbps));
    if (cfg.packet_bytes == 0)
        fatal("Nic: packet_bytes must be > 0");
    if (cfg.packet_bytes < kLineBytes)
        warn("Nic: packet smaller than a cache line; rounded up on DMA");

    queues.resize(cfg.num_queues);
    // Slot buffers are laid out per queue, mbuf-style: fixed-size
    // buffers recycled in ring order.
    for (unsigned q = 0; q < cfg.num_queues; ++q) {
        queues[q].ring_base =
            addrs.alloc(std::uint64_t(cfg.ring_entries) * slot_bytes,
                        sformat("nic%u.rxring%u", port, q));
    }

    // Carriers: only one is armed, per cfg.burst_interval (start()).
    step_ev.init(eng, [this] {
        csys.drainDeferred(eng.now());
        if (running && deferredTick() != kNoDeferredIo)
            step_ev.armAt(deferredTick());
    });
    burst_ev.init(eng, [this](Tick, Tick end) -> std::uint64_t {
        csys.drainDeferred(end);
        const std::uint64_t expanded = applied - reported;
        reported = applied;
        return expanded;
    });

    csys.attachDeferredSource(*this);
}

Nic::~Nic()
{
    csys.detachDeferredSource(*this);
}

void
Nic::attachConsumer(unsigned q, WorkloadId wl, CoreId core,
                    Engine::Recurring *poller)
{
    if (q >= queues.size())
        fatal(sformat("Nic: queue %u out of range", q));
    queues[q].owner = wl;
    queues[q].consumer = core;
    queues[q].poller = poller;
}

void
Nic::start()
{
    if (running)
        return;
    running = true;
    // Seed one pending arrival per queue, in queue order — the same
    // RNG draw order as scheduling one initial event per queue.
    for (unsigned q = 0; q < cfg.num_queues; ++q) {
        drawNext(q, eng.now());
        // A poller that slept while the NIC was stopped (or on an
        // arrival drawn before a stop) must see this one in time.
        if (queues[q].poller != nullptr)
            queues[q].poller->wakeBy(queues[q].next_tick);
    }
    csys.noteDeferredTick(*this);
    if (cfg.burst_interval == 0)
        step_ev.armAt(deferredTick());
    else
        burst_ev.start(cfg.burst_interval);
}

void
Nic::stop()
{
    if (!running)
        return;
    // Arrivals logically before the stop have happened on the wire:
    // apply them, then discard the pending (future) generation state.
    csys.drainDeferred(eng.now());
    running = false;
    step_ev.cancel();
    burst_ev.stop();
}

Tick
Nic::interarrival()
{
    // Per-queue mean gap: aggregate offered load split across queues.
    double pkts_per_sec =
        cfg.offered_gbps * 1e9 / 8.0 / cfg.packet_bytes;
    double mean_ns = 1e9 / (pkts_per_sec / cfg.num_queues);
    if (cfg.poisson)
        return static_cast<Tick>(rng.exponential(mean_ns)) + 1;
    return static_cast<Tick>(mean_ns) + 1;
}

void
Nic::drawNext(unsigned q, Tick from)
{
    queues[q].next_tick = from + interarrival();
    queues[q].next_seq = gen_seq++;
}

unsigned
Nic::minQueue() const
{
    unsigned best = 0;
    for (unsigned q = 1; q < queues.size(); ++q) {
        const Queue &a = queues[q];
        const Queue &b = queues[best];
        if (a.next_tick < b.next_tick ||
            (a.next_tick == b.next_tick && a.next_seq < b.next_seq))
            best = q;
    }
    return best;
}

Tick
Nic::deferredTick() const
{
    if (!running)
        return kNoDeferredIo;
    return queues[minQueue()].next_tick;
}

void
Nic::applyDeferredAccess()
{
    const unsigned q = minQueue();
    Queue &queue = queues[q];
    const Tick when = queue.next_tick;
    if (queue.pending.size() >= cfg.ring_entries) {
        // No free descriptor: the NIC drops on the wire.
        dropped_pkts.inc();
    } else {
        const Addr buf = queue.ring_base + queue.next_slot * slot_bytes;
        queue.next_slot = (queue.next_slot + 1) % cfg.ring_entries;
        const CoreId consumer[1] = {queue.consumer};
        // The access carries its own arrival timestamp: LLC/DDIO
        // state transitions and DRAM window accounting see the exact
        // per-packet sequence regardless of when it is applied.
        dma.write(when, port, buf, cfg.packet_bytes, queue.owner,
                  consumer);
        queue.pending.push_back(RxPacket{when, buf, cfg.packet_bytes});
        delivered_pkts.inc();
    }
    ++applied;
    drawNext(q, when);
}

bool
Nic::pop(unsigned q, RxPacket &out)
{
    csys.drainDeferred(eng.now());
    Queue &queue = queues[q];
    if (queue.pending.empty())
        return false;
    out = queue.pending.front();
    queue.pending.pop_front();
    return true;
}

std::size_t
Nic::pending(unsigned q)
{
    csys.drainDeferred(eng.now());
    return queues[q].pending.size();
}

const SnapshotCounter &
Nic::delivered()
{
    csys.drainDeferred(eng.now());
    return delivered_pkts;
}

const SnapshotCounter &
Nic::dropped()
{
    csys.drainDeferred(eng.now());
    return dropped_pkts;
}

void
Nic::tx(Addr addr, unsigned bytes, unsigned q)
{
    const CoreId cores[1] = {queues[q].consumer};
    dma.read(eng.now(), port, addr, bytes, queues[q].owner, cores);
    tx_pkts.inc();
}

} // namespace a4
