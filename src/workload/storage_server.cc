#include "workload/storage_server.hh"

#include "sim/log.hh"

namespace a4
{

StorageServerWorkload::StorageServerWorkload(
    std::string name, WorkloadId id, std::vector<CoreId> cores_in,
    Engine &eng_, CacheSystem &cache_, AddressMap &addrs_, Nic &nic_,
    SsdArray &ssd_, const DpdkConfig &cfg,
    const StorageServerConfig &ss_cfg)
    : DpdkWorkload(std::move(name), id, std::move(cores_in), eng_,
                   cache_, nic_, cfg),
      addrs(addrs_), ssd(ssd_), ss(ss_cfg),
      zipf(ss_cfg.num_keys, ss_cfg.zipf_theta, mixSeed(ss_cfg.seed)),
      rng(mixSeed(ss_cfg.seed ^ 0x570Eull))
{
    if (ss.num_keys == 0)
        fatal("StorageServerWorkload: num_keys must be positive");
    if (ss.block_bytes < kLineBytes)
        fatal("StorageServerWorkload: block below one line");
    if (ss.iodepth == 0)
        fatal("StorageServerWorkload: iodepth must be positive");
    if (ss.mem_frac < 0.0 || ss.mem_frac > 1.0)
        fatal("StorageServerWorkload: mem_frac must be in [0, 1]");

    block_lines = linesIn(ss.block_bytes);
    mem_keys = static_cast<std::uint64_t>(
        ss.mem_frac * static_cast<double>(ss.num_keys));

    // Key->block map (one line per key, like the memcached buckets),
    // then the RAM-resident slice of the value store.
    index_base =
        addrs.alloc(ss.num_keys * kLineBytes, this->name() + ".index");
    if (mem_keys > 0) {
        value_base = addrs.alloc(mem_keys * block_lines * kLineBytes,
                                 this->name() + ".values");
    }

    // Per-queue NVMe slots: bounded outstanding I/O, like FIO's
    // iodepth buffers, so overload degrades into counted rejections
    // instead of unbounded in-flight state.
    queues.resize(cores().size());
    for (unsigned q = 0; q < queues.size(); ++q) {
        Queue &qs = queues[q];
        qs.slots.resize(ss.iodepth);
        for (unsigned b = 0; b < ss.iodepth; ++b) {
            qs.slots[b].base =
                addrs.alloc(ss.block_bytes,
                            sformat("%s.q%u.slot%u",
                                    this->name().c_str(), q, b));
            qs.free_slots.push_back(b);
        }
        qs.pump_ev.init(eng, [this, q] {
            queues[q].pump_scheduled = false;
            consumeNext(q);
        });
        qs.consume_done_ev.init(eng, [this, q] { onConsumeDone(q); });
    }
}

void
StorageServerWorkload::start()
{
    if (active_)
        return;
    DpdkWorkload::start();
    // The consume pump is always armed (or a consume is live): the
    // invariant that keeps completion callbacks free of scheduling,
    // which is what makes NVMe lazy and per-completion carrier modes
    // byte-identical (see fio.cc's consume loop).
    for (unsigned q = 0; q < queues.size(); ++q)
        schedulePump(q, cfg.idle_poll_ns);
}

double
StorageServerWorkload::processPacket(unsigned q,
                                     const Nic::RxPacket &pkt,
                                     double wait_ns)
{
    const CoreId core = cores()[q];

    // Request header + parse, then the key->block map probe.
    AccessResult r0 = cache.coreRead(eng.now(), core, pkt.buf, id());
    double svc = r0.latency_ns + ss.per_op_cpu_ns;

    const std::uint64_t key = zipf.nextScrambled();
    const bool is_get = rng.chance(ss.get_ratio);

    AccessResult ri = cache.coreRead(
        eng.now(), core, index_base + key * kLineBytes, id());
    svc += ri.latency_ns;

    if (is_get && key < mem_keys) {
        // RAM fast path: walk the value lines and transmit.
        const Addr value = value_base + key * block_lines * kLineBytes;
        cache.coreRun(eng.now(), core, value, block_lines, id(), false,
                      [&](const AccessResult &r) {
                          svc += r.latency_ns / ss.mlp;
                      });
        nic.tx(value, static_cast<unsigned>(ss.block_bytes), q);
        lat_.record(wait_ns + svc + nic.config().wire_latency);
        ops_.inc();
        bytes_.add(pkt.bytes + ss.block_bytes);
        retire(ss.per_op_cpu_ns * 4.0, svc, 2.3);
        return svc;
    }

    Queue &qs = queues[q];
    if (qs.free_slots.empty()) {
        // Every slot in flight: reject with an error response — the
        // deterministic overload valve (counted, never unbounded).
        ++overflows_;
        nic.tx(pkt.buf, ss.ack_bytes, q);
        lat_.record(wait_ns + svc + nic.config().wire_latency);
        ops_.inc();
        bytes_.add(pkt.bytes + ss.ack_bytes);
        retire(ss.per_op_cpu_ns * 2.0, svc, 2.3);
        return svc;
    }

    const unsigned slot = qs.free_slots.front();
    qs.free_slots.pop_front();
    Slot &sl = qs.slots[slot];
    sl.is_get = is_get;
    sl.arrival = pkt.arrival;
    bytes_.add(pkt.bytes);

    if (!is_get) {
        // PUT: stage the block in the slot (the egress DMA source).
        cache.coreRun(eng.now(), core, sl.base, block_lines, id(), true,
                      [&](const AccessResult &r) {
                          svc += r.latency_ns / ss.mlp;
                      });
    }

    auto done = [this, q, slot](Tick done_at) {
        onIoDone(done_at, q, slot);
    };
    if (is_get) {
        ssd.submitRead(eng.now(), sl.base, ss.block_bytes, id(),
                       {core}, done);
    } else {
        ssd.submitWrite(eng.now(), sl.base, ss.block_bytes, id(),
                        {core}, done);
    }
    retire(ss.per_op_cpu_ns * 3.0, svc, 2.3);
    return svc;
}

void
StorageServerWorkload::onIoDone(Tick done_at, unsigned q,
                                unsigned slot)
{
    // Virtual time: under lazy delivery this runs at some observer
    // tick >= done_at, so only queue state may change here — the
    // pump (a real engine event) does the cache work and the tx.
    (void)done_at;
    queues[q].completed.push_back(slot);
    if (!queues[q].consuming)
        schedulePump(q, 1);
}

void
StorageServerWorkload::schedulePump(unsigned q, Tick delay)
{
    // At most one pending pump per queue: completions arriving while
    // idle must not spawn parallel consume chains.
    Queue &qs = queues[q];
    if (qs.pump_scheduled || qs.consuming)
        return;
    qs.pump_scheduled = true;
    qs.pump_ev.arm(delay);
}

void
StorageServerWorkload::consumeNext(unsigned q)
{
    if (!active_)
        return;
    Queue &qs = queues[q];
    if (qs.consuming)
        return; // a continuation chain is already live
    // Make lazily-delivered completions visible before the empty
    // check (same contract as Nic::pop and FIO's consume loop).
    cache.drainDeferred(eng.now());
    if (qs.completed.empty()) {
        schedulePump(q, cfg.idle_poll_ns);
        return;
    }
    qs.consuming = true;
    const unsigned slot = qs.completed.front();
    qs.completed.pop_front();
    qs.consume_slot = slot;

    const Slot &sl = qs.slots[slot];
    double svc = ss.per_op_cpu_ns; // response formatting
    if (sl.is_get) {
        // Scan the DMA-written block through the MLC before
        // serving it — where the SSD's DCA placement pays off.
        const CoreId core = cores()[q];
        cache.coreRun(eng.now(), core, sl.base, block_lines, id(), false,
                      [&](const AccessResult &r) {
                          svc += r.latency_ns / ss.mlp;
                      });
    }
    retire(ss.per_op_cpu_ns + (sl.is_get ? block_lines * 2.0 : 0.0),
           svc, 2.3);
    qs.consume_done_ev.arm(static_cast<Tick>(svc) + 1);
}

void
StorageServerWorkload::onConsumeDone(unsigned q)
{
    // Apply lazily-pending completions before booking this request
    // and freeing its slot: a per-completion schedule ran same-tick
    // completions first, and the relative order decides both the
    // completed-queue order and the free-slot recycle order.
    cache.drainDeferred(eng.now());
    Queue &qs = queues[q];
    const unsigned slot = qs.consume_slot;
    Slot &sl = qs.slots[slot];

    const unsigned resp = sl.is_get
                              ? static_cast<unsigned>(ss.block_bytes)
                              : ss.ack_bytes;
    nic.tx(sl.base, resp, q);
    lat_.record(static_cast<double>(eng.now() - sl.arrival) +
                nic.config().wire_latency);
    ops_.inc();
    bytes_.add(resp);

    qs.free_slots.push_back(slot);
    qs.consuming = false;
    consumeNext(q);
}

} // namespace a4
