#include "workload/dpdk.hh"

#include "sim/log.hh"

namespace a4
{

DpdkWorkload::DpdkWorkload(std::string name, WorkloadId id,
                           std::vector<CoreId> cores_in, Engine &eng_,
                           CacheSystem &cache_, Nic &nic_,
                           const DpdkConfig &config)
    : Workload(std::move(name), id, std::move(cores_in)), eng(eng_),
      cache(cache_), nic(nic_), cfg(config)
{
    if (cores().size() != nic.config().num_queues)
        fatal("DpdkWorkload: core count must match NIC queue count");
    poll_ev.resize(cores().size());
    for (unsigned q = 0; q < cores().size(); ++q) {
        nic.attachConsumer(q, this->id(), cores()[q], &poll_ev[q]);
        poll_ev[q].init(eng, [this, q] { poll(q); });
    }
}

void
DpdkWorkload::start()
{
    if (active_)
        return;
    active_ = true;
    nic.start();
    for (unsigned q = 0; q < cores().size(); ++q)
        poll_ev[q].arm(q + 1);
}

void
DpdkWorkload::stop()
{
    Workload::stop();
    // Drop queued polls (and sleeps) so a stop()/start() cycle cannot
    // leave two poll chains per queue.
    for (Engine::Recurring &ev : poll_ev)
        ev.cancel();
}

double
DpdkWorkload::processPacket(unsigned q, const Nic::RxPacket &pkt,
                            double wait_ns)
{
    const CoreId core = cores()[q];
    double svc = cfg.per_packet_cpu_ns;

    if (cfg.touch) {
        // Descriptor/pointer access first, then the payload lines
        // (overlapped by hardware prefetch / software pipelining).
        AccessResult r0 = cache.coreRead(eng.now(), core, pkt.buf, id());
        svc += r0.latency_ns;
        const std::uint64_t lines = linesIn(pkt.bytes);
        if (lines > 1) {
            cache.coreRun(eng.now(), core, pkt.buf + kLineBytes, lines - 1,
                          id(), false, [&](const AccessResult &r) {
                              svc += r.latency_ns / cfg.payload_mlp;
                          });
        }
    }

    lat_.record(wait_ns + svc + nic.config().wire_latency);
    ops_.inc();
    bytes_.add(pkt.bytes);
    retire(cfg.per_packet_cpu_ns * 4.0, svc, 2.3);
    return svc;
}

void
DpdkWorkload::poll(unsigned q)
{
    if (!active_)
        return;

    double busy_ns = 0.0;
    unsigned n = 0;
    Nic::RxPacket pkt;
    while (n < cfg.burst && nic.pop(q, pkt)) {
        // Wait = time spent in the ring + service queueing within the
        // burst processed ahead of this packet.
        double wait_ns =
            static_cast<double>(eng.now() - pkt.arrival) + busy_ns;
        busy_ns += processPacket(q, pkt, wait_ns);
        ++n;
    }

    if (n) {
        poll_ev[q].arm(static_cast<Tick>(busy_ns) + 1);
        return;
    }
    // Idle: every re-poll before the next arrival would find the ring
    // empty again, so sleep through them on the idle-poll grid.
    poll_ev[q].sleep(cfg.idle_poll_ns, nic.nextArrival(q));
}

} // namespace a4
