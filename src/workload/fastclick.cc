#include "workload/fastclick.hh"

namespace a4
{

double
FastclickWorkload::processPacket(unsigned q, const Nic::RxPacket &pkt,
                                 double wait_ns)
{
    const CoreId core = cores()[q];

    // NIC-to-host: wire latency plus time queued in the Rx ring.
    nic_to_host.record(nic.config().wire_latency + wait_ns);

    // Packet-pointer (descriptor) access.
    AccessResult r0 = cache.coreRead(eng.now(), core, pkt.buf, id());
    pointer_access.record(r0.latency_ns);
    double svc = r0.latency_ns + cfg.per_packet_cpu_ns;

    // Payload processing (touch every line, prefetch-overlapped).
    double proc = cfg.per_packet_cpu_ns;
    const std::uint64_t lines = linesIn(pkt.bytes);
    if (lines > 1) {
        cache.coreRun(eng.now(), core, pkt.buf + kLineBytes, lines - 1,
                      id(), false, [&](const AccessResult &r) {
                          proc += r.latency_ns / cfg.payload_mlp;
                          svc += r.latency_ns / cfg.payload_mlp;
                      });
    }
    processing_.record(proc);

    // Forward: egress DMA read of the processed packet.
    nic.tx(pkt.buf, pkt.bytes, q);

    lat_.record(wait_ns + svc + nic.config().wire_latency);
    ops_.inc();
    bytes_.add(pkt.bytes);
    retire(cfg.per_packet_cpu_ns * 4.0, svc, 2.3);
    return svc;
}

} // namespace a4
