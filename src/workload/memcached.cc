#include "workload/memcached.hh"

#include "sim/log.hh"

namespace a4
{

MemcachedWorkload::MemcachedWorkload(std::string name, WorkloadId id,
                                     std::vector<CoreId> cores_in,
                                     Engine &eng_, CacheSystem &cache_,
                                     AddressMap &addrs, Nic &nic_,
                                     const DpdkConfig &cfg,
                                     const MemcachedConfig &mc_cfg)
    : DpdkWorkload(std::move(name), id, std::move(cores_in), eng_,
                   cache_, nic_, cfg),
      mc(mc_cfg), rng(mixSeed(mc_cfg.seed))
{
    if (mc.num_keys == 0)
        fatal("MemcachedWorkload: num_keys must be positive");
    if (mc.value_bytes == 0)
        fatal("MemcachedWorkload: value_bytes must be positive");
    value_lines = linesIn(mc.value_bytes);
    // One bucket line per key (hash-indexed, like the Redis store),
    // then the value heap.
    bucket_base =
        addrs.alloc(mc.num_keys * kLineBytes, this->name() + ".buckets");
    value_base = addrs.alloc(mc.num_keys * value_lines * kLineBytes,
                             this->name() + ".values");
}

double
MemcachedWorkload::processPacket(unsigned q, const Nic::RxPacket &pkt,
                                 double wait_ns)
{
    const CoreId core = cores()[q];

    // Request header: descriptor/first payload line from the ring.
    AccessResult r0 = cache.coreRead(eng.now(), core, pkt.buf, id());
    double svc = r0.latency_ns + mc.per_op_cpu_ns;

    const std::uint64_t key = rng.below(mc.num_keys);
    const bool is_get = rng.chance(mc.get_ratio);

    // Hash-bucket probe.
    AccessResult rb = cache.coreRead(
        eng.now(), core, bucket_base + key * kLineBytes, id());
    svc += rb.latency_ns;

    // Value walk: GET reads (and transmits the response), SET writes.
    const Addr value = value_base + key * value_lines * kLineBytes;
    cache.coreRun(eng.now(), core, value, value_lines, id(), !is_get,
                  [&](const AccessResult &r) {
                      svc += r.latency_ns / mc.mlp;
                  });
    if (is_get)
        nic.tx(value, mc.value_bytes, q);

    lat_.record(wait_ns + svc + nic.config().wire_latency);
    ops_.inc();
    bytes_.add(pkt.bytes + (is_get ? mc.value_bytes : 0));
    retire(mc.per_op_cpu_ns * 4.0, svc, 2.3);
    return svc;
}

} // namespace a4
