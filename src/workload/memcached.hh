/**
 * @file
 * Memcached-over-UDP proxy: a key-value server fed straight from the
 * NIC's Rx rings (kernel-bypass, as memcached deployments run with
 * DPDK/UDP offload).
 *
 * Reuses the DPDK poll-mode reception path unchanged — one poll actor
 * per core/queue, burst drains, batched arrival generation behind the
 * cache's observation barrier — and replaces the per-packet work with
 * request service: each received packet is a GET or SET for a key of
 * the store. GETs walk the hash bucket and read the value (the
 * response is transmitted back out of the NIC, so GET-heavy loads are
 * egress-heavy); SETs write the value lines in place. The value-size
 * knob sets how many lines each request touches, which is the lever
 * that moves the store's LLC footprint — exactly the kind of
 * non-paper workload the sweep layer exists to explore.
 */

#ifndef A4_WORKLOAD_MEMCACHED_HH
#define A4_WORKLOAD_MEMCACHED_HH

#include "sim/addrmap.hh"
#include "sim/rng.hh"
#include "workload/dpdk.hh"

namespace a4
{

/** Memcached service configuration (on top of the NIC's DpdkConfig). */
struct MemcachedConfig
{
    std::uint64_t num_keys = 16384; ///< records in the store
    unsigned value_bytes = 1024;    ///< record payload size
    double get_ratio = 0.9;         ///< GET share (rest are SETs)
    double per_op_cpu_ns = 150.0;   ///< fixed parse/dispatch cost
    double mlp = 4.0;               ///< overlap on value line walks
    std::uint64_t seed = 20077;     ///< request-stream RNG
};

/** UDP memcached server over the NIC's Rx queues. */
class MemcachedWorkload : public DpdkWorkload
{
  public:
    MemcachedWorkload(std::string name, WorkloadId id,
                      std::vector<CoreId> cores, Engine &eng,
                      CacheSystem &cache, AddressMap &addrs, Nic &nic,
                      const DpdkConfig &cfg, const MemcachedConfig &mc);

    const MemcachedConfig &mcConfig() const { return mc; }

  protected:
    double processPacket(unsigned q, const Nic::RxPacket &pkt,
                         double wait_ns) override;

  private:
    MemcachedConfig mc;
    Addr bucket_base;
    Addr value_base;
    std::uint64_t value_lines;
    Rng rng;
};

} // namespace a4

#endif // A4_WORKLOAD_MEMCACHED_HH
