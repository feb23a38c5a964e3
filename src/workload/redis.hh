/**
 * @file
 * Redis server/client pair under YCSB-A (Table 2).
 *
 * The server owns an in-memory hash-indexed KV store (bucket array +
 * value heap) and serves requests from a loopback queue; the client
 * generates scrambled-zipfian YCSB-A operations (50 % read, 50 %
 * update). Both run on one core each and are measured by IPC, like
 * the paper's single-threaded workloads.
 *
 * Both actors are already batch-expanded: one Engine::Recurring
 * firing per request batch (cfg.batch ops), not one event per op —
 * the same events-per-interval economy the NIC's burst arrival path
 * applies to packet generation (see nic.hh).
 */

#ifndef A4_WORKLOAD_REDIS_HH
#define A4_WORKLOAD_REDIS_HH

#include <deque>
#include <memory>

#include "cache/hierarchy.hh"
#include "sim/addrmap.hh"
#include "sim/engine.hh"
#include "workload/workload.hh"
#include "workload/ycsb.hh"

namespace a4
{

/** Redis + YCSB configuration. */
struct RedisConfig
{
    /** Record count sized so the store is LLC-commensurate (~16 MiB
     *  with 1 KiB records): the YCSB-A zipfian hot set then lives or
     *  dies by the LLC share Redis receives. */
    std::uint64_t num_keys = 16384;
    unsigned value_bytes = 1024; ///< YCSB default record (10 x ~100 B)
    double zipf_theta = 0.99;
    double read_ratio = 0.5;     ///< YCSB-A: 50/50 read/update
    double server_cpu_ns_per_op = 300.0;
    double client_cpu_ns_per_op = 200.0;
    unsigned batch = 32;
    unsigned max_queue = 4096;   ///< loopback request queue bound
    double mlp = 2.0;
    std::uint64_t seed = 4242;
};

class RedisServer;

/** YCSB client driving the loopback request queue. */
class RedisClient : public Workload
{
  public:
    RedisClient(std::string name, WorkloadId id, CoreId core,
                Engine &eng, CacheSystem &cache, AddressMap &addrs,
                RedisServer &server, const RedisConfig &cfg);

    void start() override;
    void stop() override;

  private:
    void runBatch();

    Engine &eng;
    CacheSystem &cache;
    RedisServer &server;
    RedisConfig cfg;
    ZipfianGenerator keys;
    Rng rng;
    Addr req_buf;
    std::uint64_t req_lines;
    std::uint64_t pos = 0;
    Engine::Recurring batch_ev;
};

/** Redis server: hash-indexed KV store fed by the client. */
class RedisServer : public Workload
{
  public:
    RedisServer(std::string name, WorkloadId id, CoreId core,
                Engine &eng, CacheSystem &cache, AddressMap &addrs,
                const RedisConfig &cfg);

    void start() override;
    void stop() override;

    /** Loopback request submission (client-side call). */
    bool submit(std::uint64_t key, bool is_update, Tick now);

    std::size_t queueDepth() const { return requests.size(); }
    const RedisConfig &config() const { return cfg; }

  private:
    struct Request
    {
        std::uint64_t key;
        bool is_update;
        Tick submit_time;
    };

    void serveBatch();

    Engine &eng;
    CacheSystem &cache;
    RedisConfig cfg;
    Addr bucket_base;
    Addr value_base;
    std::deque<Request> requests;
    Engine::Recurring serve_ev;
};

} // namespace a4

#endif // A4_WORKLOAD_REDIS_HH
