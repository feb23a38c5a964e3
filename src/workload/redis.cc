#include "workload/redis.hh"

#include "sim/log.hh"

namespace a4
{

// --- server --------------------------------------------------------------

RedisServer::RedisServer(std::string name, WorkloadId id, CoreId core,
                         Engine &eng_, CacheSystem &cache_,
                         AddressMap &addrs, const RedisConfig &config)
    : Workload(std::move(name), id, {core}), eng(eng_), cache(cache_),
      cfg(config)
{
    // Hash-bucket array (8 B per key) plus the value heap.
    bucket_base = addrs.alloc(cfg.num_keys * 8, this->name() + ".idx");
    value_base = addrs.alloc(cfg.num_keys * cfg.value_bytes,
                             this->name() + ".heap");
    serve_ev.init(eng, [this] { serveBatch(); });
}

void
RedisServer::start()
{
    if (active_)
        return;
    active_ = true;
    serve_ev.arm(1);
}

void
RedisServer::stop()
{
    Workload::stop();
    serve_ev.cancel(); // one serve chain across stop()/start()
}

bool
RedisServer::submit(std::uint64_t key, bool is_update, Tick now)
{
    if (requests.size() >= cfg.max_queue)
        return false;
    requests.push_back(Request{key, is_update, now});
    return true;
}

void
RedisServer::serveBatch()
{
    if (!active_)
        return;

    const CoreId core = cores()[0];
    double busy_ns = 0.0;
    unsigned n = 0;

    while (n < cfg.batch && !requests.empty()) {
        Request req = requests.front();
        requests.pop_front();

        double svc = cfg.server_cpu_ns_per_op;
        // Hash-bucket probe.
        AccessResult rb = cache.coreRead(
            eng.now(), core, bucket_base + req.key * 8, id());
        svc += rb.latency_ns;
        // Value access: whole record, read or update.
        Addr v = value_base + req.key * cfg.value_bytes;
        cache.coreRun(eng.now(), core, v, linesIn(cfg.value_bytes), id(),
                      req.is_update, [&](const AccessResult &r) {
                          svc += r.latency_ns / cfg.mlp;
                      });

        busy_ns += svc;
        lat_.record(static_cast<double>(eng.now() - req.submit_time) +
                    busy_ns);
        ops_.inc();
        bytes_.add(cfg.value_bytes);
        ++n;
    }

    retire(n * 900.0, busy_ns, 2.3);
    Tick next = n ? static_cast<Tick>(busy_ns) + 1 : Tick(2 * kUsec);
    serve_ev.arm(next);
}

// --- client --------------------------------------------------------------

RedisClient::RedisClient(std::string name, WorkloadId id, CoreId core,
                         Engine &eng_, CacheSystem &cache_,
                         AddressMap &addrs, RedisServer &server_,
                         const RedisConfig &config)
    : Workload(std::move(name), id, {core}), eng(eng_), cache(cache_),
      server(server_), cfg(config),
      keys(config.num_keys, config.zipf_theta, mixSeed(config.seed)),
      rng(mixSeed(config.seed ^ 0xC11E57ull))
{
    // Request-marshalling buffers: a modest client-side working set.
    req_buf = addrs.alloc(256 * kKiB, this->name() + ".req");
    req_lines = linesIn(256 * kKiB);
    batch_ev.init(eng, [this] { runBatch(); });
}

void
RedisClient::start()
{
    if (active_)
        return;
    active_ = true;
    batch_ev.arm(2);
}

void
RedisClient::stop()
{
    Workload::stop();
    batch_ev.cancel(); // one batch chain across stop()/start()
}

void
RedisClient::runBatch()
{
    if (!active_)
        return;

    const CoreId core = cores()[0];
    double busy_ns = 0.0;

    for (unsigned i = 0; i < cfg.batch; ++i) {
        double svc = cfg.client_cpu_ns_per_op;
        // Marshal the request through the client buffer.
        AccessResult r = cache.coreWrite(
            eng.now(), core, req_buf + (pos % req_lines) * kLineBytes,
            id());
        ++pos;
        svc += r.latency_ns / cfg.mlp;

        bool is_update = !rng.chance(cfg.read_ratio);
        if (server.submit(keys.nextScrambled(), is_update, eng.now())) {
            ops_.inc();
        }
        busy_ns += svc;
    }

    retire(cfg.batch * 600.0, busy_ns, 2.3);
    batch_ev.arm(static_cast<Tick>(busy_ns) + 1);
}

} // namespace a4
