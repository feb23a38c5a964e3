#include "workload/cpustream.hh"

#include "sim/log.hh"

namespace a4
{

CpuStreamWorkload::CpuStreamWorkload(std::string name, WorkloadId id,
                                     std::vector<CoreId> cores_in,
                                     Engine &eng_, CacheSystem &cache_,
                                     AddressMap &addrs,
                                     const CpuStreamConfig &config)
    : Workload(std::move(name), id, std::move(cores_in)), eng(eng_),
      cache(cache_), cfg(config)
{
    if (cores().empty())
        fatal("CpuStreamWorkload: needs at least one core");
    if (cfg.ws_bytes < kLineBytes)
        fatal("CpuStreamWorkload: working set below one line");

    base = addrs.alloc(cfg.ws_bytes, this->name() + ".ws");
    ws_lines = linesIn(cfg.ws_bytes);

    lanes.resize(cores().size());
    for (std::size_t i = 0; i < cores().size(); ++i) {
        lanes[i].core = cores()[i];
        // Stagger sequential lanes so cores stream disjoint phases of
        // the shared working set (threaded X-Mem behaviour).
        lanes[i].pos = (ws_lines / cores().size()) * i;
        lanes[i].rng = Rng(mixSeed(cfg.seed + 0x1000 * (i + 1)));
        lanes[i].batch_ev.init(eng, [this, i] { runBatch(unsigned(i)); });
    }
}

void
CpuStreamWorkload::start()
{
    if (active_)
        return;
    active_ = true;
    for (unsigned i = 0; i < lanes.size(); ++i)
        lanes[i].batch_ev.arm(i + 1);
}

void
CpuStreamWorkload::stop()
{
    Workload::stop();
    // Drop queued batches so a stop()/start() cycle cannot leave two
    // batch chains per lane.
    for (Lane &lane : lanes)
        lane.batch_ev.cancel();
}

Addr
CpuStreamWorkload::nextAddr(unsigned lane_idx, bool &is_write)
{
    using Pattern = CpuStreamConfig::Pattern;
    Lane &lane = lanes[lane_idx];
    std::uint64_t line = 0;
    is_write = false;

    switch (cfg.pattern) {
      case Pattern::SeqRead:
        line = lane.pos;
        lane.pos = (lane.pos + 1) % ws_lines;
        break;
      case Pattern::SeqWrite:
        line = lane.pos;
        lane.pos = (lane.pos + 1) % ws_lines;
        is_write = true;
        break;
      case Pattern::SeqRW:
        // Streaming stencil: read one stream, write a disjoint one
        // (half the working set apart), like lbm's grid sweeps.
        lane.write_toggle = !lane.write_toggle;
        is_write = lane.write_toggle;
        if (is_write) {
            line = (lane.pos + ws_lines / 2) % ws_lines;
        } else {
            line = lane.pos;
            lane.pos = (lane.pos + 1) % ws_lines;
        }
        break;
      case Pattern::RandRead:
        line = lane.rng.below(ws_lines);
        break;
      case Pattern::RandRW:
        line = lane.rng.below(ws_lines);
        is_write = lane.rng.chance(0.5);
        break;
    }
    return base + line * kLineBytes;
}

void
CpuStreamWorkload::runBatch(unsigned lane_idx)
{
    if (!active_)
        return;
    Lane &lane = lanes[lane_idx];

    double stall_ns = 0.0;
    for (unsigned i = 0; i < cfg.batch; ++i) {
        bool is_write = false;
        Addr addr = nextAddr(lane_idx, is_write);
        AccessResult r =
            is_write ? cache.coreWrite(eng.now(), lane.core, addr, id())
                     : cache.coreRead(eng.now(), lane.core, addr, id());
        stall_ns += r.latency_ns / cfg.mlp;
    }

    const double compute_ns =
        cfg.batch * cfg.instr_per_access * cfg.cpi_base / cfg.freq_ghz;
    const double busy_ns = compute_ns + stall_ns;

    ops_.add(cfg.batch);
    bytes_.add(std::uint64_t(cfg.batch) * kLineBytes);
    retire(cfg.batch * (cfg.instr_per_access + 1.0), busy_ns,
           cfg.freq_ghz);

    lane.batch_ev.arm(static_cast<Tick>(busy_ns) + 1);
}

} // namespace a4
