/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache access variants, DMA paths, and the event engine. These
 * bound how much simulated traffic the figure benches can push per
 * wall-clock second.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/scan.hh"
#include "harness/testbed.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"
#include "sim/engine.hh"

using namespace a4;

namespace
{

struct Rig
{
    Rig()
        : cat(11, 18),
          cache(CacheGeometry{}.scaled(4), CacheLatencies{}, dram, cat)
    {}

    Dram dram;
    CatController cat;
    CacheSystem cache;
};

constexpr CoreId kCore = 0;
constexpr WorkloadId kWl = 1;
constexpr CoreId kConsumers[1] = {0};

} // namespace

static void
BM_MlcHit(benchmark::State &state)
{
    Rig r;
    r.cache.coreRead(0, kCore, 0x10000, kWl);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            r.cache.coreRead(0, kCore, 0x10000, kWl));
}
BENCHMARK(BM_MlcHit);

static void
BM_LlcHitVictimRoundTrip(benchmark::State &state)
{
    // Cyclic sweep over twice the MLC's capacity: under LRU every
    // access misses the MLC, hits the LLC (the line the sweep pushed
    // out one lap ago) and round-trips through the victim path.
    // llc_hit_share reports how many timed accesses really did.
    Rig r;
    const CacheGeometry &g = r.cache.geometry();
    const std::uint64_t lines = 2ull * g.mlc_sets * g.mlc_ways;
    constexpr Addr kBase = 0x1000000;
    for (int lap = 0; lap < 2; ++lap) {
        for (std::uint64_t i = 0; i < lines; ++i)
            r.cache.coreRead(0, kCore, kBase + i * kLineBytes, kWl);
    }
    std::uint64_t i = 0, llc_hits = 0, accesses = 0;
    for (auto _ : state) {
        const AccessResult res =
            r.cache.coreRead(0, kCore, kBase + i * kLineBytes, kWl);
        benchmark::DoNotOptimize(res);
        llc_hits += res.level == HitLevel::LlcHit;
        ++accesses;
        i = i + 1 == lines ? 0 : i + 1;
    }
    state.counters["llc_hit_share"] =
        double(llc_hits) / double(std::max<std::uint64_t>(accesses, 1));
}
BENCHMARK(BM_LlcHitVictimRoundTrip);

static void
BM_MemoryFill(benchmark::State &state)
{
    Rig r;
    Addr a = 0x200000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(r.cache.coreRead(0, kCore, a, kWl));
        a += kLineBytes; // always cold
    }
}
BENCHMARK(BM_MemoryFill);

static void
BM_DmaWriteAllocate(benchmark::State &state)
{
    Rig r;
    Addr a = 0x4000000;
    for (auto _ : state) {
        r.cache.dmaWriteLine(0, a, kWl, kConsumers, true);
        a += kLineBytes;
    }
}
BENCHMARK(BM_DmaWriteAllocate);

static void
BM_DmaWriteAllocateFleet(benchmark::State &state)
{
    // DMA allocation at fleet geometry: 80 cores at scale 4, so the
    // MLC set blocks alone outgrow a host L2. 64 streams, each with
    // its own consumer core, are written round robin a line at a time
    // into 1 MiB rings; every write probes its consumer's MLC for a
    // stale copy, so the probes spread over every core's blocks.
    CacheGeometry g;
    g.num_cores = 80;
    g = g.scaled(4);
    Dram dram;
    CatController cat(g.llc_ways, g.num_cores);
    CacheSystem cache(g, CacheLatencies{}, dram, cat);
    constexpr unsigned kStreams = 64;
    constexpr std::uint64_t kRingLines = kMiB / kLineBytes;
    constexpr Addr kBase = 0x10000000;
    std::uint64_t line = 0;
    unsigned s = 0;
    for (auto _ : state) {
        const CoreId consumer[1] = {static_cast<CoreId>(1 + s)};
        cache.dmaWriteLine(0, kBase + (s * kRingLines + line) * kLineBytes,
                           static_cast<WorkloadId>(1 + s), consumer, true);
        if (++s == kStreams) {
            s = 0;
            line = line + 1 == kRingLines ? 0 : line + 1;
        }
    }
}
BENCHMARK(BM_DmaWriteAllocateFleet);

static void
BM_DmaWriteUpdate(benchmark::State &state)
{
    Rig r;
    r.cache.dmaWriteLine(0, 0x5000000, kWl, kConsumers, true);
    for (auto _ : state)
        r.cache.dmaWriteLine(0, 0x5000000, kWl, kConsumers, true);
}
BENCHMARK(BM_DmaWriteUpdate);

static void
BM_DmaNonAllocating(benchmark::State &state)
{
    Rig r;
    Addr a = 0x6000000;
    for (auto _ : state) {
        r.cache.dmaWriteLine(0, a, kWl, kConsumers, false);
        a += kLineBytes;
    }
}
BENCHMARK(BM_DmaNonAllocating);

static void
BM_DmaReadEgress(benchmark::State &state)
{
    // Egress of 4 KB packets that DMA wrote into the DCA ways and no
    // core consumed: the run path DmaEngine::read takes.
    // served_share counts lines served from the LLC.
    Rig r;
    constexpr std::uint64_t kPacketLines = 64;
    constexpr std::uint64_t kPackets = 64;
    constexpr Addr kBase = 0x8000000;
    r.cache.dmaWriteRun(0, kBase, kPackets * kPacketLines, kWl, kConsumers,
                        true);
    std::uint64_t p = 0, served = 0, lines = 0;
    for (auto _ : state) {
        served += r.cache.dmaReadRun(
            0, kBase + p * kPacketLines * kLineBytes, kPacketLines, kWl,
            kConsumers);
        lines += kPacketLines;
        p = p + 1 == kPackets ? 0 : p + 1;
    }
    state.SetItemsProcessed(std::int64_t(lines));
    state.counters["served_share"] =
        double(served) / double(std::max<std::uint64_t>(lines, 1));
}
BENCHMARK(BM_DmaReadEgress);

static void
BM_CoreLineRun(benchmark::State &state)
{
    // The storage consume pattern: an NVMe block DMA-written into one
    // of 64 slot buffers, then read by the core as one line run (C1
    // migrations into the inclusive ways, MLC fills and evictions).
    // Reported time is per block; items are lines.
    Rig r;
    const auto block_lines = static_cast<std::uint64_t>(state.range(0));
    constexpr std::uint64_t kSlots = 64;
    constexpr Addr kBase = 0x9000000;
    std::uint64_t slot = 0, lines = 0;
    double ns = 0.0;
    for (auto _ : state) {
        const Addr buf = kBase + slot * block_lines * kLineBytes;
        r.cache.dmaWriteRun(0, buf, block_lines, kWl, kConsumers, true);
        r.cache.coreRun(0, kCore, buf, block_lines, kWl, false,
                        [&](const AccessResult &res) {
                            ns += res.latency_ns;
                        });
        lines += block_lines;
        slot = slot + 1 == kSlots ? 0 : slot + 1;
    }
    benchmark::DoNotOptimize(ns);
    state.SetItemsProcessed(std::int64_t(lines));
}
BENCHMARK(BM_CoreLineRun)->ArgName("lines")->Arg(64);

static void
BM_SetScan(benchmark::State &state)
{
    // The kernels an LLC fill runs -- tag match, LRU victim, then the
    // rank touch of the filled way -- over one warm, L1-resident block
    // with every way valid, so the victim takes the rank argmin. Each
    // iteration looks up another way's line and masks that way out of
    // the victim choice.
    const auto ways = static_cast<unsigned>(state.range(0));
    alignas(64) std::uint32_t tags[32] = {};
    alignas(64) std::uint8_t ranks[32] = {};
    for (unsigned w = 0; w < ways; ++w) {
        tags[w] = 0x1000 + 7 * w;
        ranks[w] = static_cast<std::uint8_t>(w);
    }
    for (unsigned w = 0; w < ways; w += 3)
        scan::rankTouch(ranks, ways, w);
    unsigned w = 0;
    for (auto _ : state) {
        const int found = scan::findWay(tags, ways, tags[w]);
        const int victim =
            scan::lruVictim(tags, ranks, ways, ~(WayMask(1) << w));
        scan::rankTouch(ranks, ways, static_cast<unsigned>(victim));
        benchmark::DoNotOptimize(found);
        benchmark::DoNotOptimize(ranks);
        w = w + 1 == ways ? 0 : w + 1;
    }
}
BENCHMARK(BM_SetScan)->ArgName("ways")->Arg(11)->Arg(16);

static void
BM_EngineScheduleFire(benchmark::State &state)
{
    Engine eng;
    Tick t = 0;
    for (auto _ : state) {
        eng.schedule(1, [] {});
        eng.runUntil(++t);
    }
}
BENCHMARK(BM_EngineScheduleFire);

static void
BM_EngineRecurringFire(benchmark::State &state)
{
    // Steady-state actor path: the callback is installed once and the
    // event re-arms itself, as every workload poll loop now does.
    Engine eng;
    Engine::Recurring ev;
    std::uint64_t count = 0;
    ev.init(eng, [&] {
        ++count;
        ev.arm(1);
    });
    ev.arm(1);
    Tick t = 0;
    for (auto _ : state)
        eng.runUntil(++t);
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_EngineRecurringFire);

static void
BM_EngineManyActors(benchmark::State &state)
{
    // 64 staggered recurring actors over seven periods: the front
    // cache cannot short-circuit every pop, and the re-arms spread
    // over seven delay FIFOs, so each pop takes the least FIFO head.
    // Reported time is per tick, with ~multiple firings per tick.
    Engine eng;
    constexpr unsigned kActors = 64;
    std::vector<Engine::Recurring> evs(kActors);
    for (unsigned i = 0; i < kActors; ++i) {
        evs[i].init(eng, [&evs, i] { evs[i].arm(1 + (i % 7)); });
        evs[i].arm(1 + i);
    }
    Tick t = 0;
    for (auto _ : state)
        eng.runUntil(++t);
}
BENCHMARK(BM_EngineManyActors);

static void
BM_EngineQueueLadder(benchmark::State &state)
{
    // Schedule+fire one event while N others sit pending far in the
    // future on the heap (absolute schedules never enter the delay
    // FIFOs): the binary heap pays O(log N) per operation against the
    // standing population. Arg = pending count.
    const auto pending = static_cast<std::size_t>(state.range(0));
    Engine eng;
    for (std::size_t i = 0; i < pending; ++i)
        eng.scheduleAt(std::uint64_t(1) << 40, [] {});
    Tick t = 0;
    for (auto _ : state) {
        eng.schedule(1, [] {});
        eng.runUntil(++t);
    }
}
BENCHMARK(BM_EngineQueueLadder)
    ->ArgName("pending")
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

static void
BM_EngineFleetPollers(benchmark::State &state)
{
    // The event mix of a 65-tenant fleet: 80 idle pollers re-arming
    // every 500 ns, 65 NIC pumps every 4 us, and a few actors whose
    // re-arm delay varies (daemon ticks, sampling). Fixed delays ride
    // the delay FIFOs; the variable ones take the remaining FIFOs or
    // the heap. Reported time is per 100 ns of simulated time; items
    // are events.
    Engine eng;
    constexpr unsigned kPollers = 80, kPumps = 65, kVariable = 4;
    std::vector<Engine::Recurring> evs(kPollers + kPumps + kVariable);
    Tick variable = 0;
    for (unsigned i = 0; i < evs.size(); ++i) {
        if (i < kPollers) {
            evs[i].init(eng, [&evs, i] { evs[i].arm(500); });
            evs[i].arm(1 + i * 500 / kPollers);
        } else if (i < kPollers + kPumps) {
            evs[i].init(eng, [&evs, i] { evs[i].arm(4000); });
            evs[i].arm(1 + (i - kPollers) * 4000 / kPumps);
        } else {
            evs[i].init(eng, [&evs, &variable, i] {
                variable = variable * 6364136223846793005ull + 1;
                evs[i].arm(700 + (variable >> 33) % 9000);
            });
            evs[i].arm(1 + i);
        }
    }
    const std::uint64_t fired0 = eng.eventsFired();
    Tick t = 0;
    for (auto _ : state)
        eng.runUntil(t += 100);
    state.SetItemsProcessed(std::int64_t(eng.eventsFired() - fired0));
}
BENCHMARK(BM_EngineFleetPollers);

namespace
{

/** A deferred source generating one access every fixed period, and
 *  touching nothing when applied: prices the merge alone. */
class PeriodicSource : public DeferredIoSource
{
  public:
    PeriodicSource(Tick first, Tick period) : next_(first), period_(period)
    {}
    Tick deferredTick() const override { return next_; }
    void
    applyDeferredAccess() override
    {
        next_ += period_;
        ++applied;
    }

    std::uint64_t applied = 0;

  private:
    Tick next_;
    Tick period_;
};

} // namespace

static void
BM_DeferredDrain(benchmark::State &state)
{
    // The observation barrier over N attached sources, each
    // generating an access every ~8 us at a staggered phase; every
    // iteration advances 100 ns and drains. Items are applied
    // accesses.
    Rig r;
    const auto n = static_cast<unsigned>(state.range(0));
    std::vector<std::unique_ptr<PeriodicSource>> srcs;
    for (unsigned i = 0; i < n; ++i) {
        srcs.push_back(std::make_unique<PeriodicSource>(
            1 + i * 97 % 8000, 8000 + i % 5));
        r.cache.attachDeferredSource(*srcs.back());
    }
    Tick t = 0;
    std::uint64_t applied = 0;
    for (auto _ : state) {
        t += 100;
        r.cache.drainDeferred(t);
    }
    for (auto &s : srcs) {
        applied += s->applied;
        r.cache.detachDeferredSource(*s);
    }
    state.SetItemsProcessed(std::int64_t(applied));
}
BENCHMARK(BM_DeferredDrain)->ArgName("sources")->Arg(65);

static void
BM_CacheSystemConstruct(benchmark::State &state)
{
    // Building and tearing down the cache of one point at the
    // ServerConfig::fast() geometry (scale 4) with N cores: 18 is the
    // Table-1 server, 80 the fleet. The CAT controller and Dram are
    // built once outside the loop.
    ServerConfig cfg = ServerConfig::fast();
    cfg.geometry.num_cores = static_cast<unsigned>(state.range(0));
    const CacheGeometry g = cfg.scaledGeometry();
    Dram dram;
    CatController cat(g.llc_ways, g.num_cores);
    for (auto _ : state) {
        CacheSystem cache(g, cfg.latencies, dram, cat);
        benchmark::DoNotOptimize(&cache);
    }
}
BENCHMARK(BM_CacheSystemConstruct)->ArgName("cores")->Arg(18)->Arg(80);

static void
BM_LlcOccupancyCensus(benchmark::State &state)
{
    Rig r;
    for (Addr a = 0; a < 4 * kMiB; a += kLineBytes)
        r.cache.dmaWriteLine(0, 0x7000000 + a, kWl, kConsumers, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.cache.llcWayOccupancy());
}
BENCHMARK(BM_LlcOccupancyCensus);

BENCHMARK_MAIN();
