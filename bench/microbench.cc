/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache access variants, DMA paths, and the event engine. These
 * bound how much simulated traffic the figure benches can push per
 * wall-clock second.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
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
    // Alternating conflict pair: every access is an MLC miss that
    // hits the LLC and round-trips through the victim path.
    Rig r;
    // Build a set of lines that collide in the MLC (same MLC set).
    std::vector<Addr> conflict;
    Addr probe = 0x100000;
    while (conflict.size() < 20) {
        if (r.cache.inMlc(kCore, 0x100000) || true) {
            conflict.push_back(probe);
            probe += kLineBytes;
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            r.cache.coreRead(0, kCore, conflict[i], kWl));
        i = (i + 1) % conflict.size();
    }
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
    // 64 staggered recurring actors: exercises real heap traffic (the
    // front cache cannot short-circuit every pop). Reported time is
    // per tick, with ~multiple firings per tick.
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
    // future: the binary heap pays O(log N) per operation against the
    // standing population. Arg = pending count.
    const auto pending = static_cast<std::size_t>(state.range(0));
    Engine eng;
    for (std::size_t i = 0; i < pending; ++i)
        eng.schedule(std::uint64_t(1) << 40, [] {});
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
