/**
 * @file
 * stop() followed by start() must leave a workload with one actor
 * chain, not two: stop() drops the queued firings (sleeps included),
 * so the restarted workload fires at the same engine-event rate as
 * one that never stopped.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/builders.hh"
#include "harness/testbed.hh"

using namespace a4;

namespace
{

ServerConfig
cfg16()
{
    ServerConfig cfg;
    cfg.scale = 16;
    return cfg;
}

/**
 * Engine events fired in the third millisecond on a fresh testbed
 * where @p add builds the workloads; with @p restart they are
 * stopped after 1 ms and started again 100 ns later.
 */
template <typename Add>
std::uint64_t
thirdMsEvents(Add add, bool restart)
{
    Testbed bed(cfg16());
    const std::vector<Workload *> ws = add(bed);
    for (Workload *w : ws)
        w->start();
    bed.run(kMsec);
    if (restart) {
        for (Workload *w : ws)
            w->stop();
        bed.run(100);
        for (Workload *w : ws)
            w->start();
        bed.run(kMsec - 100);
    } else {
        bed.run(kMsec);
    }
    const std::uint64_t before = bed.engine().eventsFired();
    bed.run(kMsec);
    return bed.engine().eventsFired() - before;
}

template <typename Add>
void
expectOneChain(Add add)
{
    const std::uint64_t steady = thirdMsEvents(add, false);
    const std::uint64_t restarted = thirdMsEvents(add, true);
    ASSERT_GT(steady, 0u);
    // The restarted actors run on a shifted grid, so allow a little
    // drift, far below a second chain's doubling.
    EXPECT_LE(restarted, steady + steady / 10 + 5)
        << "steady " << steady << " restarted " << restarted;
}

} // namespace

TEST(StopStart, DpdkKeepsOnePollChainPerQueue)
{
    expectOneChain([](Testbed &bed) {
        NicConfig nc;
        nc.num_queues = 1;
        nc.offered_gbps = 0.1;
        nc.burst_interval = 0; // one carrier event per packet
        return std::vector<Workload *>{&addDpdk(bed, "dpdk-t", true, nc)};
    });
}

TEST(StopStart, XmemKeepsOneBatchChainPerLane)
{
    expectOneChain([](Testbed &bed) {
        return std::vector<Workload *>{&addXmem(bed, "xmem1", 1, 1)};
    });
}

TEST(StopStart, RedisKeepsOneServeAndOneClientChain)
{
    expectOneChain([](Testbed &bed) {
        auto [srv, cli] = addRedis(bed);
        return std::vector<Workload *>{&srv, &cli};
    });
}

TEST(StopStart, StorageServerKeepsOnePollAndOnePumpChain)
{
    // The consume pump was already guarded (one pending pump per
    // queue); the receive polls are DPDK's.
    expectOneChain([](Testbed &bed) {
        NicConfig nc;
        nc.num_queues = 1;
        nc.offered_gbps = 0.1;
        nc.burst_interval = 0;
        return std::vector<Workload *>{
            &addStorageServer(bed, "ss", StorageServerConfig(), nc)};
    });
}
