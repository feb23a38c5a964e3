/**
 * @file
 * Unit tests for the NIC model: arrival rate, ring slot recycling,
 * drop-on-full behaviour, and DMA paths into the hierarchy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "iodev/nic.hh"

using namespace a4;

namespace
{

struct Rig
{
    Rig()
        : cat(11, 8), cache(geom(), CacheLatencies{}, dram, cat),
          ddio(2), dma(cache, ddio, pcie)
    {
        port = pcie.addPort("nic0", DeviceClass::Network);
    }

    static CacheGeometry
    geom()
    {
        CacheGeometry g;
        g.num_cores = 8;
        g.llc_sets = 256;
        g.mlc_ways = 4;
        g.mlc_sets = 64;
        return g;
    }

    Nic &
    makeNic(NicConfig cfg)
    {
        nic = std::make_unique<Nic>(eng, dma, addrs, port, cfg);
        for (unsigned q = 0; q < cfg.num_queues; ++q)
            nic->attachConsumer(q, 1, static_cast<CoreId>(q));
        return *nic;
    }

    Engine eng;
    Dram dram;
    CatController cat;
    CacheSystem cache;
    DdioController ddio;
    PcieTopology pcie;
    DmaEngine dma;
    AddressMap addrs;
    std::unique_ptr<Nic> nic;
    PortId port = 0;
};

} // namespace

TEST(Nic, RejectsOutOfRangeRates)
{
    // interarrival() divides by the rate and the packet size; each of
    // these would cast an inf/NaN gap to Tick.
    auto expectRejected = [](NicConfig cfg, const char *knob) {
        Rig r;
        try {
            r.makeNic(cfg);
            ADD_FAILURE() << "accepted a bad " << knob;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(knob),
                      std::string::npos)
                << e.what();
        }
    };
    for (double gbps : {0.0, -5.0, std::nan(""), HUGE_VAL}) {
        NicConfig cfg;
        cfg.offered_gbps = gbps;
        expectRejected(cfg, "offered_gbps");
    }
    NicConfig cfg;
    cfg.packet_bytes = 0;
    expectRejected(cfg, "packet_bytes");
}

TEST(Nic, DeliversAtConfiguredRate)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 2;
    cfg.ring_entries = 4096;
    cfg.packet_bytes = 1024;
    cfg.offered_gbps = 8.0; // ~1M pps aggregate
    cfg.poisson = false;
    Nic &nic = r.makeNic(cfg);
    nic.start();
    // 5 ms keeps the arrivals below the 2 x 4096 ring capacity (no
    // consumer in this test).
    r.eng.runFor(5 * kMsec);

    // 8 Gb/s / (1024 B/pkt) = ~976k pps -> ~4883 packets in 5 ms.
    double expected = 8e9 / 8.0 / 1024.0 * 0.005;
    EXPECT_NEAR(double(nic.delivered().value()), expected,
                expected * 0.05);
    EXPECT_EQ(nic.dropped().value(), 0u);
}

TEST(Nic, PoissonMatchesMeanRate)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 4;
    cfg.ring_entries = 8192;
    cfg.packet_bytes = 512;
    cfg.offered_gbps = 4.0;
    cfg.poisson = true;
    Nic &nic = r.makeNic(cfg);
    nic.start();
    r.eng.runFor(20 * kMsec);

    double expected = 4e9 / 8.0 / 512.0 * 0.020;
    EXPECT_NEAR(double(nic.delivered().value()), expected,
                expected * 0.10);
}

TEST(Nic, DropsWhenRingFull)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.ring_entries = 64;
    cfg.packet_bytes = 1024;
    cfg.offered_gbps = 10.0;
    cfg.poisson = false;
    Nic &nic = r.makeNic(cfg);
    nic.start();
    // Nobody consumes: the ring must fill and subsequent arrivals drop.
    r.eng.runFor(5 * kMsec);
    EXPECT_EQ(nic.pending(0), 64u);
    EXPECT_GT(nic.dropped().value(), 0u);
}

TEST(Nic, PopReturnsFifoOrder)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.ring_entries = 128;
    cfg.packet_bytes = 256;
    cfg.offered_gbps = 1.0;
    cfg.poisson = false;
    Nic &nic = r.makeNic(cfg);
    nic.start();
    r.eng.runFor(2 * kMsec);

    Nic::RxPacket a, b;
    ASSERT_TRUE(nic.pop(0, a));
    ASSERT_TRUE(nic.pop(0, b));
    EXPECT_LE(a.arrival, b.arrival);
    EXPECT_EQ(a.bytes, 256u);
}

TEST(Nic, DmaWritesLandInDcaWays)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.ring_entries = 256;
    cfg.packet_bytes = 1024;
    cfg.offered_gbps = 5.0;
    Nic &nic = r.makeNic(cfg);
    nic.start();
    r.eng.runFor(1 * kMsec);
    ASSERT_GT(nic.delivered().value(), 0u);

    auto occ = r.cache.llcWayOccupancyOf(1);
    EXPECT_GT(occ[0] + occ[1], 0u);
    for (unsigned w = 2; w < occ.size(); ++w)
        EXPECT_EQ(occ[w], 0u) << "way " << w;
}

TEST(Nic, SlotRecyclingWriteUpdates)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.ring_entries = 8; // tiny ring: fast wrap-around
    cfg.packet_bytes = 256;
    cfg.offered_gbps = 10.0;
    cfg.poisson = false;
    Nic &nic = r.makeNic(cfg);
    nic.start();

    // Drain continuously so slots recycle.
    std::function<void()> drain = [&] {
        Nic::RxPacket p;
        while (nic.pop(0, p)) {
        }
        r.eng.schedule(10 * kUsec, drain);
    };
    r.eng.schedule(10 * kUsec, drain);
    r.eng.runFor(5 * kMsec);

    // Wrapped many times over 8 slots: write-updates must dominate.
    EXPECT_GT(r.cache.wl(1).dma_write_update.value(),
              r.cache.wl(1).dma_write_alloc.value());
}

TEST(Nic, TxCountsEgress)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.ring_entries = 16;
    Nic &nic = r.makeNic(cfg);
    nic.tx(0x123400, 512, 0);
    EXPECT_EQ(nic.txPackets().value(), 1u);
    EXPECT_EQ(r.pcie.port(r.port).egress_bytes.value(), 512u);
}

TEST(Nic, StopHaltsArrivals)
{
    Rig r;
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.ring_entries = 4096;
    cfg.offered_gbps = 10.0;
    Nic &nic = r.makeNic(cfg);
    nic.start();
    r.eng.runFor(1 * kMsec);
    std::uint64_t n = nic.delivered().value();
    ASSERT_GT(n, 0u);
    nic.stop();
    r.eng.runFor(5 * kMsec);
    EXPECT_EQ(nic.delivered().value(), n);
}
