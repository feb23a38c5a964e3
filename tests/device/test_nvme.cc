/**
 * @file
 * Unit tests for the NVMe SSD array model. The key property is the
 * Fig. 5 throughput shape: per-command overhead dominates small
 * blocks; the shared link caps large blocks; and DCA on/off does not
 * change device throughput.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "duration_scale.hh"
#include "iodev/nvme.hh"

using namespace a4;
using a4::test::stretch;

namespace
{

struct Rig
{
    Rig()
        : cat(11, 4), cache(geom(), CacheLatencies{}, dram, cat),
          ddio(2), dma(cache, ddio, pcie)
    {
        port = pcie.addPort("ssd0", DeviceClass::Storage);
    }

    static CacheGeometry
    geom()
    {
        CacheGeometry g;
        g.num_cores = 4;
        g.llc_sets = 512;
        g.mlc_ways = 4;
        g.mlc_sets = 64;
        return g;
    }

    SsdArray &
    makeSsd(SsdConfig cfg)
    {
        ssd = std::make_unique<SsdArray>(eng, dma, port, cfg);
        return *ssd;
    }

    /** Closed-loop driver: @p outstanding buffers, resubmit on done
     *  (in virtual time — the completion tick chains the next
     *  submission, exactly as FioWorkload does). */
    double
    measureThroughput(SsdArray &dev, std::uint64_t block,
                      unsigned outstanding, Tick duration)
    {
        std::function<void(Tick, Addr)> submit = [&](Tick t, Addr buf) {
            dev.submitRead(t, buf, block, 1, {0},
                           [&, buf](Tick done) { submit(done, buf); });
        };
        for (unsigned i = 0; i < outstanding; ++i)
            submit(eng.now(), 0x1000000 + std::uint64_t(i) * 4 * kMiB);
        std::uint64_t prev = 0;
        pcie.port(port).ingress_bytes.delta(prev);
        eng.runFor(duration);
        // Raw PCIe counters bypass the observation barrier: apply the
        // lazily-pending completions before reading them.
        cache.drainDeferred(eng.now());
        std::uint64_t bytes = pcie.port(port).ingress_bytes.delta(prev);
        return double(bytes) * 1e9 / double(duration);
    }

    Engine eng;
    Dram dram;
    CatController cat;
    CacheSystem cache;
    DdioController ddio;
    PcieTopology pcie;
    DmaEngine dma;
    std::unique_ptr<SsdArray> ssd;
    PortId port = 0;
};

} // namespace

TEST(Nvme, CompletionDeliversBlockViaDma)
{
    Rig r;
    SsdConfig cfg;
    SsdArray &dev = r.makeSsd(cfg);
    bool done = false;
    Tick done_at = 0;
    dev.submitRead(r.eng.now(), 0x100000, 128 * kKiB, 1, {0},
                   [&](Tick t) {
                       done = true;
                       done_at = t;
                   });
    EXPECT_EQ(dev.inFlight(), 1u);
    r.eng.runFor(10 * kMsec);
    EXPECT_EQ(dev.inFlight(), 0u); // drains pending completions
    EXPECT_TRUE(done);
    EXPECT_GT(done_at, cfg.cmd_overhead);
    EXPECT_LE(done_at, r.eng.now());
    EXPECT_EQ(r.pcie.port(r.port).ingress_bytes.value(), 128 * kKiB);
    EXPECT_EQ(dev.completedReads().value(), 1u);
}

TEST(Nvme, ParallelismBoundsInFlight)
{
    Rig r;
    SsdConfig cfg;
    cfg.parallelism = 4;
    SsdArray &dev = r.makeSsd(cfg);
    for (int i = 0; i < 16; ++i)
        dev.submitRead(r.eng.now(), 0x100000 + i * 0x10000, 4 * kKiB,
                       1, {0}, {});
    EXPECT_EQ(dev.inFlight(), 4u);
    r.eng.runFor(50 * kMsec);
    EXPECT_EQ(dev.completedReads().value(), 16u);
}

TEST(Nvme, SmallBlocksAreOverheadBound)
{
    // Windows sized to a few hundred command rounds: long enough for
    // the closed loop to reach steady state, short enough that the
    // whole suite stays fast at -O0.
    Rig r;
    SsdConfig cfg; // 60 us overhead, 12.8 GB/s link, parallelism 16
    SsdArray &dev = r.makeSsd(cfg);
    double tp = r.measureThroughput(dev, 4 * kKiB, 32,
                                    stretch(10 * kMsec));
    // 16 concurrent * 4 KiB / ~60 us ~= 1.0-1.2 GB/s.
    EXPECT_GT(tp, 0.5e9);
    EXPECT_LT(tp, 2.5e9);
}

TEST(Nvme, LargeBlocksSaturateTheLink)
{
    Rig r;
    SsdConfig cfg;
    SsdArray &dev = r.makeSsd(cfg);
    double tp = r.measureThroughput(dev, 1 * kMiB, 32,
                                    stretch(15 * kMsec));
    EXPECT_GT(tp, 0.85 * cfg.link_bw_bps);
    EXPECT_LE(tp, 1.05 * cfg.link_bw_bps);
}

TEST(Nvme, ThroughputMonotonicInBlockSize)
{
    Rig r;
    SsdConfig cfg;
    SsdArray &dev = r.makeSsd(cfg);
    double prev = 0.0;
    for (std::uint64_t bs : {4 * kKiB, 32 * kKiB, 256 * kKiB}) {
        double tp = r.measureThroughput(dev, bs, 16,
                                        stretch(10 * kMsec));
        EXPECT_GE(tp, prev * 0.95) << "block " << bs;
        prev = tp;
    }
}

TEST(Nvme, ThroughputUnaffectedByDca)
{
    // Fig. 5's central observation: device throughput is the same
    // with DCA on and off.
    Rig on, off;
    SsdConfig cfg;
    SsdArray &dev_on = on.makeSsd(cfg);
    SsdArray &dev_off = off.makeSsd(cfg);
    off.ddio.disableDcaForPort(off.port);

    double tp_on = on.measureThroughput(dev_on, 256 * kKiB, 16,
                                        stretch(10 * kMsec));
    double tp_off = off.measureThroughput(dev_off, 256 * kKiB, 16,
                                          stretch(10 * kMsec));
    EXPECT_NEAR(tp_on, tp_off, tp_on * 0.02);
}

TEST(Nvme, WritesUseEgressPath)
{
    Rig r;
    SsdConfig cfg;
    SsdArray &dev = r.makeSsd(cfg);
    bool done = false;
    dev.submitWrite(r.eng.now(), 0x200000, 64 * kKiB, 1, {0},
                    [&](Tick) { done = true; });
    r.eng.runFor(10 * kMsec);
    EXPECT_EQ(dev.completedWrites().value(), 1u); // drains
    EXPECT_TRUE(done);
    EXPECT_EQ(r.pcie.port(r.port).egress_bytes.value(), 64 * kKiB);
}

TEST(Nvme, RejectsBadConfig)
{
    Rig r;
    SsdConfig cfg;
    cfg.parallelism = 0;
    EXPECT_THROW(r.makeSsd(cfg), FatalError);
    SsdConfig cfg2;
    cfg2.link_bw_bps = -1;
    EXPECT_THROW(r.makeSsd(cfg2), FatalError);
    SsdConfig cfg3;
    cfg3.link_bw_bps = std::nan("");
    EXPECT_THROW(r.makeSsd(cfg3), FatalError);
}
