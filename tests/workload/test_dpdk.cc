/**
 * @file
 * Unit tests for the DPDK-T/NT workloads: the touch/no-touch cache
 * footprint difference (§3.1's central mechanism) and latency
 * accounting.
 */

#include <gtest/gtest.h>

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

} // namespace

TEST(Dpdk, ProcessesPacketsAtLineRate)
{
    Testbed bed(cfg16());
    NicConfig nc;
    nc.offered_gbps = 40.0; // moderate load
    DpdkWorkload &w = addDpdk(bed, "dpdk-t", true, nc);
    w.start();
    bed.run(20 * kMsec);

    Nic &nic = w.nicDevice();
    EXPECT_GT(w.ops().value(), 0u);
    // All delivered packets eventually processed (no residual pileup).
    EXPECT_NEAR(double(w.ops().value()),
                double(nic.delivered().value()),
                double(nic.delivered().value()) * 0.05);
    EXPECT_EQ(nic.dropped().value(), 0u);
}

TEST(Dpdk, TouchBringsIoLinesIntoMlc)
{
    Testbed bed(cfg16());
    DpdkWorkload &w = addDpdk(bed, "dpdk-t", true);
    w.start();
    bed.run(10 * kMsec);

    const auto &c = bed.cache().wlConst(w.id());
    EXPECT_GT(c.llc_hit.value(), 0u);       // payload hits in DCA ways
    EXPECT_GT(c.migrated_inclusive.value(), 0u); // C1 migration
}

TEST(Dpdk, NoTouchLeavesMlcUntouched)
{
    Testbed bed(cfg16());
    DpdkWorkload &w = addDpdk(bed, "dpdk-nt", false);
    w.start();
    bed.run(10 * kMsec);

    const auto &c = bed.cache().wlConst(w.id());
    // DPDK-NT performs no core accesses to packet data at all.
    EXPECT_EQ(c.mlc_hit.value() + c.mlc_miss.value(), 0u);
    EXPECT_EQ(c.migrated_inclusive.value(), 0u);
    EXPECT_GT(w.ops().value(), 0u); // still drains the ring
}

TEST(Dpdk, LatencyIncludesWireAndService)
{
    Testbed bed(cfg16());
    NicConfig nc;
    nc.offered_gbps = 10.0;
    DpdkWorkload &w = addDpdk(bed, "dpdk-t", true, nc);
    w.start();
    bed.run(10 * kMsec);

    ASSERT_GT(w.latency().count(), 0u);
    // Lower bound: the NIC wire latency alone.
    EXPECT_GE(w.latency().min(), double(nc.wire_latency));
    EXPECT_GE(w.latency().percentile(99), w.latency().mean());
}

TEST(Dpdk, OverloadSaturatesRingAndInflatesTail)
{
    // Service rate is driven far below the arrival rate by a huge
    // per-packet CPU cost: the ring must fill, latency must approach
    // ring_entries * service, and the NIC must drop.
    Testbed bed(cfg16());
    NicConfig nc;
    nc.offered_gbps = 100.0;
    Nic &nic = bed.addNic(nc);
    DpdkConfig dc = scaledDpdkConfig(bed.config().scale, true);
    dc.per_packet_cpu_ns = 50000.0;
    auto wptr = std::make_unique<DpdkWorkload>(
        "dpdk-slow", bed.allocWorkloadId(), bed.allocCores(4),
        bed.engine(), bed.cache(), nic, dc);
    DpdkWorkload &w = bed.adopt(std::move(wptr));
    w.start();
    bed.run(50 * kMsec);

    EXPECT_GT(nic.dropped().value(), 0u);
    EXPECT_GT(w.latency().percentile(99), 1000.0 * 100); // >> 100 us
}

TEST(Dpdk, CoreCountMustMatchQueues)
{
    Testbed bed(cfg16());
    NicConfig nc;
    Nic &nic = bed.addNic(nc);
    EXPECT_THROW(DpdkWorkload("bad", 1, {0, 1}, bed.engine(),
                              bed.cache(), nic, DpdkConfig{}),
                 FatalError);
}

TEST(Fastclick, RecordsBreakdownAndForwards)
{
    Testbed bed(cfg16());
    FastclickWorkload &w = addFastclick(bed, "fastclick");
    w.start();
    bed.run(10 * kMsec);

    EXPECT_GT(w.nicToHost().count(), 0u);
    EXPECT_GT(w.pointerAccess().count(), 0u);
    EXPECT_GT(w.processing().count(), 0u);
    // Every processed packet is transmitted (forwarding).
    EXPECT_EQ(w.nicDevice().txPackets().value(), w.ops().value());
    // Egress traffic flows on the same port.
    EXPECT_GT(bed.pcie().port(w.ioPort()).egress_bytes.value(), 0u);
}

TEST(Fastclick, ResetWindowClearsBreakdown)
{
    Testbed bed(cfg16());
    FastclickWorkload &w = addFastclick(bed, "fastclick");
    w.start();
    bed.run(5 * kMsec);
    ASSERT_GT(w.nicToHost().count(), 0u);
    w.resetWindow();
    EXPECT_EQ(w.nicToHost().count(), 0u);
    EXPECT_EQ(w.latency().count(), 0u);
    bed.run(5 * kMsec);
    EXPECT_GT(w.nicToHost().count(), 0u);
}

// --- idle polls sleep until the next arrival -------------------------------

namespace
{

/** DPDK poller that books every pop (tick, queue, wire arrival) and
 *  charges a fixed service time without touching the cache, so the
 *  poll schedule can be recomputed by hand. */
class PopRecorder : public DpdkWorkload
{
  public:
    static constexpr double kSvcNs = 100.0;

    struct Pop
    {
        Tick at;
        Tick arrival;
    };

    using DpdkWorkload::DpdkWorkload;

    std::vector<std::vector<Pop>> pops;

  protected:
    double
    processPacket(unsigned q, const Nic::RxPacket &pkt, double) override
    {
        pops.resize(cores().size());
        pops[q].push_back(Pop{eng.now(), pkt.arrival});
        ops_.inc();
        return kSvcNs;
    }
};

PopRecorder &
addRecorder(Testbed &bed, const NicConfig &nc, Tick idle_poll_ns = 500)
{
    Nic &nic = bed.addNic(nc);
    DpdkConfig dc;
    dc.idle_poll_ns = idle_poll_ns;
    return bed.adopt(std::make_unique<PopRecorder>(
        "rec", bed.allocWorkloadId(), bed.allocCores(nc.num_queues),
        bed.engine(), bed.cache(), nic, dc));
}

/**
 * Replay queue @p q's poll loop by hand from the recorded arrivals: a
 * poll at t pops every packet that arrived by t (up to a burst); a
 * busy poll re-polls n·svc + 1 later, an idle one @p p later. The
 * first poll is at q + 1 after @p start. Every recorded pop must land
 * on the poll the loop predicts.
 */
void
expectPollLoop(const PopRecorder &w, unsigned q, Tick start, Tick p)
{
    ASSERT_LT(q, w.pops.size());
    const auto &pops = w.pops[q];
    ASSERT_GT(pops.size(), 3u);
    const unsigned burst = w.config().burst;
    Tick t = start + q + 1;
    std::size_t i = 0;
    while (i < pops.size()) {
        unsigned n = 0;
        while (i < pops.size() && n < burst && pops[i].arrival <= t) {
            ASSERT_EQ(pops[i].at, t) << "queue " << q << " pop " << i
                                     << " arrived " << pops[i].arrival;
            ++i;
            ++n;
        }
        if (n > 0) {
            t += static_cast<Tick>(n * PopRecorder::kSvcNs) + 1;
        } else {
            // Idle: the first poll of this grid at or after the next
            // arrival.
            t += (pops[i].arrival - t + p - 1) / p * p;
        }
    }
}

NicConfig
lowLoad(unsigned queues, Tick burst_interval)
{
    NicConfig nc;
    nc.num_queues = queues;
    // 0.1 Gbps a queue on the full-size machine (the testbed divides
    // rates by its scale): one packet about every 80 us.
    nc.offered_gbps = 1.6 * queues;
    nc.poisson = false; // one fixed gap per queue
    nc.burst_interval = burst_interval;
    return nc;
}

} // namespace

TEST(DpdkSleep, PopsLandOnTheIdlePollGridOfEveryQueue)
{
    // Four queues whose poll grids start at q + 1; deterministic gaps.
    Testbed bed(cfg16());
    PopRecorder &w = addRecorder(bed, lowLoad(4, 4 * kUsec));
    w.start();
    bed.run(5 * kMsec);
    for (unsigned q = 0; q < 4; ++q)
        expectPollLoop(w, q, 0, 500);
}

TEST(DpdkSleep, NonDefaultIdlePollPeriodAndPerPacketCarrier)
{
    for (Tick burst : {Tick(0), 4 * kUsec}) {
        Testbed bed(cfg16());
        PopRecorder &w = addRecorder(bed, lowLoad(2, burst), 333);
        w.start();
        bed.run(5 * kMsec);
        for (unsigned q = 0; q < 2; ++q)
            expectPollLoop(w, q, 0, 333);
    }
}

TEST(DpdkSleep, NicRestartWakesASleepingPoller)
{
    // The NIC stops while the poller sleeps on its next arrival; the
    // poller wakes to an empty ring and sleeps until woken. start()
    // then draws fresh arrivals, which the poller must pop on its
    // grid, not at its old wake tick (or never).
    for (Tick burst : {Tick(0), 4 * kUsec}) {
        Testbed bed(cfg16());
        PopRecorder &w = addRecorder(bed, lowLoad(1, burst));
        Nic &nic = w.nicDevice();
        w.start();
        bed.run(200 * kUsec); // a few packets, then asleep
        const std::size_t before = w.pops[0].size();
        ASSERT_GT(before, 1u);
        nic.stop();
        bed.run(300 * kUsec);
        EXPECT_EQ(w.pops[0].size(), before);
        nic.start();
        bed.run(500 * kUsec);
        EXPECT_GT(w.pops[0].size(), before + 3);
        expectPollLoop(w, 0, 0, 500);
    }
}

TEST(DpdkSleep, LowLoadTenantFiresPerPacketNotPerIdlePoll)
{
    // 10 ms at 0.1 Gbps (full-size machine): ~120 packets and 2,500
    // carrier firings, where a poll every idle_poll_ns would be
    // 20,000 events.
    Testbed bed(cfg16());
    NicConfig nc;
    nc.num_queues = 1;
    nc.offered_gbps = 1.6;
    DpdkWorkload &w = addDpdk(bed, "dpdk-t", true, nc);
    w.start();
    bed.run(10 * kMsec);
    const std::uint64_t pkts = w.ops().value();
    const std::uint64_t carrier = bed.engine().batchFirings();
    ASSERT_GT(pkts, 50u);
    EXPECT_LE(bed.engine().eventsFired(), carrier + 4 * pkts + 10);
}
