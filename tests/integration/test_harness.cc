/**
 * @file
 * Tests for the experiment harness itself: testbed wiring, scaling
 * rules, measurement windows, the table printer, and scenario
 * plumbing. The harness generates every number in EXPERIMENTS.md, so
 * its own behaviour is pinned down here.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/builders.hh"
#include "harness/experiment.hh"
#include "harness/scenarios.hh"
#include "harness/table.hh"

using namespace a4;

TEST(Testbed, ScalesGeometryAndBandwidth)
{
    ServerConfig cfg;
    cfg.scale = 4;
    Testbed bed(cfg);

    EXPECT_EQ(bed.cache().geometry().llc_sets, 18u * 2048u / 4u);
    EXPECT_EQ(bed.cache().geometry().llc_ways, 11u); // ways never scale
    EXPECT_NEAR(bed.dram().config().peak_bw_bps, 128e9 / 4, 1e6);

    NicConfig nic_cfg;
    Nic &nic = bed.addNic(nic_cfg);
    EXPECT_NEAR(nic.config().offered_gbps, 100.0 / 4, 0.01);
    EXPECT_EQ(nic.config().ring_entries, 2048u / 4u);

    SsdArray &ssd = bed.addSsd(SsdConfig{});
    EXPECT_NEAR(ssd.config().link_bw_bps, 12.8e9 / 4, 1e6);
}

TEST(Testbed, AllocatesDistinctCoresAndIds)
{
    Testbed bed;
    auto a = bed.allocCores(4);
    auto b = bed.allocCores(2);
    EXPECT_EQ(a.size(), 4u);
    EXPECT_EQ(b[0], 4u);
    EXPECT_NE(bed.allocWorkloadId(), bed.allocWorkloadId());
}

TEST(Testbed, RunsOutOfCoresLoudly)
{
    Testbed bed;
    bed.allocCores(18);
    EXPECT_THROW(bed.allocCores(1), FatalError);
}

TEST(Testbed, DescribeCarriesIoIdentity)
{
    Testbed bed;
    DpdkWorkload &dpdk = addDpdk(bed, "dpdk", true);
    WorkloadDesc d = Testbed::describe(dpdk, QosPriority::High);
    EXPECT_EQ(d.id, dpdk.id());
    EXPECT_TRUE(d.is_io);
    EXPECT_EQ(d.io_class, DeviceClass::Network);
    EXPECT_EQ(d.port, dpdk.ioPort());
    EXPECT_EQ(d.cores.size(), 4u);
}

TEST(Scaling, ByteAndBandwidthHelpers)
{
    EXPECT_EQ(scaleBytes(4 * kMiB, 4), kMiB);
    EXPECT_EQ(scaleBytes(64, 1000), kLineBytes); // floor at one line
    EXPECT_DOUBLE_EQ(unscaleBw(1e9, 4), 4e9);

    CpuStreamConfig base;
    base.ws_bytes = 8 * kMiB;
    base.cpi_base = 0.5;
    CpuStreamConfig scaled = scaledCpuStream(base, 4);
    EXPECT_EQ(scaled.ws_bytes, 2 * kMiB);
    EXPECT_DOUBLE_EQ(scaled.cpi_base, 2.0);
}

// Windows::fromEnv() parsing is covered by tests/harness/test_windows.cc.

TEST(Measurement, WindowScopedMetrics)
{
    ServerConfig cfg;
    cfg.scale = 16;
    Testbed bed(cfg);
    CpuStreamWorkload &w = addXmem(bed, "xmem", 1, 1);

    Windows win;
    win.warmup = 5 * kMsec;
    win.measure = 10 * kMsec;
    Measurement m(bed, {&w}, win);
    m.run();

    // Ops/s over the window only (not the warm-up).
    double ops = m.opsPerSec(w);
    EXPECT_GT(ops, 0.0);
    EXPECT_LT(ops * 0.010, double(w.ops().value()));
    EXPECT_GT(m.ipc(w), 0.0);
    // Latency distributions were reset at the window boundary.
}

TEST(TablePrinter, AlignsAndFormats)
{
    Table t({"name", "value"});
    t.addRow({"alpha", Table::num(1.5)});
    t.addRow({"b", Table::pct(0.123, 1)});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha  1.50"), std::string::npos);
    EXPECT_NE(out.find("12.3%"), std::string::npos);
    EXPECT_THROW(t.addRow({"only-one-cell"}), FatalError);
}

TEST(Scenarios, SchemeNamesAndLetters)
{
    EXPECT_STREQ(schemeName(Scheme::Default), "Default");
    EXPECT_STREQ(schemeName(Scheme::A4d), "A4-d");
    EXPECT_EQ(a4Letter(Scheme::A4b), 'b');
    EXPECT_TRUE(isA4(Scheme::A4a));
    EXPECT_FALSE(isA4(Scheme::Isolate));
    EXPECT_THROW(a4Letter(Scheme::Default), PanicError);
}

TEST(Scenarios, AvgRelativeIsGeometricMean)
{
    // Spec/scenario-view per-workload keys, written directly; the
    // run lists its workloads in another order than the baseline.
    auto record = [](std::initializer_list<std::pair<const char *, double>>
                         wls) {
        Record r;
        r.set("workloads", double(wls.size()));
        std::size_t i = 0;
        for (const auto &[name, perf] : wls) {
            const std::string p = "w" + std::to_string(i++) + ".";
            r.set(p + "name", std::string(name));
            r.set(p + "hpw", 1.0);
            r.set(p + "perf", perf);
        }
        return r;
    };
    const Record base = record({{"w0", 1.0}, {"w1", 1.0}});
    const Record r = record({{"w1", 0.5}, {"w0", 2.0}}); // gmean = 1.0
    EXPECT_NEAR(avgRelativePerf(r, base, true), 1.0, 1e-9);
    EXPECT_NEAR(avgRelativePerf(r, base, std::nullopt), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(avgRelativePerf(r, base, false), 0.0);
    EXPECT_EQ(recordWorkload(r, "w0"), "w1.");
    EXPECT_EQ(recordWorkload(r, "nope"), "");
}
