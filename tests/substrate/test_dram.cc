/**
 * @file
 * Unit tests for the DRAM model: byte accounting, utilisation window,
 * and load-dependent latency.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/dram.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

using namespace a4;

TEST(Dram, CountsBytes)
{
    Dram d;
    d.readLine(0);
    d.readLine(10);
    d.writeLine(20);
    EXPECT_EQ(d.readBytes().value(), 2 * kLineBytes);
    EXPECT_EQ(d.writeBytes().value(), kLineBytes);
}

TEST(Dram, BulkAccounting)
{
    Dram d;
    d.readBulk(0, 1 * kMiB);
    d.writeBulk(0, 2 * kMiB);
    EXPECT_EQ(d.readBytes().value(), 1 * kMiB);
    EXPECT_EQ(d.writeBytes().value(), 2 * kMiB);
}

TEST(Dram, UnloadedLatencyIsBase)
{
    DramConfig cfg;
    cfg.base_latency_ns = 90.0;
    Dram d(cfg);
    EXPECT_NEAR(d.effectiveLatency(0), 90.0, 1.0);
}

TEST(Dram, LatencyGrowsWithUtilization)
{
    DramConfig cfg;
    cfg.base_latency_ns = 90.0;
    cfg.peak_bw_bps = 1e9; // tiny: easy to saturate
    cfg.window_ns = 100 * kUsec;
    Dram d(cfg);

    double idle = d.effectiveLatency(0);
    // Push ~90% of the window's capacity through.
    d.writeBulk(1, 90 * kKiB);
    double loaded = d.effectiveLatency(50 * kUsec);
    EXPECT_GT(loaded, idle * 1.5);
    // Utilisation is clamped at 0.97, which caps the knee.
    EXPECT_LE(loaded, idle / (1.0 - 0.75 * 0.97) + 1e-9);
}

TEST(Dram, UtilizationDecaysAfterIdle)
{
    DramConfig cfg;
    cfg.peak_bw_bps = 1e9;
    cfg.window_ns = 100 * kUsec;
    Dram d(cfg);
    d.writeBulk(1, 80 * kKiB);
    EXPECT_GT(d.utilization(10 * kUsec), 0.5);
    // Two whole windows later the traffic has aged out.
    EXPECT_LT(d.utilization(1 * kMsec), 0.05);
}

TEST(Dram, WritesArePosted)
{
    Dram d;
    EXPECT_DOUBLE_EQ(d.writeLine(0), 0.0);
    EXPECT_GT(d.readLine(0), 0.0);
}

TEST(Dram, RejectsBadConfig)
{
    DramConfig cfg;
    cfg.peak_bw_bps = 0.0;
    EXPECT_THROW(Dram bad(cfg), FatalError);
    DramConfig cfg2;
    cfg2.window_ns = 0;
    EXPECT_THROW(Dram bad2(cfg2), FatalError);
}

namespace
{

/** The latency model as first written: the window capacity recomputed
 *  on every utilisation read and the window rolled again inside it. */
struct FormulaDram
{
    DramConfig cfg;
    Tick window_start = 0;
    std::uint64_t cur = 0;
    std::uint64_t prev = 0;

    void
    roll(Tick now)
    {
        while (now >= window_start + cfg.window_ns) {
            window_start += cfg.window_ns;
            prev = cur;
            cur = 0;
            if (now >= window_start + 2 * cfg.window_ns) {
                window_start = now - (now % cfg.window_ns);
                prev = 0;
            }
        }
    }

    double
    latency(Tick now)
    {
        roll(now);
        double elapsed = static_cast<double>(now - window_start);
        double span = static_cast<double>(cfg.window_ns);
        double frac = std::clamp(elapsed / span, 0.0, 1.0);
        double bytes = static_cast<double>(prev) * (1.0 - frac) +
                       static_cast<double>(cur);
        double window_capacity = cfg.peak_bw_bps * (span / 1e9);
        double u = std::min(bytes / window_capacity, 0.97);
        double factor = 1.0 / (1.0 - 0.75 * u);
        return cfg.base_latency_ns * std::min(factor, 8.0);
    }

    double
    readLine(Tick now)
    {
        roll(now);
        cur += kLineBytes;
        return latency(now);
    }

    void
    writeBytes(Tick now, std::uint64_t bytes)
    {
        roll(now);
        cur += bytes;
    }
};

} // namespace

TEST(Dram, LatencyMatchesTheFormulaBitForBit)
{
    // Reads, writes and bulk transfers at gaps inside a window, across
    // one and several window rolls, across idle gaps that fast-forward
    // the window, and exactly on window edges; every returned latency
    // must equal the formula's to the bit.
    DramConfig cfg;
    cfg.peak_bw_bps = 3.3e9; // about 100 lines fill a window
    cfg.window_ns = 2 * kUsec;
    Dram d(cfg);
    FormulaDram f{cfg};
    Rng rng(7);
    Tick now = 0;
    unsigned loaded = 0;
    for (int i = 0; i < 20000; ++i) {
        switch (rng.below(256)) {
          case 0:
            now += cfg.window_ns; // exactly one window on
            break;
          case 1:
            now += rng.below(5 * cfg.window_ns); // may skip windows
            break;
          default:
            now += rng.below(40);
            break;
        }
        switch (rng.below(4)) {
          case 0:
            d.writeLine(now);
            f.writeBytes(now, kLineBytes);
            break;
          case 1: {
            const std::uint64_t bytes = rng.below(8) * kLineBytes;
            d.readBulk(now, bytes);
            f.writeBytes(now, bytes);
            break;
          }
          default: {
            const double got = d.readLine(now);
            const double want = f.readLine(now);
            ASSERT_EQ(got, want) << "op " << i << " at tick " << now;
            loaded += got > 3 * cfg.base_latency_ns;
            break;
          }
        }
        ASSERT_EQ(d.effectiveLatency(now), f.latency(now)) << "op " << i;
    }
    EXPECT_GT(loaded, 1000u); // near the 0.97 utilisation cap too
}
