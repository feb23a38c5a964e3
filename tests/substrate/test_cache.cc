/**
 * @file
 * Unit tests for the cache hierarchy — one test per placement rule in
 * DESIGN.md §3, plus the counters they feed. These rules are what the
 * paper's contentions (latent, DMA bloat, DMA leak, directory) emerge
 * from, so each is validated in isolation here.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "rdt/cat.hh"
#include "sim/addrmap.hh"

using namespace a4;

namespace
{

/** Small geometry so working sets overflow quickly in tests. */
CacheGeometry
tinyGeom()
{
    CacheGeometry g;
    g.num_cores = 4;
    g.llc_ways = 11;
    g.llc_sets = 64;
    g.mlc_ways = 4;
    g.mlc_sets = 16;
    return g;
}

struct Rig
{
    Rig() : cat(11, 4), cache(tinyGeom(), CacheLatencies{}, dram, cat) {}

    Dram dram;
    CatController cat;
    CacheSystem cache;
    Tick t = 0;

    static constexpr WorkloadId kWl = 1;
    static constexpr WorkloadId kIoWl = 2;
    static constexpr std::array<CoreId, 1> kCore0 = {0};
};

} // namespace

TEST(CacheRules, Rule1_MissFillsMlcOnly)
{
    Rig r;
    auto res = r.cache.coreRead(0, 0, 0x10000, Rig::kWl);
    EXPECT_EQ(res.level, HitLevel::Memory);
    EXPECT_TRUE(r.cache.inMlc(0, 0x10000));
    EXPECT_FALSE(r.cache.probeLlc(0x10000).in_llc);
    EXPECT_EQ(r.cache.wl(Rig::kWl).llc_miss.value(), 1u);
    EXPECT_EQ(r.cache.wl(Rig::kWl).mem_read_lines.value(), 1u);
}

TEST(CacheRules, MlcHitCostsMlcLatency)
{
    Rig r;
    r.cache.coreRead(0, 0, 0x10000, Rig::kWl);
    auto res = r.cache.coreRead(0, 0, 0x10000, Rig::kWl);
    EXPECT_EQ(res.level, HitLevel::MlcHit);
    EXPECT_DOUBLE_EQ(res.latency_ns, CacheLatencies{}.mlc_hit_ns);
    EXPECT_EQ(r.cache.wl(Rig::kWl).mlc_hit.value(), 1u);
}

TEST(CacheRules, Rule2_MlcEvictionAllocatesInClosMask)
{
    Rig r;
    // Confine core 0 to ways [5:6].
    r.cat.setClosMask(1, CatController::makeMask(5, 6));
    r.cat.assignCore(0, 1);

    // Stream enough lines through one MLC set to force evictions.
    // With 4 MLC ways, the 5th conflicting line evicts the first.
    const auto &g = r.cache.geometry();
    unsigned evictions = 0;
    for (std::uint64_t i = 0; i < 4096 && evictions < 32; ++i) {
        Addr a = 0x100000 + i * kLineBytes;
        r.cache.coreRead(0, 0, a, Rig::kWl);
        (void)g;
    }
    auto occ = r.cache.llcWayOccupancyOf(Rig::kWl);
    std::uint64_t inside = occ[5] + occ[6];
    std::uint64_t outside = 0;
    for (unsigned w = 0; w < occ.size(); ++w) {
        if (w != 5 && w != 6)
            outside += occ[w];
    }
    EXPECT_GT(inside, 0u);
    EXPECT_EQ(outside, 0u);
}

TEST(CacheRules, Rule4a_NonIoLlcHitMovesLineExclusively)
{
    Rig r;
    Addr a = 0x20000;
    r.cache.coreRead(0, 0, a, Rig::kWl);
    // Force it out of the MLC into the LLC (stop as soon as evicted,
    // before the stream can push it out of the LLC too).
    for (std::uint64_t i = 1; i <= 4096 && r.cache.inMlc(0, a); ++i)
        r.cache.coreRead(0, 0, a + i * kLineBytes, Rig::kWl);
    ASSERT_FALSE(r.cache.inMlc(0, a));
    ASSERT_TRUE(r.cache.probeLlc(a).in_llc);

    // Re-access: LLC hit, line moves to MLC, LLC copy dropped.
    auto res = r.cache.coreRead(0, 0, a, Rig::kWl);
    EXPECT_EQ(res.level, HitLevel::LlcHit);
    EXPECT_TRUE(r.cache.inMlc(0, a));
    EXPECT_FALSE(r.cache.probeLlc(a).in_llc);
}

TEST(CacheRules, Rule5_DmaWriteAllocatesOnlyDcaWays)
{
    Rig r;
    for (std::uint64_t i = 0; i < 512; ++i) {
        r.cache.dmaWriteLine(0, 0x400000 + i * kLineBytes, Rig::kIoWl,
                             Rig::kCore0, true);
    }
    auto occ = r.cache.llcWayOccupancyOf(Rig::kIoWl);
    EXPECT_GT(occ[0] + occ[1], 0u);
    for (unsigned w = 2; w < occ.size(); ++w)
        EXPECT_EQ(occ[w], 0u) << "way " << w;
    EXPECT_GT(r.cache.wl(Rig::kIoWl).dma_write_alloc.value(), 0u);
}

TEST(CacheRules, Rule5_DmaWriteUpdatesInPlace)
{
    Rig r;
    Addr a = 0x500000;
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
    auto p1 = r.cache.probeLlc(a);
    ASSERT_TRUE(p1.in_llc);

    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
    auto p2 = r.cache.probeLlc(a);
    EXPECT_TRUE(p2.in_llc);
    EXPECT_EQ(p2.way, p1.way);
    EXPECT_EQ(r.cache.wl(Rig::kIoWl).dma_write_update.value(), 1u);
    EXPECT_EQ(r.cache.wl(Rig::kIoWl).dma_write_alloc.value(), 1u);
}

TEST(CacheRules, Rule4_IoConsumptionMigratesToInclusiveWays)
{
    Rig r;
    Addr a = 0x600000;
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
    auto before = r.cache.probeLlc(a);
    ASSERT_TRUE(before.in_llc);
    ASSERT_LT(before.way, 2u); // DCA way
    ASSERT_FALSE(before.consumed);

    // Core 0 consumes the packet line.
    auto res = r.cache.coreRead(0, 0, a, Rig::kIoWl);
    EXPECT_EQ(res.level, HitLevel::LlcHit);

    auto after = r.cache.probeLlc(a);
    ASSERT_TRUE(after.in_llc);
    EXPECT_GE(after.way, r.cache.geometry().firstInclusiveWay());
    EXPECT_TRUE(after.consumed);
    EXPECT_TRUE(after.in_mlc_flag);
    EXPECT_TRUE(r.cache.inMlc(0, a));
    EXPECT_EQ(r.cache.wl(Rig::kIoWl).migrated_inclusive.value(), 1u);
}

TEST(CacheRules, Rule4_MigrationEvictsInclusiveResidents)
{
    Rig r;
    // Fill the inclusive ways of one set with victim-cache lines from
    // a non-I/O workload pinned to ways [9:10].
    r.cat.setClosMask(1, CatController::makeMask(9, 10));
    r.cat.assignCore(1, 1);
    for (std::uint64_t i = 0; i < 8192; ++i)
        r.cache.coreRead(0, 1, 0x800000 + i * kLineBytes, Rig::kWl);
    auto occ = r.cache.llcWayOccupancyOf(Rig::kWl);
    ASSERT_GT(occ[9] + occ[10], 0u);

    std::uint64_t evicted_before =
        r.cache.wl(Rig::kWl).evicted_by_migration.value();

    // I/O lines DMA-written then consumed: migration evicts the
    // non-I/O residents (directory contention).
    for (std::uint64_t i = 0; i < 4096; ++i) {
        Addr a = 0xA00000 + i * kLineBytes;
        r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
        r.cache.coreRead(0, 0, a, Rig::kIoWl);
    }
    EXPECT_GT(r.cache.wl(Rig::kWl).evicted_by_migration.value(),
              evicted_before);
}

TEST(CacheRules, Rule6_UnconsumedEvictionCountsAsLeak)
{
    Rig r;
    // Write far more I/O lines than the DCA ways can hold, without
    // any consumption: older lines must leak.
    const auto &g = r.cache.geometry();
    std::uint64_t dca_lines = std::uint64_t(g.llc_sets) * g.dca_ways;
    for (std::uint64_t i = 0; i < dca_lines * 3; ++i) {
        r.cache.dmaWriteLine(0, 0xC00000 + i * kLineBytes, Rig::kIoWl,
                             Rig::kCore0, true);
    }
    EXPECT_GT(r.cache.wl(Rig::kIoWl).dma_leaked.value(),
              dca_lines * 3 / 2);
}

TEST(CacheRules, Rule7_ConsumedIoEvictedFromMlcBloatsLlc)
{
    Rig r;
    // Confine core 0 to ways [5:6] so bloat is visible there.
    r.cat.setClosMask(1, CatController::makeMask(5, 6));
    r.cat.assignCore(0, 1);

    // One consumed I/O line, then flush it out of the MLC with
    // non-I/O traffic.
    Addr a = 0xE00000;
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
    r.cache.coreRead(0, 0, a, Rig::kIoWl); // consume (migrates)
    ASSERT_TRUE(r.cache.inMlc(0, a));

    // The LLC inclusive copy may get evicted by other traffic; force
    // the MLC eviction and check the bloat counter advances.
    std::uint64_t bloat_before =
        r.cache.wl(Rig::kIoWl).bloat_inserts.value();
    for (std::uint64_t i = 1; i <= 8192 && r.cache.inMlc(0, a); ++i)
        r.cache.coreRead(0, 0, a + i * kLineBytes, Rig::kWl);
    ASSERT_FALSE(r.cache.inMlc(0, a));

    auto p = r.cache.probeLlc(a);
    // Either it stayed in the inclusive way (copy downgraded) or it
    // was re-allocated through the victim path (bloat).
    if (r.cache.wl(Rig::kIoWl).bloat_inserts.value() > bloat_before) {
        ASSERT_TRUE(p.in_llc);
        EXPECT_TRUE(p.way == 5 || p.way == 6);
        EXPECT_TRUE(p.io);
    } else {
        EXPECT_TRUE(p.in_llc);
        EXPECT_GE(p.way, 9u);
    }
}

TEST(CacheRules, Rule8_NonAllocatingDmaGoesToMemory)
{
    Rig r;
    Addr a = 0x1200000;
    std::uint64_t wr_before = r.dram.writeBytes().value();
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, false);
    EXPECT_FALSE(r.cache.probeLlc(a).in_llc);
    EXPECT_EQ(r.dram.writeBytes().value(), wr_before + kLineBytes);
    EXPECT_EQ(r.cache.wl(Rig::kIoWl).dma_nonalloc.value(), 1u);
}

TEST(CacheRules, Rule8_NonAllocatingDmaInvalidatesStaleCopies)
{
    Rig r;
    Addr a = 0x1300000;
    // Cached via the allocating path first.
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
    ASSERT_TRUE(r.cache.probeLlc(a).in_llc);
    // DDIO gets disabled; the next write must invalidate the copy.
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, false);
    EXPECT_FALSE(r.cache.probeLlc(a).in_llc);

    // Same for an MLC-resident copy (post-consumption).
    Addr b = 0x1400000;
    r.cache.dmaWriteLine(0, b, Rig::kIoWl, Rig::kCore0, true);
    r.cache.coreRead(0, 0, b, Rig::kIoWl);
    ASSERT_TRUE(r.cache.inMlc(0, b));
    r.cache.dmaWriteLine(0, b, Rig::kIoWl, Rig::kCore0, false);
    EXPECT_FALSE(r.cache.inMlc(0, b));
}

TEST(CacheRules, Rule9_EgressServedFromLlcOrInclusiveAlloc)
{
    Rig r;
    // Case 1: line in LLC -> served, no memory read.
    Addr a = 0x1500000;
    r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
    std::uint64_t rd_before = r.dram.readBytes().value();
    EXPECT_TRUE(r.cache.dmaReadLine(0, a, Rig::kIoWl, Rig::kCore0));
    EXPECT_EQ(r.dram.readBytes().value(), rd_before);

    // Case 2: MLC-only line -> read-allocated into inclusive ways.
    Addr b = 0x1600000;
    r.cache.coreWrite(0, 0, b, Rig::kWl); // miss -> MLC only, dirty
    ASSERT_FALSE(r.cache.probeLlc(b).in_llc);
    EXPECT_TRUE(r.cache.dmaReadLine(0, b, Rig::kWl, Rig::kCore0));
    auto p = r.cache.probeLlc(b);
    ASSERT_TRUE(p.in_llc);
    EXPECT_GE(p.way, r.cache.geometry().firstInclusiveWay());
    EXPECT_EQ(r.cache.global().egress_inclusive_alloc.value(), 1u);

    // Case 3: uncached -> memory read, no allocation.
    Addr c = 0x1700000;
    rd_before = r.dram.readBytes().value();
    EXPECT_FALSE(r.cache.dmaReadLine(0, c, Rig::kWl, Rig::kCore0));
    EXPECT_EQ(r.dram.readBytes().value(), rd_before + kLineBytes);
    EXPECT_FALSE(r.cache.probeLlc(c).in_llc);

    // Case 4: the inclusive copy registers the core whose MLC held the
    // line, so a later DMA write invalidates that core's copy.
    Addr d = 0x1780000;
    const std::array<CoreId, 2> cores = {0, 2};
    r.cache.coreRead(0, 2, d, Rig::kWl);
    EXPECT_TRUE(r.cache.dmaReadLine(0, d, Rig::kWl, cores));
    EXPECT_TRUE(r.cache.probeLlc(d).in_mlc_flag);
    EXPECT_EQ(r.cache.auditInvariants(), 0u);
    r.cache.dmaWriteLine(0, d, Rig::kIoWl, Rig::kCore0, true);
    EXPECT_FALSE(r.cache.inMlc(2, d));
}

TEST(CacheRules, Rule10_MaskChangeAffectsOnlyNewAllocations)
{
    Rig r;
    r.cat.setClosMask(1, CatController::makeMask(3, 4));
    r.cat.assignCore(0, 1);
    for (std::uint64_t i = 0; i < 2048; ++i)
        r.cache.coreRead(0, 0, 0x1800000 + i * kLineBytes, Rig::kWl);
    auto occ1 = r.cache.llcWayOccupancyOf(Rig::kWl);
    std::uint64_t in34 = occ1[3] + occ1[4];
    ASSERT_GT(in34, 0u);

    // Narrow the mask: resident lines must stay where they are.
    r.cat.setClosMask(1, CatController::makeMask(7, 7));
    auto occ2 = r.cache.llcWayOccupancyOf(Rig::kWl);
    EXPECT_EQ(occ2[3] + occ2[4], in34);
}

TEST(CacheRules, DirtyEvictionsWriteBack)
{
    Rig r;
    std::uint64_t wb_before = r.cache.global().llc_writebacks.value();
    // Dirty lines: write stream larger than MLC+allocated LLC ways.
    r.cat.setClosMask(1, CatController::makeMask(2, 2));
    r.cat.assignCore(0, 1);
    for (std::uint64_t i = 0; i < 16384; ++i)
        r.cache.coreWrite(0, 0, 0x2000000 + i * kLineBytes, Rig::kWl);
    EXPECT_GT(r.cache.global().llc_writebacks.value(), wb_before);
    EXPECT_GT(r.cache.wl(Rig::kWl).mem_write_lines.value(), 0u);
}

TEST(CacheRules, InvariantsHoldAfterMixedTraffic)
{
    Rig r;
    Rng rng(3);
    for (unsigned i = 0; i < 20000; ++i) {
        Addr a = 0x4000000 + rng.below(4096) * kLineBytes;
        switch (rng.below(5)) {
          case 0:
            r.cache.coreRead(0, rng.below(4), a, Rig::kWl);
            break;
          case 1:
            r.cache.coreWrite(0, rng.below(4), a, Rig::kWl);
            break;
          case 2:
            r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, true);
            break;
          case 3:
            r.cache.dmaWriteLine(0, a, Rig::kIoWl, Rig::kCore0, false);
            break;
          case 4:
            r.cache.dmaReadLine(0, a, Rig::kIoWl, Rig::kCore0);
            break;
        }
    }
    EXPECT_EQ(r.cache.auditInvariants(), 0u);
}

TEST(CacheBounds, CoreCountMustFitTheMlcCoreField)
{
    Dram dram;
    CacheGeometry g = tinyGeom();
    g.num_cores = CacheSystem::kMaxCores + 1;
    CatController wide(11, g.num_cores);
    try {
        CacheSystem too_many(g, CacheLatencies{}, dram, wide);
        ADD_FAILURE() << "1025 cores were accepted";
    } catch (const FatalError &e) {
        // The message names the requested count and the limit.
        const std::string what = e.what();
        EXPECT_NE(what.find("1025 cores"), std::string::npos) << what;
        EXPECT_NE(what.find("1024 cores"), std::string::npos) << what;
    }

    g.num_cores = CacheSystem::kMaxCores;
    CatController most(11, g.num_cores);
    CacheSystem cache(g, CacheLatencies{}, dram, most);
    const CoreId last = CoreId(g.num_cores - 1);
    cache.coreRead(0, last, 0x10000, Rig::kWl);
    EXPECT_TRUE(cache.inMlc(last, 0x10000));
    EXPECT_EQ(cache.auditInvariants(), 0u);
}

TEST(CacheSetBlocks, ConstructionTouchesNoBlock)
{
    // 1,024 cores at the default MLC geometry: 1,024 x 1,024 MLC
    // blocks of 128 B (128 MiB) plus 4.5 MiB of LLC blocks. They start
    // zero-filled without being written, so building the cache, one
    // access and its teardown must leave the peak RSS within 8 MiB.
    auto peak_kib = [] {
        rusage u{};
        getrusage(RUSAGE_SELF, &u);
        return u.ru_maxrss;
    };
    CacheGeometry g;
    g.num_cores = CacheSystem::kMaxCores;
    Dram dram;
    CatController cat(g.llc_ways, g.num_cores);
    const long before = peak_kib();
    {
        CacheSystem cache(g, CacheLatencies{}, dram, cat);
        const CoreId last = CoreId(g.num_cores - 1);
        cache.coreRead(0, last, 0x10000, Rig::kWl);
        EXPECT_TRUE(cache.inMlc(last, 0x10000));
    }
    EXPECT_LT(peak_kib() - before, 8 * 1024)
        << "peak RSS grew by " << peak_kib() - before << " KiB";
}

TEST(CacheBounds, AddressMapStopsAtTheLineField)
{
    AddressMap a;
    const Addr base = a.alloc(4096, "first");
    EXPECT_THROW(a.alloc(kAddrSpaceBytes, "too big"), FatalError);
    // Exactly up to the end of the space is fine; one byte more is not.
    const Addr rest = kAddrSpaceBytes - (base + 4096);
    EXPECT_EQ(a.alloc(rest, "rest"), base + 4096);
    EXPECT_THROW(a.alloc(1, "past"), FatalError);
}

TEST(CacheBounds, TopLineOfTheSpaceIsDistinct)
{
    Rig r;
    const Addr top = kAddrSpaceBytes - kLineBytes;
    r.cache.dmaWriteLine(0, top, Rig::kIoWl, Rig::kCore0, true);
    EXPECT_TRUE(r.cache.probeLlc(top).in_llc);
    EXPECT_EQ(r.cache.probeLlc(top).owner, Rig::kIoWl);
    EXPECT_FALSE(r.cache.probeLlc(top - kLineBytes).in_llc);
    EXPECT_EQ(r.cache.coreRead(1, 0, top, Rig::kWl).level, HitLevel::LlcHit);
    EXPECT_TRUE(r.cache.inMlc(0, top));
    EXPECT_EQ(r.cache.auditInvariants(), 0u);
}

TEST(CacheBounds, LowestAllocatedAndTopLinesAreDistinct)
{
    // Tag 0 marks an invalid way, so line 0 is reserved; AddressMap's
    // first region starts well above it.
    AddressMap a;
    const Addr low = a.alloc(4096, "first");
    ASSERT_NE(lineOf(low), 0u);
    const Addr top = kAddrSpaceBytes - kLineBytes;
    Rig r;
    r.cache.dmaWriteLine(0, low, Rig::kIoWl, Rig::kCore0, true);
    r.cache.dmaWriteLine(0, top, Rig::kWl, Rig::kCore0, true);
    EXPECT_EQ(r.cache.probeLlc(low).owner, Rig::kIoWl);
    EXPECT_EQ(r.cache.probeLlc(top).owner, Rig::kWl);
    EXPECT_FALSE(r.cache.probeLlc(0).in_llc);
    EXPECT_EQ(r.cache.coreRead(1, 0, low, Rig::kWl).level, HitLevel::LlcHit);
    EXPECT_EQ(r.cache.coreRead(2, 1, top, Rig::kWl).level, HitLevel::LlcHit);
    EXPECT_TRUE(r.cache.inMlc(0, low));
    EXPECT_FALSE(r.cache.inMlc(0, top));
    EXPECT_TRUE(r.cache.inMlc(1, top));
    EXPECT_FALSE(r.cache.inMlc(0, 0));
    EXPECT_EQ(r.cache.auditInvariants(), 0u);
}

namespace
{

/** Every per-workload (ids 0..kIoWl) and global counter, in a fixed
 *  order. */
std::vector<std::uint64_t>
counterValues(const CacheSystem &c)
{
    std::vector<std::uint64_t> v;
    for (WorkloadId id = 0; id <= Rig::kIoWl; ++id) {
        const WorkloadCounters &w = c.wlConst(id);
        for (const SnapshotCounter *k :
             {&w.mlc_hit, &w.mlc_miss, &w.llc_hit, &w.llc_miss,
              &w.dma_lines_written, &w.dma_write_update,
              &w.dma_write_alloc, &w.dma_nonalloc, &w.dma_leaked,
              &w.migrated_inclusive, &w.bloat_inserts,
              &w.evicted_by_migration, &w.mem_read_lines,
              &w.mem_write_lines})
            v.push_back(k->value());
    }
    const GlobalCacheCounters &g = c.global();
    for (const SnapshotCounter *k :
         {&g.llc_lookups, &g.llc_evictions, &g.llc_writebacks,
          &g.dca_evictions, &g.inclusive_evictions,
          &g.egress_inclusive_alloc})
        v.push_back(k->value());
    return v;
}

/** A line range [base, base + lines * kLineBytes). */
struct LineRange
{
    Addr base;
    std::uint64_t lines;
};

/**
 * Expect @p a and @p b to hold the same lines: the LLC probe of every
 * line in @p ranges, MLC presence on every core, every counter, and
 * a clean invariant audit on both.
 */
void
expectSameCaches(const CacheSystem &a, const CacheSystem &b,
                 std::initializer_list<LineRange> ranges)
{
    for (const LineRange &r : ranges) {
        for (std::uint64_t i = 0; i < r.lines; ++i) {
            const Addr addr = r.base + i * kLineBytes;
            const CacheSystem::Probe pa = a.probeLlc(addr);
            const CacheSystem::Probe pb = b.probeLlc(addr);
            EXPECT_EQ(pa.in_llc, pb.in_llc) << std::hex << addr;
            EXPECT_EQ(pa.way, pb.way) << std::hex << addr;
            EXPECT_EQ(pa.dirty, pb.dirty) << std::hex << addr;
            EXPECT_EQ(pa.io, pb.io) << std::hex << addr;
            EXPECT_EQ(pa.consumed, pb.consumed) << std::hex << addr;
            EXPECT_EQ(pa.in_mlc_flag, pb.in_mlc_flag) << std::hex << addr;
            EXPECT_EQ(pa.owner, pb.owner) << std::hex << addr;
            for (CoreId c = 0; c < a.geometry().num_cores; ++c) {
                EXPECT_EQ(a.inMlc(c, addr), b.inMlc(c, addr))
                    << std::hex << addr << " core " << c;
            }
        }
    }
    EXPECT_EQ(counterValues(a), counterValues(b));
    EXPECT_EQ(a.auditInvariants(), 0u);
    EXPECT_EQ(b.auditInvariants(), 0u);
}

void
expectSameResults(const std::vector<AccessResult> &got,
                  const std::vector<AccessResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].level, want[i].level) << "line " << i;
        EXPECT_EQ(got[i].latency_ns, want[i].latency_ns) << "line " << i;
    }
}

/** Drives a cache through the run entry points, or (@p by_line)
 *  through the single-line calls each run stands for. */
struct RunDriver
{
    CacheSystem &cache;
    bool by_line;
    std::vector<AccessResult> &out;

    void
    core(Tick now, CoreId core, Addr addr, std::uint64_t lines,
         bool is_write)
    {
        if (!by_line) {
            cache.coreRun(now, core, addr, lines, Rig::kWl, is_write,
                          [this](const AccessResult &r) {
                              out.push_back(r);
                          });
            return;
        }
        for (std::uint64_t i = 0; i < lines; ++i) {
            const Addr a = addr + i * kLineBytes;
            out.push_back(is_write ? cache.coreWrite(now, core, a, Rig::kWl)
                                   : cache.coreRead(now, core, a, Rig::kWl));
        }
    }

    void
    dmaWrite(Tick now, Addr addr, std::uint64_t lines,
             std::span<const CoreId> consumers, bool allocating)
    {
        if (!by_line) {
            cache.dmaWriteRun(now, addr, lines, Rig::kIoWl, consumers,
                              allocating);
            return;
        }
        for (std::uint64_t i = 0; i < lines; ++i)
            cache.dmaWriteLine(now, addr + i * kLineBytes, Rig::kIoWl,
                               consumers, allocating);
    }

    std::uint64_t
    dmaRead(Tick now, Addr addr, std::uint64_t lines,
            std::span<const CoreId> cores)
    {
        if (!by_line)
            return cache.dmaReadRun(now, addr, lines, Rig::kIoWl, cores);
        std::uint64_t served = 0;
        for (std::uint64_t i = 0; i < lines; ++i)
            served += cache.dmaReadLine(now, addr + i * kLineBytes,
                                        Rig::kIoWl, cores);
        return served;
    }
};

} // namespace

TEST(CacheRuns, RunsMatchLineByLine)
{
    // The run entry points must leave exactly the state, counters and
    // per-line results of the equivalent single-line calls.
    Rig runs, lines;
    constexpr std::uint64_t kLines = 37; // not a multiple of the lookahead
    const Addr io = 0x200020;            // unaligned start
    const Addr data = 0x400000;
    // Runs shorter than the look-ahead (0, 1 and 3 lines), with DMA
    // over two cores' MLCs. Each short run's lines start in core 1's
    // MLC only: the DMA read allocates them from there, the allocating
    // write invalidates core 1's copy, the non-allocating one drops
    // the LLC copy, and the last write misses the LLC and invalidates
    // core 0's copy through the second consumer.
    const Addr shorts = 0x600000;
    constexpr std::array<CoreId, 2> kCores10 = {1, 0};
    std::vector<AccessResult> got, want;
    std::uint64_t served[2] = {}, served_short[2] = {};
    for (bool by_line : {false, true}) {
        RunDriver d{by_line ? lines.cache : runs.cache, by_line,
                    by_line ? want : got};
        d.dmaWrite(0, io, kLines, Rig::kCore0, true);
        d.core(1, 0, io, kLines, false);
        d.core(2, 1, data, kLines, true);
        served[by_line] = d.dmaRead(3, io, 2 * kLines, Rig::kCore0);
        d.dmaWrite(4, data, kLines, Rig::kCore0, false);
        d.core(5, 0, io, kLines, false);

        Addr a = shorts + 0x10; // unaligned
        for (std::uint64_t n : {0u, 1u, 3u}) {
            d.core(5, 1, a, n, false);
            served_short[by_line] += d.dmaRead(5, a, n, kCores10);
            d.dmaWrite(5, a, n, kCores10, true);
            d.core(5, 1, a, n, true);
            d.dmaWrite(5, a, n, kCores10, false);
            d.core(5, 0, a, n, false);
            d.dmaWrite(5, a, n, kCores10, true);
            a += (n + 1) * kLineBytes;
        }
    }
    EXPECT_EQ(served[0], served[1]);
    EXPECT_GT(served[1], 0u);
    EXPECT_EQ(served_short[0], served_short[1]);
    EXPECT_EQ(served_short[1], 4u);

    expectSameResults(got, want);
    const LineRange io_lines{io, 2 * kLines};
    const LineRange data_lines{data, kLines};
    const LineRange short_lines{shorts, 8};
    expectSameCaches(runs.cache, lines.cache,
                     {io_lines, data_lines, short_lines});

    // Replacement state by behaviour: identical eviction-forcing
    // passes over conflicting ranges pick their MLC and LLC victims
    // from each rig's ranks. The passes fill the sets a few lines at
    // a time, so a rank difference shows up in which lines survive
    // before later passes evict both rigs' old lines alike.
    constexpr std::uint64_t kRounds = 12;
    constexpr std::uint64_t kCoreStep = 8;
    constexpr std::uint64_t kIoStep = 16;
    const LineRange force_core0{0x800000, kRounds * kCoreStep};
    const LineRange force_core1{0xA00000, kRounds * kCoreStep};
    const LineRange force_io{0xC00000, kRounds * kIoStep};
    for (std::uint64_t k = 0; k < kRounds; ++k) {
        std::vector<AccessResult> got_force, want_force;
        for (auto [rig, out] : {std::pair{&runs, &got_force},
                                std::pair{&lines, &want_force}}) {
            const Tick now = 6 + k;
            // Consuming freshly DMA-written lines migrates them into
            // the inclusive ways, which forces victims there; the
            // core runs force MLC victims (and their LLC inserts).
            const Addr io_step = force_io.base + k * kIoStep * kLineBytes;
            RunDriver d{rig->cache, false, *out};
            d.dmaWrite(now, io_step, kIoStep, Rig::kCore0, true);
            d.core(now, 2, io_step, kIoStep, false);
            d.core(now, 0, force_core0.base + k * kCoreStep * kLineBytes,
                   kCoreStep, true);
            d.core(now, 1, force_core1.base + k * kCoreStep * kLineBytes,
                   kCoreStep, false);
        }
        expectSameResults(got_force, want_force);
        expectSameCaches(runs.cache, lines.cache,
                         {io_lines, data_lines, short_lines, force_core0,
                          force_core1, force_io});
        ASSERT_FALSE(HasFailure()) << "after forcing round " << k;
    }
}
