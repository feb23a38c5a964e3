/**
 * @file
 * Property-based tests over the cache hierarchy: randomised operation
 * streams across a sweep of geometries and traffic mixes, checking
 * invariants that must hold for every interleaving:
 *
 *  P1. Structural audit is clean (unique tags per set, inclusive
 *      lines only in inclusive ways, registered MLC copies exist).
 *  P2. A workload confined by a CAT mask never owns victim-cache
 *      lines outside its mask plus the inclusive ways (migration and
 *      egress are the only CLOS-independent placements).
 *  P3. Leaked lines never exceed DMA-written lines.
 *  P4. probeLlc/inMlc agree with the occupancy census.
 *  P5. Identical seeds produce identical end states (determinism).
 */

#include <gtest/gtest.h>


#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "oracle/op_stream.hh"
#include "rdt/cat.hh"

using namespace a4;

namespace
{

struct PropertyCase
{
    unsigned llc_sets;
    unsigned mlc_ways;
    unsigned mask_lo;
    unsigned mask_hi;
    std::uint64_t seed;
};

class CacheProperty : public ::testing::TestWithParam<PropertyCase>
{
  protected:
    void
    SetUp() override
    {
        const PropertyCase &pc = GetParam();
        geom.num_cores = 4;
        geom.llc_ways = 11;
        geom.llc_sets = pc.llc_sets;
        geom.mlc_ways = pc.mlc_ways;
        geom.mlc_sets = 16;
        cat = std::make_unique<CatController>(11, 4);
        cache = std::make_unique<CacheSystem>(geom, CacheLatencies{},
                                              dram, *cat);
        cat->setClosMask(1,
                         CatController::makeMask(pc.mask_lo, pc.mask_hi));
        cat->assignCore(0, 1); // workload 1 confined
    }

    /** Drive the seeded mixed traffic stream (oracle/op_stream.hh). */
    void
    drive(std::uint64_t seed, unsigned ops)
    {
        test::CacheOpStream stream(seed, geom.num_cores, 8192, false);
        for (unsigned i = 0; i < ops; ++i)
            test::applyOp(stream.next(), *cache, *cat);
    }

    CacheGeometry geom;
    Dram dram;
    std::unique_ptr<CatController> cat;
    std::unique_ptr<CacheSystem> cache;
};

} // namespace

TEST_P(CacheProperty, P1_StructuralInvariantsHold)
{
    drive(GetParam().seed, 30000);
    EXPECT_EQ(cache->auditInvariants(), 0u);
}

TEST_P(CacheProperty, P2_MaskedWorkloadStaysInMaskPlusInclusive)
{
    const PropertyCase &pc = GetParam();
    drive(pc.seed, 30000);
    auto occ = cache->llcWayOccupancyOf(1);
    for (unsigned w = 0; w < geom.llc_ways; ++w) {
        bool in_mask = w >= pc.mask_lo && w <= pc.mask_hi;
        bool inclusive = w >= geom.firstInclusiveWay();
        if (!in_mask && !inclusive) {
            EXPECT_EQ(occ[w], 0u) << "way " << w;
        }
    }
}

TEST_P(CacheProperty, P3_LeaksBoundedByWrites)
{
    drive(GetParam().seed, 30000);
    const WorkloadCounters &c = cache->wlConst(3);
    EXPECT_LE(c.dma_leaked.value(), c.dma_lines_written.value());
    EXPECT_EQ(c.dma_lines_written.value(),
              c.dma_write_alloc.value() + c.dma_write_update.value());
}

TEST_P(CacheProperty, P4_ProbeAgreesWithCensus)
{
    drive(GetParam().seed, 20000);
    std::uint64_t census_total = 0;
    for (std::uint64_t n : cache->llcWayOccupancy())
        census_total += n;

    std::uint64_t probe_total = 0;
    for (Addr region : {Addr(0x1000000), Addr(0x4000000),
                        Addr(0x8000000)}) {
        for (std::uint64_t l = 0; l < 8192; ++l) {
            if (cache->probeLlc(region + l * kLineBytes).in_llc)
                ++probe_total;
        }
    }
    EXPECT_EQ(probe_total, census_total);
}

TEST_P(CacheProperty, P5_Deterministic)
{
    drive(GetParam().seed, 15000);
    auto occ1 = cache->llcWayOccupancy();
    std::uint64_t leaks1 = cache->wlConst(3).dma_leaked.value();

    SetUp(); // fresh hierarchy
    drive(GetParam().seed, 15000);
    EXPECT_EQ(cache->llcWayOccupancy(), occ1);
    EXPECT_EQ(cache->wlConst(3).dma_leaked.value(), leaks1);
}

INSTANTIATE_TEST_SUITE_P(
    GeometryAndMaskSweep, CacheProperty,
    ::testing::Values(
        PropertyCase{64, 4, 2, 3, 1},
        PropertyCase{64, 4, 0, 1, 2},   // overlapping the DCA ways
        PropertyCase{64, 4, 9, 10, 3},  // on the inclusive ways
        PropertyCase{64, 4, 0, 10, 4},  // full mask
        PropertyCase{128, 8, 5, 6, 5},
        PropertyCase{128, 8, 2, 8, 6},
        PropertyCase{32, 2, 4, 4, 7},   // single way
        PropertyCase{256, 16, 3, 7, 8}),
    [](const ::testing::TestParamInfo<PropertyCase> &info) {
        const PropertyCase &p = info.param;
        return "sets" + std::to_string(p.llc_sets) + "_mlcw" +
               std::to_string(p.mlc_ways) + "_mask" +
               std::to_string(p.mask_lo) + "to" +
               std::to_string(p.mask_hi) + "_seed" +
               std::to_string(p.seed);
    });
