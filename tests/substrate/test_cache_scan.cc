/**
 * @file
 * The SSE2 way kernels (cache/scan.hh) against plain scalar loops:
 * the tag match, the LRU rank touch, and the LRU and SRRIP victims.
 *
 * Tags and replacement bytes are allocated separately at exactly
 * scan::tagBytes and scan::rankBytes, so a sanitizer build catches a
 * read past what the kernels declare. Lanes past the last way hold
 * random garbage (including the probed tag and 0); invalid ways hold
 * tag 0 beside stale ranks and flags.
 *
 * The LRU victim is checked against the stamp definition it replaced:
 * every touch or fill stamps the way with a rising clock, and the
 * victim is the lowest invalid way in the mask, else the in-mask way
 * with the least stamp -- the minimum of the key `w` (invalid) or
 * `1<<40 | stamp<<8 | w` (valid). The ranks under test see only the
 * same touches, fills and invalidations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "cache/scan.hh"
#include "rdt/cat.hh"
#include "sim/rng.hh"

using namespace a4;

namespace
{

/** The two leading regions of one set block, exactly as long as the
 *  kernels read, random throughout. */
struct Block
{
    Block(unsigned ways_, Rng &rng)
        : ways(ways_), tag_lanes(scan::tagBytes(ways_) / 4),
          rank_lanes(scan::rankBytes(ways_)),
          tags(new std::uint32_t[tag_lanes]),
          ranks(new std::uint8_t[rank_lanes])
    {
        for (unsigned i = 0; i < tag_lanes; ++i)
            tags[i] = std::uint32_t(rng.next());
        for (unsigned i = 0; i < rank_lanes; ++i)
            ranks[i] = std::uint8_t(rng.next());
    }

    unsigned ways;
    unsigned tag_lanes;
    unsigned rank_lanes;
    std::unique_ptr<std::uint32_t[]> tags;
    std::unique_ptr<std::uint8_t[]> ranks;
};

/** Fill @p b like a live set: unique non-zero tags on about three in
 *  four ways, 0 on the rest, and padding-lane tags drawn from the
 *  set's own tags, 0 or anything. */
void
fillTags(Block &b, Rng &rng)
{
    for (unsigned w = 0; w < b.ways; ++w) {
        std::uint32_t tag = 0;
        if (rng.below(4) != 0) {
            do {
                tag = 1 + std::uint32_t(rng.below(4 * b.ways));
            } while (std::count(b.tags.get(), b.tags.get() + w, tag) != 0);
        }
        b.tags[w] = tag;
    }
    for (unsigned i = b.ways; i < b.tag_lanes; ++i) {
        switch (rng.below(3)) {
          case 0:
            b.tags[i] = 0;
            break;
          case 1:
            b.tags[i] = b.tags[rng.below(b.ways)];
            break;
          default:
            b.tags[i] = std::uint32_t(rng.next());
        }
    }
}

WayMask
randomMask(unsigned ways, Rng &rng)
{
    switch (rng.below(6)) {
    case 0:
        return 0;
    case 1:
        return WayMask(1) << rng.below(ways);
    case 2:
        return ~WayMask(0);
    case 3:
        return scan::lanesOf(ways);
    case 4: {
        const auto lo = unsigned(rng.below(ways));
        const auto hi = lo + unsigned(rng.below(ways - lo));
        return CatController::makeMask(lo, hi);
    }
    default:
        return WayMask(rng.next());
    }
}

int
scalarFind(const Block &b, std::uint32_t tag)
{
    int found = -1;
    for (unsigned w = 0; w < b.ways; ++w) {
        if (b.tags[w] == tag && found < 0)
            found = int(w);
    }
    return found;
}

/** The key-min victim over per-way stamps (LRU) or RRPVs (SRRIP). */
int
scalarVictim(const Block &b, const std::vector<std::uint64_t> &stamp,
             WayMask mask, bool srrip)
{
    std::uint64_t best = ~std::uint64_t(0);
    for (unsigned w = 0; w < b.ways; ++w) {
        if (!(mask >> w & 1))
            continue;
        std::uint64_t rank = stamp[w];
        bool ranked = b.tags[w] != 0;
        if (srrip) {
            rank = rank < 3 ? 3 - rank : 0;
            ranked = ranked && rank != 0;
        }
        const std::uint64_t key =
            ranked ? (std::uint64_t(1) << 40) | (rank << 8) | w : w;
        best = std::min(best, key);
    }
    return best == ~std::uint64_t(0) ? -1 : int(best & 0xFF);
}

constexpr int kTrialsPerWays = 600;

} // namespace

TEST(CacheScan, FindWayMatchesTheScalarLoop)
{
    Rng rng(181);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < kTrialsPerWays; ++t) {
            Block b(ways, rng);
            fillTags(b, rng);
            std::vector<std::uint32_t> probes = {
                std::uint32_t(rng.next()) | 1,
                1 + std::uint32_t(rng.below(4 * ways))};
            for (unsigned i = 0; i < b.tag_lanes; ++i) {
                if (b.tags[i] != 0)
                    probes.push_back(b.tags[i]);
            }
            for (std::uint32_t tag : probes) {
                ASSERT_EQ(scan::findWay(b.tags.get(), ways, tag),
                          scalarFind(b, tag))
                    << ways << " ways, trial " << t << ", tag " << tag;
            }
            std::uint32_t invalid = 0;
            for (unsigned w = 0; w < ways; ++w)
                invalid |= std::uint32_t(b.tags[w] == 0) << w;
            ASSERT_EQ(scan::matchBits(b.tags.get(), ways, 0), invalid)
                << ways << " ways, trial " << t;
        }
    }
}

TEST(CacheScan, RankTouchKeepsAPermutation)
{
    Rng rng(185);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < kTrialsPerWays; ++t) {
            Block b(ways, rng);
            std::vector<std::uint8_t> perm(ways);
            for (unsigned w = 0; w < ways; ++w)
                perm[w] = std::uint8_t(w);
            for (unsigned w = ways; w-- > 1;)
                std::swap(perm[w], perm[rng.below(w + 1)]);
            std::copy(perm.begin(), perm.end(), b.ranks.get());
            const std::vector<std::uint8_t> padding(
                b.ranks.get() + ways, b.ranks.get() + b.rank_lanes);

            for (int touch = 0; touch < 8; ++touch) {
                const auto way = unsigned(rng.below(ways));
                std::vector<std::uint8_t> want(b.ranks.get(),
                                               b.ranks.get() + ways);
                for (std::uint8_t &r : want)
                    r -= r > b.ranks[way];
                want[way] = std::uint8_t(ways - 1);

                scan::rankTouch(b.ranks.get(), ways, way);
                ASSERT_TRUE(std::equal(want.begin(), want.end(),
                                       b.ranks.get()))
                    << ways << " ways, trial " << t << ", way " << way;
                ASSERT_TRUE(std::equal(padding.begin(), padding.end(),
                                       b.ranks.get() + ways))
                    << ways << " ways: a padding lane moved";
                std::vector<std::uint8_t> sorted = want;
                std::sort(sorted.begin(), sorted.end());
                for (unsigned w = 0; w < ways; ++w)
                    ASSERT_EQ(sorted[w], w) << ways << " ways";
            }
        }
    }
}

TEST(CacheScan, LruVictimIsTheKeyMinimum)
{
    // Seeded fill / touch / invalidate sequences from a fresh set
    // (ranks 0, stamps 0, all ways invalid), as CacheSystem drives
    // them; the victim is checked before every step.
    Rng rng(182);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < 40; ++t) {
            Block b(ways, rng);
            std::fill_n(b.tags.get(), ways, 0u);
            std::fill_n(b.ranks.get(), ways, std::uint8_t(0));
            std::vector<std::uint64_t> stamp(ways, 0);
            std::uint64_t clock = 0;
            std::uint32_t next_tag = 1;
            auto touch = [&](unsigned w) {
                scan::rankTouch(b.ranks.get(), ways, w);
                stamp[w] = ++clock;
            };

            for (int step = 0; step < 120; ++step) {
                for (int m = 0; m < 3; ++m) {
                    const WayMask mask = randomMask(ways, rng);
                    ASSERT_EQ(scan::lruVictim(b.tags.get(), b.ranks.get(),
                                              ways, mask),
                              scalarVictim(b, stamp, mask, false))
                        << ways << " ways, trial " << t << ", step "
                        << step << ", mask 0x" << std::hex << mask;
                }
                const auto w = unsigned(rng.below(ways));
                switch (rng.below(4)) {
                  case 0:
                    b.tags[w] = 0; // invalidate: the rank stays
                    break;
                  case 1:
                    if (b.tags[w] != 0)
                        touch(w);
                    break;
                  default: {
                    // Fill the victim of a random non-empty mask.
                    WayMask mask = randomMask(ways, rng) & scan::lanesOf(ways);
                    if (mask == 0)
                        mask = scan::lanesOf(ways);
                    const int v = scalarVictim(b, stamp, mask, false);
                    b.tags[v] = next_tag++;
                    touch(unsigned(v));
                  }
                }
            }
        }
    }
}

TEST(CacheScan, ZeroStartPicksThePermutationStartsVictims)
{
    // CacheSystem starts every rank at 0. A second rank array started
    // as the permutation 0..ways-1 takes the same touches, fills and
    // invalidations; both must pick the same LRU victim for every
    // mask at every step. Fills go to the victim of a random mask, as
    // mlcInsert and llcAlloc place them, so sets run full and the
    // victims read ranks.
    Rng rng(186);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        // Whole set, single ways, halves, and DCA/inclusive-like ends.
        std::vector<WayMask> structured = {scan::lanesOf(ways),
                                           ~WayMask(0)};
        for (unsigned w = 0; w < ways; ++w)
            structured.push_back(WayMask(1) << w);
        if (ways >= 2) {
            structured.push_back(CatController::makeMask(0, ways / 2 - 1));
            structured.push_back(CatController::makeMask(ways / 2, ways - 1));
            structured.push_back(CatController::makeMask(0, 1));
            structured.push_back(CatController::makeMask(ways - 2, ways - 1));
        }
        for (int t = 0; t < 20; ++t) {
            Block zero(ways, rng);
            Block perm(ways, rng); // only its ranks are used
            std::fill_n(zero.tags.get(), ways, 0u);
            std::fill_n(zero.ranks.get(), ways, std::uint8_t(0));
            for (unsigned w = 0; w < ways; ++w)
                perm.ranks[w] = std::uint8_t(w);
            const std::uint32_t *tags = zero.tags.get();
            auto victims = [&](WayMask mask) {
                return std::pair{
                    scan::lruVictim(tags, zero.ranks.get(), ways, mask),
                    scan::lruVictim(tags, perm.ranks.get(), ways, mask)};
            };
            auto touch = [&](unsigned w) {
                scan::rankTouch(zero.ranks.get(), ways, w);
                scan::rankTouch(perm.ranks.get(), ways, w);
            };
            std::uint32_t next_tag = 1;

            for (int step = 0; step < 150; ++step) {
                std::vector<WayMask> masks = structured;
                for (int m = 0; m < 3; ++m)
                    masks.push_back(randomMask(ways, rng));
                for (const WayMask mask : masks) {
                    const auto [z, p] = victims(mask);
                    ASSERT_EQ(z, p) << ways << " ways, trial " << t
                                    << ", step " << step << ", mask 0x"
                                    << std::hex << mask;
                }
                const auto w = unsigned(rng.below(ways));
                switch (rng.below(4)) {
                  case 0:
                    zero.tags[w] = 0; // invalidate: the ranks stay
                    break;
                  case 1:
                    if (zero.tags[w] != 0)
                        touch(w);
                    break;
                  default: {
                    WayMask mask = randomMask(ways, rng) & scan::lanesOf(ways);
                    if (mask == 0)
                        mask = scan::lanesOf(ways);
                    const int v = victims(mask).first;
                    zero.tags[v] = next_tag++;
                    touch(unsigned(v));
                  }
                }
            }
        }
    }
}

TEST(CacheScan, SrripVictimIsTheKeyMinimum)
{
    Rng rng(183);
    for (unsigned ways = 1; ways <= 32; ++ways) {
        for (int t = 0; t < kTrialsPerWays; ++t) {
            Block b(ways, rng);
            fillTags(b, rng);
            std::vector<std::uint64_t> rrpv(ways);
            for (unsigned w = 0; w < ways; ++w) {
                b.ranks[w] = rng.chance(0.1) ? 0xFF
                                             : std::uint8_t(rng.below(5));
                rrpv[w] = b.ranks[w];
            }
            for (int m = 0; m < 4; ++m) {
                const WayMask mask = randomMask(ways, rng);
                ASSERT_EQ(scan::srripVictim(b.tags.get(), b.ranks.get(),
                                            ways, mask),
                          scalarVictim(b, rrpv, mask, true))
                    << ways << " ways, trial " << t << ", mask 0x"
                    << std::hex << mask;
            }
        }
    }
}

TEST(CacheScan, AllMaxRanksPickTheLowestWayInTheMask)
{
    // The argmin pads out-of-mask lanes with 0xFF, so an in-mask byte
    // of 0xFF ties them: the hits are ANDed with the mask.
    Rng rng(184);
    for (unsigned ways : {3u, 8u, 11u, 16u, 19u, 25u, 32u}) {
        Block b(ways, rng);
        for (unsigned w = 0; w < ways; ++w) {
            b.tags[w] = 1 + w;
            b.ranks[w] = 0xFF;
        }
        const WayMask upper = CatController::makeMask(ways / 2, ways - 1);
        EXPECT_EQ(scan::lruVictim(b.tags.get(), b.ranks.get(), ways, upper),
                  int(ways / 2))
            << ways << " ways";
        b.ranks[ways - 1] = 0xFE;
        EXPECT_EQ(scan::lruVictim(b.tags.get(), b.ranks.get(), ways, upper),
                  int(ways - 1))
            << ways << " ways";
    }
}
